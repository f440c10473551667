"""Ranking frozen assignments for budgeted fan-out pruning.

Symmetry pruning (Sec. 3.7.2) halves the ``2**m`` fan-out for free; when
the execution budget is tighter still, the remaining sub-problems must be
*triaged*. Sibling sub-Hamiltonians share every quadratic term and differ
only in linear coefficients and offset, so two cheap classical signals
separate the promising assignments from the hopeless ones:

* the **offset lower bound** ``offset - sum|h| - sum|J|`` — no assignment
  of the sub-space can ever beat it, so a cell whose bound is above a
  sibling's *probe value* can be discarded outright;
* a **simulated-annealing probe** (few sweeps, one restart) — an estimate
  of the sub-space minimum that is orders of magnitude cheaper than
  training a QAOA instance.

``rank_assignments`` scores every executed cell with both and returns them
best-first; the solver executes the top-k under the budget and covers the
rest classically so the decoded result still partitions the full space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.cache.memo import cached_anneal_many
from repro.core.partition import SubProblem
from repro.utils.rng import ensure_rng, spawn_seeds

if TYPE_CHECKING:
    from repro.cache.store import SolveCache

#: Annealing sweeps and restarts per probe — intentionally few. Both enter
#: the anneal cache key, so changing them cold-starts cached probes.
PROBE_SWEEPS = 60
PROBE_RESTARTS = 1


@dataclass(frozen=True)
class AssignmentRank:
    """The triage record of one executed sub-problem.

    Attributes:
        index: The cell's index in the canonical partition ordering.
        lower_bound: ``offset - sum|h| - sum|J|`` of the sub-Hamiltonian —
            the best value the sub-space could possibly reach.
        probe_value: Best cost found by the annealing probe.
        probe_spins: The probe's best sub-space assignment (reusable as the
            classical fallback when the cell is pruned).
    """

    index: int
    lower_bound: float
    probe_value: float
    probe_spins: tuple[int, ...]


def offset_lower_bound(subproblem: SubProblem) -> float:
    """Cheapest conceivable cost of a sub-space: every term maximally negative."""
    h = subproblem.hamiltonian
    return float(
        h.offset
        - np.sum(np.abs(h.linear))
        - sum(abs(J) for J in h.quadratic.values())
    )


def rank_assignments(
    subproblems: "list[SubProblem]",
    seed: "int | np.random.Generator | None" = None,
    cache: "SolveCache | None" = None,
) -> list[AssignmentRank]:
    """Rank executed cells best-first by their classical probe value.

    Args:
        subproblems: The cells to triage (typically the non-mirror half of
            a partition).
        seed: RNG for the probes; each cell gets its own spawned child
            stream so the ranking is order-independent.
        cache: Optional solve cache; each probe is a seeded anneal, so a
            repeated sweep answers its probes from cache bit-identically
            (per cell — the batch-aware memo answers hits individually
            and anneals only the misses).

    Returns:
        One :class:`AssignmentRank` per input cell, most promising first,
        with a deterministic index tie-break keeping the ranking
        reproducible.
    """
    rng = ensure_rng(seed)
    probe_seeds = spawn_seeds(rng, len(subproblems))
    # All cells in one engine call: siblings share J, so the batched core
    # precomputes one neighbor structure and sweeps the whole fan-out as a
    # (cells x replicas) array program.
    probes = cached_anneal_many(
        [sp.hamiltonian for sp in subproblems],
        num_sweeps=PROBE_SWEEPS,
        num_restarts=PROBE_RESTARTS,
        seeds=probe_seeds,
        cache=cache,
    )
    ranks: list[AssignmentRank] = []
    for sp, anneal_probe in zip(subproblems, probes):
        ranks.append(
            AssignmentRank(
                index=sp.index,
                lower_bound=offset_lower_bound(sp),
                probe_value=anneal_probe.value,
                probe_spins=anneal_probe.spins,
            )
        )
    ranks.sort(key=lambda r: (r.probe_value, r.lower_bound, r.index))
    return ranks
