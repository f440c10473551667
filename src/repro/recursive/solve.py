"""Executing a planned :class:`~repro.recursive.tree.FreezeTree`.

The execution pipeline reuses the single-level machinery end to end: every
quantum leaf becomes one ``num_frozen=0`` :class:`FrozenQubitsSolver`
prepare (template compilation, p=1 trained-parameter caching, proxy
planning — all of it), all leaf jobs across the whole tree go to the
execution backend as *one* submission, and each leaf is finalized through
the standard decode path. On top of that sit the tree-specific stages:

* **Cross-tree leaf dedup** — deep sub-problems frequently coincide up to
  variable relabeling and the ``h -> -h`` flip, independent of their tree
  position. Leaves are grouped by their canonical Ising key
  (:func:`repro.cache.canonical_ising_key`; exact fingerprint when the
  canonical search was budget-capped), one representative per group
  executes, and the others adopt its outcome through the witness
  permutation (:func:`repro.cache.canonicalize_spins` /
  :func:`~repro.cache.rehydrate_spins`).
* **Classical coverage** — every budget-cut node is annealed in one
  batched :func:`~repro.cache.memo.cached_anneal_many` pass with its
  plan-time seed, floored at the triage probe when one exists.
* **Level-by-level composition** — freeze cells decode through
  :func:`~repro.ising.freeze.decode_spins` (mirror cells bit-flip their
  twin), split components scatter into the parent frame, closed nodes are
  solved in closed form; offsets ride the sub-Hamiltonians, so the
  composed value of every node is exactly its Hamiltonian evaluated at
  the composed spins, all the way to the root.

Expectation accounting: a leaf contributes its circuit's expectations, a
closed node the (exact) value of its closed-form solution, a classical
node ``NaN`` (no circuit ran; same convention as the single-level budget
fallback). Freeze nodes mix by ``nanmean`` over their cells; split nodes
*sum* their components (the Hamiltonian is additive over components), so
one classically-covered component makes the split's expectation ``NaN``
rather than silently overstating coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.cache import (
    canonical_ising_key,
    canonicalize_spins,
    ising_fingerprint,
    rehydrate_spins,
    resolve_cache,
)
from repro.cache.memo import cached_anneal_many
from repro.exceptions import RecursiveError
from repro.ising.freeze import decode_spins
from repro.recursive.tree import FreezeNode, FreezeTree, plan_tree
from repro.utils.rng import ensure_rng, spawn_seeds

if TYPE_CHECKING:
    from repro.cache.keys import CanonicalKey
    from repro.cache.store import SolveCache
    from repro.core.solver import FrozenQubitsResult, SolverConfig
    from repro.devices.device import Device
    from repro.ising.hamiltonian import IsingHamiltonian
    from repro.planning.budget import ExecutionBudget
    from repro.recursive.tree import RecursiveConfig


@dataclass(frozen=True)
class NodeOutcome:
    """One composed node: its best assignment and expectation mixture.

    Attributes:
        spins: Best assignment in the node's own variable frame.
        value: The node Hamiltonian's cost of ``spins`` (offset included).
        ev_ideal: Ideal expectation of the node's sub-space mixture
            (``NaN`` where classical coverage left no circuit to measure).
        ev_noisy: Noisy expectation, same convention.
    """

    spins: tuple[int, ...]
    value: float
    ev_ideal: float
    ev_noisy: float


@dataclass
class RecursiveResult:
    """Full output of a recursive FrozenQubits solve.

    Attributes:
        hamiltonian: The original instance.
        tree: The executed plan (inspect with ``tree.describe()``).
        best_spins: Best full-instance assignment found.
        best_value: Its cost — always exactly
            ``hamiltonian.evaluate(best_spins)``.
        ev_ideal: Composed ideal expectation at the root (``NaN`` when
            classical coverage reaches the root mixture).
        ev_noisy: Composed noisy expectation, same convention.
        num_leaves: Quantum leaves in the plan.
        num_circuits_executed: Circuits actually run — leaves minus the
            dedup savings.
        num_deduplicated_leaves: Leaves that adopted an equivalent
            executed leaf's outcome instead of running their own circuit.
        num_closed_nodes: Sub-spaces solved in closed form.
        num_classical_nodes: Sub-spaces covered by the annealing fallback.
        leaf_results: Executed-leaf results by tree path (the
            representative leaves only; dedup adopters point at theirs via
            ``dedup_sources``).
        dedup_sources: Adopting leaf path -> executed leaf path.
        cache_stats: Per-kind cache counter delta of this solve (``None``
            when caching was off).
        num_failed_jobs: Leaf jobs (across every executed leaf) that
            exhausted their :class:`~repro.backend.FaultPolicy` retries
            and were covered classically — see
            :attr:`FrozenQubitsResult.num_failed_jobs`. Always 0 without
            a policy.
        num_job_retries: Total retry attempts spent across all leaf jobs.
    """

    hamiltonian: "IsingHamiltonian"
    tree: FreezeTree
    best_spins: tuple[int, ...]
    best_value: float
    ev_ideal: float
    ev_noisy: float
    num_leaves: int
    num_circuits_executed: int
    num_deduplicated_leaves: int
    num_closed_nodes: int
    num_classical_nodes: int
    leaf_results: "dict[str, FrozenQubitsResult]" = field(default_factory=dict)
    dedup_sources: dict[str, str] = field(default_factory=dict)
    cache_stats: "dict[str, dict[str, int]] | None" = None
    num_failed_jobs: int = 0
    num_job_retries: int = 0

    @property
    def failure_provenance(self) -> "dict[str, dict[int, dict[str, object]]]":
        """Per-leaf failure records: tree path -> partition index -> what
        happened (see :attr:`FrozenQubitsResult.failure_provenance`).
        Empty when every job succeeded."""
        provenance = {}
        for path, leaf_result in self.leaf_results.items():
            leaf_provenance = leaf_result.failure_provenance
            if leaf_provenance:
                provenance[path] = leaf_provenance
        return provenance


def _nanmean(values: "list[float]") -> float:
    """NaN-ignoring mean that quietly degrades to NaN on an all-NaN mix."""
    finite = [v for v in values if not math.isnan(v)]
    if not finite:
        return float("nan")
    return float(np.mean(finite))


def _closed_form_outcome(hamiltonian: "IsingHamiltonian") -> NodeOutcome:
    """Exact solution of an edgeless node: each spin opposes its field."""
    spins = tuple(
        -1 if coefficient > 0.0 else 1 for coefficient in hamiltonian.linear
    )
    value = float(hamiltonian.evaluate(spins))
    # The solution is deterministic, so its "distribution" is a point
    # mass: the expectation IS the exact value, ideal and noisy alike.
    return NodeOutcome(spins=spins, value=value, ev_ideal=value,
                       ev_noisy=value)


def _leaf_identity(
    hamiltonian: "IsingHamiltonian",
) -> "tuple[str, CanonicalKey | None]":
    """Tree-position-independent identity of a leaf instance.

    The canonical digest when the search completed (groups every leaf
    equivalent up to relabeling/flip, wherever it sits in the tree); the
    exact fingerprint otherwise (bit-identical leaves still collapse).
    """
    key = canonical_ising_key(hamiltonian)
    if key.complete:
        return f"canon:{key.digest}", key
    return f"exact:{ising_fingerprint(hamiltonian)}", None


def solve_recursive(
    hamiltonian: "IsingHamiltonian",
    device: "Device | None" = None,
    backend=None,
    config: "SolverConfig | None" = None,
    recursive_config: "RecursiveConfig | None" = None,
    budget: "ExecutionBudget | None" = None,
    seed=None,
    cache: "SolveCache | bool | None" = None,
) -> RecursiveResult:
    """Solve one instance by recursive multi-level freezing.

    Args:
        hamiltonian: The full instance — may be orders of magnitude larger
            than anything the single-level path can execute.
        device: Optional device model (enables noise + compilation for
            every leaf).
        backend: Execution backend (name, instance, or ``None`` for the
            session default); receives every leaf job of the whole tree as
            one submission.
        config: Shared runner knobs (:class:`~repro.core.SolverConfig`).
        recursive_config: Planner knobs
            (:class:`~repro.recursive.RecursiveConfig`).
        budget: Execution budget; caps the quantum leaves, with annealed
            coverage beyond the cap.
        seed: Seed of the whole solve (planning + leaf streams).
        cache: Solve cache (same forms as :class:`FrozenQubitsSolver`).

    Returns:
        A :class:`RecursiveResult` whose outcome mixture partitions the
        original state-space exactly.
    """
    from repro.backend import resolve_backend
    from repro.core.solver import FrozenQubitsSolver, SolverConfig
    from repro.planning.planner import FreezePlan

    cfg = config or SolverConfig()
    cache = resolve_cache(cache)
    before = cache.stats_snapshot() if cache is not None else None
    rng = ensure_rng(seed)
    plan_seed = spawn_seeds(rng, 1)[0]
    tree = plan_tree(
        hamiltonian,
        config=recursive_config,
        budget=budget,
        shots=cfg.shots,
        seed=plan_seed,
        cache=cache,
    )

    # ------------------------------------------------------------------
    # Leaf execution: one num_frozen=0 prepare per unique leaf, all jobs
    # in one backend submission. Every leaf draws its seed positionally,
    # so dedup hits never shift a later leaf's stream.
    # ------------------------------------------------------------------
    leaves = tree.leaves()
    leaf_seeds = spawn_seeds(rng, len(leaves))
    executor_by_identity: dict[str, FreezeNode] = {}
    key_by_path: "dict[str, CanonicalKey | None]" = {}
    dedup_sources: dict[str, str] = {}
    executors: list[FreezeNode] = []
    for leaf in leaves:
        identity, key = _leaf_identity(leaf.hamiltonian)
        key_by_path[leaf.path] = key
        source = executor_by_identity.get(identity)
        if source is None:
            executor_by_identity[identity] = leaf
            executors.append(leaf)
        else:
            dedup_sources[leaf.path] = source.path
    # The leaf plan pins num_frozen=0 explicitly so session planning
    # defaults (adaptive mode, budgets) cannot re-freeze inside a leaf.
    leaf_plan = FreezePlan(num_frozen=0, hotspots=(), warm_start=False)
    seed_by_path = {
        leaf.path: leaf_seed for leaf, leaf_seed in zip(leaves, leaf_seeds)
    }
    prepared_by_path = {}
    all_jobs: list = []
    for leaf in executors:
        solver = FrozenQubitsSolver(
            num_frozen=0,
            config=cfg,
            seed=seed_by_path[leaf.path],
            plan=leaf_plan,
            warm_start=False,
            cache=cache if cache is not None else False,
        )
        prepared = solver.prepare_jobs(
            leaf.hamiltonian, device, job_prefix=f"{leaf.path}/"
        )
        prepared_by_path[leaf.path] = (solver, prepared)
        all_jobs.extend(prepared.jobs)
    job_results = resolve_backend(backend).run(all_jobs)

    leaf_results: "dict[str, FrozenQubitsResult]" = {}
    outcome_by_path: dict[str, NodeOutcome] = {}
    cursor = 0
    for leaf in executors:
        solver, prepared = prepared_by_path[leaf.path]
        count = len(prepared.jobs)
        result = solver.finalize(
            prepared, job_results[cursor:cursor + count]
        )
        cursor += count
        leaf_results[leaf.path] = result
        outcome_by_path[leaf.path] = NodeOutcome(
            spins=result.best_spins,
            value=result.best_value,
            ev_ideal=result.ev_ideal,
            ev_noisy=result.ev_noisy,
        )
    # Dedup adopters: map the executed twin's assignment through the
    # canonical frame into their own; expectations transfer unchanged
    # (equivalent instances share the landscape, hence the trained EV).
    for leaf in leaves:
        source_path = dedup_sources.get(leaf.path)
        if source_path is None:
            continue
        source = outcome_by_path[source_path]
        source_key = key_by_path[source_path]
        own_key = key_by_path[leaf.path]
        if source_key is not None and own_key is not None:
            spins = rehydrate_spins(
                canonicalize_spins(source.spins, source_key), own_key
            )
        else:
            spins = source.spins
        outcome_by_path[leaf.path] = NodeOutcome(
            spins=spins,
            value=float(leaf.hamiltonian.evaluate(spins)),
            ev_ideal=source.ev_ideal,
            ev_noisy=source.ev_noisy,
        )

    # ------------------------------------------------------------------
    # Classical coverage: one batched anneal over every budget-cut node,
    # each on its own plan-time seed, floored at the triage probe.
    # ------------------------------------------------------------------
    classical_nodes = tree.classical_nodes()
    anneals = (
        cached_anneal_many(
            [node.hamiltonian for node in classical_nodes],
            seeds=[node.fallback_seed for node in classical_nodes],
            cache=cache,
        )
        if classical_nodes
        else []
    )
    for node, anneal in zip(classical_nodes, anneals):
        spins, value = anneal.spins, anneal.value
        if node.rank is not None and node.rank.probe_value < value:
            spins, value = node.rank.probe_spins, node.rank.probe_value
        outcome_by_path[node.path] = NodeOutcome(
            spins=tuple(spins),
            value=float(value),
            ev_ideal=float("nan"),
            ev_noisy=float("nan"),
        )

    # ------------------------------------------------------------------
    # Bottom-up composition to the root.
    # ------------------------------------------------------------------
    def compose(node: FreezeNode) -> NodeOutcome:
        if node.kind in ("leaf", "classical"):
            return outcome_by_path[node.path]
        if node.kind == "closed":
            return _closed_form_outcome(node.hamiltonian)
        if node.kind == "split":
            full = [0] * node.hamiltonian.num_qubits
            ev_ideal = 0.0
            ev_noisy = 0.0
            for qubits, child in zip(
                node.component_qubits, node.component_children
            ):
                outcome = compose(child)
                for local, original in enumerate(qubits):
                    full[original] = outcome.spins[local]
                ev_ideal += outcome.ev_ideal
                ev_noisy += outcome.ev_noisy
            spins = tuple(full)
            return NodeOutcome(
                spins=spins,
                value=float(node.hamiltonian.evaluate(spins)),
                ev_ideal=ev_ideal,
                ev_noisy=ev_noisy,
            )
        if node.kind != "freeze":
            raise RecursiveError(f"cannot compose node kind {node.kind!r}")
        cells: dict[int, NodeOutcome] = {}
        for index in sorted(node.children):
            sp = node.subproblems[index]
            outcome = compose(node.children[index])
            full = decode_spins(sp.spec, sp.assignment, outcome.spins)
            cells[index] = NodeOutcome(
                spins=full,
                value=float(node.hamiltonian.evaluate(full)),
                ev_ideal=outcome.ev_ideal,
                ev_noisy=outcome.ev_noisy,
            )
        for sp in node.subproblems:
            if not sp.is_mirror:
                continue
            twin = cells[sp.mirror_of]
            mirrored = tuple(-s for s in twin.spins)
            cells[sp.index] = NodeOutcome(
                spins=mirrored,
                value=float(node.hamiltonian.evaluate(mirrored)),
                ev_ideal=twin.ev_ideal,
                ev_noisy=twin.ev_noisy,
            )
        ordered = [cells[index] for index in sorted(cells)]
        best = min(ordered, key=lambda outcome: outcome.value)
        return NodeOutcome(
            spins=best.spins,
            value=best.value,
            ev_ideal=_nanmean([outcome.ev_ideal for outcome in ordered]),
            ev_noisy=_nanmean([outcome.ev_noisy for outcome in ordered]),
        )

    root = compose(tree.root)
    result = RecursiveResult(
        hamiltonian=hamiltonian,
        tree=tree,
        best_spins=root.spins,
        best_value=root.value,
        ev_ideal=root.ev_ideal,
        ev_noisy=root.ev_noisy,
        num_leaves=len(leaves),
        num_circuits_executed=len(all_jobs)
        - sum(r.num_failed_jobs for r in leaf_results.values()),
        num_deduplicated_leaves=len(dedup_sources),
        num_closed_nodes=tree.stats.get("closed", 0),
        num_classical_nodes=tree.stats.get("classical", 0),
        leaf_results=leaf_results,
        dedup_sources=dedup_sources,
        num_failed_jobs=sum(
            r.num_failed_jobs for r in leaf_results.values()
        ),
        num_job_retries=sum(
            r.num_job_retries for r in leaf_results.values()
        ),
    )
    if cache is not None:
        from repro.cache.store import stats_delta

        result.cache_stats = stats_delta(before, cache.stats_snapshot())
    return result
