"""Proxy-training plans: canonical-frame proxies + parameter transfer keys.

The solve path trains QAOA parameters on a sparsified *proxy* of each
sub-problem (see :mod:`repro.reduction.sparsify`) and transfers them to
the full instance for a short gradient refinement. Everything here is
arranged so the proxy training is a pure function of the sub-problem's
*canonical* identity:

* The proxy is built from the **canonical instance** — the sub-problem
  relabeled (and possibly ``h``-flipped) by its
  :func:`~repro.cache.keys.canonical_ising_key` witness. QAOA parameters
  are label-free, and the global flip maps one landscape onto the other
  with the *same* optimal angles (conjugating by ``X^{\\otimes n}``
  commutes with the mixer and negates only the frame, not the
  expectation), so training in the canonical frame loses nothing — and
  makes the trained ``(gammas, betas)`` bit-identical across relabeled
  siblings, sweep repeats, and mirror pairs.

* The proxy optimizer's seed is derived from the canonical digest, not
  drawn from the job's RNG stream — so a cache hit (skipping the proxy
  training entirely) leaves the job's sampling stream exactly where a
  live training would have, preserving the solve-level bit-identity
  contract.

:func:`plan_proxy` packages all of it into a picklable :class:`ProxySpec`
that rides on the job spec into whichever backend worker trains it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.cache.keys import (
    CanonicalKey,
    canonical_ising_key,
    ising_fingerprint,
    proxy_params_key,
)
from repro.ising.hamiltonian import IsingHamiltonian
from repro.reduction.sparsify import ReductionReport, reduce_ising

if TYPE_CHECKING:
    from repro.core.solver import SolverConfig

#: Below this size the full instance is already trivial to train — the
#: proxy detour would cost more than it saves.
PROXY_MIN_QUBITS = 6

#: Likewise for near-edgeless instances: nothing to sparsify.
PROXY_MIN_TERMS = 3


@dataclass(frozen=True)
class ProxySpec:
    """One sub-problem's proxy-training plan (picklable; rides on a job).

    Attributes:
        hamiltonian: The canonical-frame proxy instance to train on.
        seed: Deterministic optimizer seed, derived from the canonical
            digest — never from the job's stream (see module docstring).
        cache_key: Where a *fresh* (un-warm-started) proxy training's
            outcome is cached; shared by every equivalent sub-problem.
        report: The sparsifier's similarity/reduction accounting.
        params: Pre-trained proxy ``(gammas, betas)`` when already known —
            from a cache hit at prepare time, or injected from a sibling
            that trained the identical proxy earlier in the same solve
            (``proxy_from``). Training is skipped; transfer + refinement
            still run.
    """

    hamiltonian: IsingHamiltonian
    seed: int
    cache_key: "str | None"
    report: ReductionReport
    params: "tuple[tuple[float, ...], tuple[float, ...]] | None" = None


def canonical_instance(
    hamiltonian: IsingHamiltonian,
) -> tuple[IsingHamiltonian, CanonicalKey]:
    """The instance rewritten into its canonical frame, plus the key.

    Applies the canonical key's witness — relabel by ``permutation``,
    negate ``h`` when ``flipped`` — so every instance equivalent under
    relabeling/flip maps to the *same* canonical instance, bit for bit.
    Budget-capped keys (``complete=False``) carry no witness; the
    instance is returned unchanged and sharing degrades to exact matches.
    """
    key = canonical_ising_key(hamiltonian)
    if not key.complete:
        return hamiltonian, key
    n = hamiltonian.num_qubits
    sign = -1.0 if key.flipped else 1.0
    perm = key.permutation
    h = hamiltonian.linear
    canonical_h = np.zeros(n)
    for original in range(n):
        canonical_h[perm[original]] = sign * h[original]
    canonical_j = {}
    for (i, j), coupling in hamiltonian.quadratic.items():
        a, b = perm[i], perm[j]
        canonical_j[(min(a, b), max(a, b))] = coupling
    return (
        IsingHamiltonian(n, canonical_h, canonical_j, hamiltonian.offset),
        key,
    )


def proxy_seed(identity: str) -> int:
    """Deterministic optimizer seed from a canonical digest (hex string)."""
    return int(identity[:16], 16) % (2**31 - 1)


def plan_proxy(
    hamiltonian: IsingHamiltonian, config: "SolverConfig"
) -> "ProxySpec | None":
    """Build a sub-problem's proxy-training plan, or ``None`` to opt out.

    Opts out when the instance is too small for the detour to pay
    (:data:`PROXY_MIN_QUBITS` / :data:`PROXY_MIN_TERMS`) or when the
    sparsifier achieved no reduction at the configured ratio — the caller
    then trains directly on the full instance, exactly as with
    ``proxy_training=False``.
    """
    if (
        hamiltonian.num_qubits < PROXY_MIN_QUBITS
        or hamiltonian.num_terms < PROXY_MIN_TERMS
    ):
        return None
    canonical, key = canonical_instance(hamiltonian)
    identity = key.digest if key.complete else ising_fingerprint(canonical)
    seed = proxy_seed(identity)
    reduced = reduce_ising(canonical, ratio=config.proxy_ratio, seed=seed)
    proxy = reduced.proxy
    if (
        proxy.num_qubits >= hamiltonian.num_qubits
        and proxy.num_terms >= hamiltonian.num_terms
    ):
        return None
    cache_key = proxy_params_key(
        identity,
        num_layers=config.num_layers,
        grid_resolution=config.grid_resolution,
        maxiter=config.maxiter,
        ratio=config.proxy_ratio,
    )
    return ProxySpec(
        hamiltonian=proxy,
        seed=seed,
        cache_key=cache_key,
        report=reduced.report,
    )
