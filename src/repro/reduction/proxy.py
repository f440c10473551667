"""Proxy-training plans: canonical-frame proxies with digest-derived seeds.

The solve path trains QAOA parameters on a sparsified *proxy* of each
sub-problem (see :mod:`repro.reduction.sparsify`) and transfers them to
the full instance for a short gradient refinement. The canonical frame
fixes two things about the proxy, and nothing else:

* **Its labels.** The proxy is built from the **canonical instance** —
  the sub-problem relabeled (and possibly ``h``-flipped) by its
  :func:`~repro.cache.keys.canonical_ising_key` witness. QAOA parameters
  are label-free, and the global flip maps one landscape onto the other
  with the *same* optimal angles (conjugating by ``X^{\\otimes n}``
  commutes with the mixer and negates only the frame, not the
  expectation), so training in the canonical frame loses nothing.

* **Its seed.** The sparsifier's and the proxy optimizer's seed is
  derived from the canonical digest, not drawn from the job's RNG stream
  — so planning consumes no randomness, and the job's sampling stream is
  the same whether or not the proxy stage runs.

Proxy outcomes are shared the same way as direct ones: by landscape class
within a solve and by the p = 1 trained-parameter cache across solves.
:func:`plan_proxy` packages the plan into a picklable :class:`ProxySpec`
that rides on the job spec into whichever backend worker trains it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.cache.keys import CanonicalKey, canonical_ising_key, ising_fingerprint
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
        report: The sparsifier's similarity/reduction accounting.
    """

    hamiltonian: IsingHamiltonian
    seed: int
    report: ReductionReport


def canonical_instance(
    hamiltonian: IsingHamiltonian,
) -> tuple[IsingHamiltonian, CanonicalKey]:
    """The instance rewritten into its canonical frame, plus the key.

    Applies the canonical key's witness — relabel by ``permutation``,
    negate ``h`` when ``flipped`` — so every instance equivalent under
    relabeling/flip maps to the *same* canonical instance, bit for bit.
    Budget-capped keys (``complete=False``) carry no witness; the
    instance is returned unchanged and seeds from its exact fingerprint.
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
    return ProxySpec(hamiltonian=proxy, seed=seed, report=reduced.report)
