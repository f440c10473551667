"""Classical reference solvers behind one dispatching facade.

Small problems get the exact vectorised brute force; larger ones get
restart simulated annealing; ``greedy`` provides the cheap 1-opt descent
used as a sanity floor in examples.

:func:`solve_classically_many` is the batch form: the annealed instances
of a suite run as one vectorized multi-replica pass (instances sharing a
coupling graph share one precomputed structure), which is how the
figure-scale ``C_min`` estimates (:func:`c_min_many`) stay cheap when the
suite outgrows the brute-force threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import SolverError
from repro.ising.hamiltonian import IsingHamiltonian
from repro.utils.rng import ensure_rng, spawn_seeds

if TYPE_CHECKING:
    from repro.cache.store import SolveCache


@dataclass(frozen=True)
class ClassicalResult:
    """Outcome of a classical solve.

    Attributes:
        value: Best cost found (exact for ``method="exact"``).
        spins: Best assignment found.
        method: Solver actually used.
        exact: Whether the result is provably optimal.
    """

    value: float
    spins: tuple[int, ...]
    method: str
    exact: bool


def greedy_descent(
    hamiltonian: IsingHamiltonian,
    seed: "int | np.random.Generator | None" = None,
    restarts: int = 8,
) -> ClassicalResult:
    """Random-restart single-spin-flip descent to a local minimum."""
    rng = ensure_rng(seed)
    n = hamiltonian.num_qubits
    best_value = np.inf
    best_spins: "np.ndarray | None" = None
    for __ in range(restarts):
        spins = rng.choice((-1.0, 1.0), size=n)
        improved = True
        value = hamiltonian.evaluate_many(spins[None, :])[0]
        while improved:
            improved = False
            for site in range(n):
                spins[site] = -spins[site]
                candidate = hamiltonian.evaluate_many(spins[None, :])[0]
                if candidate < value - 1e-12:
                    value = candidate
                    improved = True
                else:
                    spins[site] = -spins[site]
        if value < best_value:
            best_value = value
            best_spins = spins.copy()
    assert best_spins is not None
    return ClassicalResult(
        value=float(best_value),
        spins=tuple(int(s) for s in best_spins),
        method="greedy",
        exact=False,
    )


def solve_classically(
    hamiltonian: IsingHamiltonian,
    method: str = "auto",
    seed: "int | np.random.Generator | None" = None,
    exact_threshold: int = 20,
    cache: "SolveCache | None" = None,
) -> ClassicalResult:
    """Solve an Ising problem classically.

    Args:
        hamiltonian: The problem.
        method: ``"exact"``, ``"anneal"``, ``"greedy"``, or ``"auto"``
            (exact up to ``exact_threshold`` qubits, annealing beyond).
        seed: RNG seed for the heuristics.
        exact_threshold: Size cut-over for ``"auto"``.
        cache: Optional solve cache; exact solves (always) and annealing
            solves (when ``seed`` is an integer) are memoized.

    Raises:
        SolverError: Unknown method or exact on an oversized problem.
    """
    from repro.cache.memo import cached_brute_force, cached_simulated_annealing

    n = hamiltonian.num_qubits
    if method == "auto":
        method = "exact" if n <= exact_threshold else "anneal"
    if method == "exact":
        if n > 26:
            raise SolverError(f"exact solve limited to 26 qubits, got {n}")
        result = cached_brute_force(hamiltonian, cache=cache)
        return ClassicalResult(
            value=result.value, spins=result.spins, method="exact", exact=True
        )
    if method == "anneal":
        result = cached_simulated_annealing(hamiltonian, seed=seed, cache=cache)
        return ClassicalResult(
            value=result.value, spins=result.spins, method="anneal", exact=False
        )
    if method == "greedy":
        return greedy_descent(hamiltonian, seed=seed)
    raise SolverError(f"unknown classical method {method!r}")


def solve_classically_many(
    hamiltonians: "Sequence[IsingHamiltonian]",
    method: str = "auto",
    seed: "int | np.random.Generator | None" = None,
    seeds: "Sequence[int | np.random.Generator | None] | None" = None,
    exact_threshold: int = 20,
    cache: "SolveCache | None" = None,
) -> list[ClassicalResult]:
    """Solve a batch of Ising problems classically in one submission.

    The annealed instances (``method="anneal"``, or ``"auto"`` above the
    threshold) run together through the batch-aware memoized engine
    (:func:`repro.cache.memo.cached_anneal_many`): instances sharing a
    coupling graph share one precomputed structure, cached instances are
    answered individually, and only the misses anneal — in one vectorized
    multi-replica pass. Exact and greedy instances dispatch per instance
    (brute force is already a single vectorized scan each).

    Args:
        hamiltonians: The batch.
        method: As :func:`solve_classically`, applied per instance.
        seed: Parent seed; per-instance integer seeds are spawned from it
            (so the batch is reproducible *and* per-instance cacheable).
        seeds: Explicit per-instance seeds (overrides ``seed`` spawning;
            must match ``len(hamiltonians)``).
        exact_threshold: Size cut-over for ``"auto"``.
        cache: Optional solve cache shared by the batch.

    Returns:
        One :class:`ClassicalResult` per instance, in input order.

    Raises:
        SolverError: Unknown method, exact on an oversized problem, or a
            ``seeds`` length mismatch.
    """
    from repro.cache.memo import cached_anneal_many

    hamiltonians = list(hamiltonians)
    if seeds is None:
        seeds = spawn_seeds(seed, len(hamiltonians))
    elif len(seeds) != len(hamiltonians):
        raise SolverError(
            f"got {len(seeds)} seeds for {len(hamiltonians)} hamiltonians"
        )
    methods = []
    for hamiltonian in hamiltonians:
        resolved = method
        if resolved == "auto":
            resolved = (
                "exact"
                if hamiltonian.num_qubits <= exact_threshold
                else "anneal"
            )
        if resolved not in ("exact", "anneal", "greedy"):
            raise SolverError(f"unknown classical method {method!r}")
        methods.append(resolved)
    results: "list[ClassicalResult | None]" = [None] * len(hamiltonians)
    annealed = [i for i, m in enumerate(methods) if m == "anneal"]
    if annealed:
        anneal_results = cached_anneal_many(
            [hamiltonians[i] for i in annealed],
            seeds=[seeds[i] for i in annealed],
            cache=cache,
        )
        for index, result in zip(annealed, anneal_results):
            results[index] = ClassicalResult(
                value=result.value,
                spins=result.spins,
                method="anneal",
                exact=False,
            )
    for index, resolved in enumerate(methods):
        if resolved == "anneal":
            continue
        results[index] = solve_classically(
            hamiltonians[index],
            method=resolved,
            seed=seeds[index],
            exact_threshold=exact_threshold,
            cache=cache,
        )
    return [result for result in results if result is not None]


def c_min_many(
    hamiltonians: "Sequence[IsingHamiltonian]",
    seed: "int | np.random.Generator | None" = 0,
    exact_threshold: int = 20,
    cache: "SolveCache | None" = None,
) -> list[float]:
    """Batched ``C_min`` estimates for a suite of instances.

    The denominator of every approximation-ratio figure: exact minima up
    to ``exact_threshold`` qubits (memoized brute force), batched
    multi-replica annealing estimates beyond — the whole suite's
    heuristic tail runs as one :func:`solve_classically_many` submission,
    which is what keeps the Sec. 6-scale (hundreds of qubits) studies
    tractable.

    Args:
        hamiltonians: The suite.
        seed: Parent seed for the annealed estimates (deterministic
            per-instance child seeds are spawned from it).
        exact_threshold: Largest size solved exactly.
        cache: Optional solve cache shared by the suite.

    Returns:
        One ``C_min`` (exact or estimated) per instance, in input order.
    """
    return [
        result.value
        for result in solve_classically_many(
            hamiltonians,
            method="auto",
            seed=seed,
            exact_threshold=exact_threshold,
            cache=cache,
        )
    ]
