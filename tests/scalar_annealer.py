"""The per-spin scalar Metropolis loop: a test-only annealing oracle.

The original pure-Python annealer, preserved flip-for-flip: every RNG draw
(restart initialisation, per-sweep site permutation, per-flip uniforms)
happens in the order the first implementation made them. The batched
replica engine (:mod:`repro.ising.annealer_batched`) implements the same
dynamics with a different draw order, so the two agree in distribution,
not bit for bit; the quality-parity and replica-field tests compare
against this loop.
"""

from __future__ import annotations

import numpy as np

from repro.ising.annealer import AnnealResult, _validate_anneal_args
from repro.ising.hamiltonian import IsingHamiltonian
from repro.utils.rng import ensure_rng


def _local_fields(
    hamiltonian: IsingHamiltonian, spins: np.ndarray
) -> np.ndarray:
    """Effective field on each spin: ``h_i + sum_j J_ij z_j``.

    Flipping spin i changes the energy by ``-2 z_i * field_i`` ... with the
    sign convention used below ``delta = -2 * z_i * field_i`` is the change
    from flipping, so we store the field and update it incrementally.
    """
    fields = hamiltonian.linear
    for (i, j), coupling in hamiltonian.quadratic.items():
        fields[i] += coupling * spins[j]
        fields[j] += coupling * spins[i]
    return fields


def _simulated_annealing_scalar(
    hamiltonian: IsingHamiltonian,
    num_sweeps: int,
    num_restarts: int,
    initial_temperature: float,
    final_temperature: float,
    seed: "int | np.random.Generator | None",
) -> AnnealResult:
    """The legacy per-spin, per-sweep reference loop.

    This is the original implementation, preserved flip-for-flip: every
    RNG draw (restart initialisation, per-sweep site permutation, per-flip
    uniforms) happens in the same order as before the vectorized engine
    existed, so seeded results are bit-identical to historical runs.
    """
    n = hamiltonian.num_qubits
    _validate_anneal_args(
        n, num_sweeps, num_restarts, initial_temperature, final_temperature
    )
    rng = ensure_rng(seed)
    adjacency: dict[int, list[tuple[int, float]]] = {i: [] for i in range(n)}
    for (i, j), coupling in hamiltonian.quadratic.items():
        adjacency[i].append((j, coupling))
        adjacency[j].append((i, coupling))
    cooling = (final_temperature / initial_temperature) ** (1.0 / max(num_sweeps - 1, 1))

    best_value = np.inf
    best_spins: np.ndarray | None = None
    restart_values: list[float] = []
    for __ in range(num_restarts):
        spins = rng.choice((-1.0, 1.0), size=n)
        fields = _local_fields(hamiltonian, spins)
        energy = hamiltonian.evaluate_many(spins[None, :])[0]
        temperature = initial_temperature
        restart_best = float(energy)
        if energy < best_value:
            best_value = energy
            best_spins = spins.copy()
        for __ in range(num_sweeps):
            order = rng.permutation(n)
            uniforms = rng.random(n)
            for step, site in enumerate(order):
                delta = -2.0 * spins[site] * fields[site]
                if delta <= 0.0 or uniforms[step] < np.exp(-delta / temperature):
                    spins[site] = -spins[site]
                    energy += delta
                    for neighbor, coupling in adjacency[site]:
                        fields[neighbor] += 2.0 * coupling * spins[site]
                    if energy < restart_best:
                        restart_best = float(energy)
                    if energy < best_value - 1e-12:
                        best_value = energy
                        best_spins = spins.copy()
            temperature *= cooling
        restart_values.append(restart_best)
    assert best_spins is not None
    return AnnealResult(
        value=float(best_value),
        spins=tuple(int(s) for s in best_spins),
        num_sweeps=num_sweeps,
        num_restarts=num_restarts,
        num_replicas=num_restarts,
        restart_values=tuple(restart_values),
    )
