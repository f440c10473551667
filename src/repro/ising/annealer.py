"""Simulated annealing: the classical heuristic for instances too large to
brute-force (used for the ``C_min`` estimates of the 500-qubit Sec. 6 study
and as a classical baseline in examples).

Single-spin-flip Metropolis dynamics over a geometric temperature schedule,
with incremental energy deltas so a sweep costs O(N + |J|) instead of a full
re-evaluation per flip.

The dynamics run on the flat replica engine
(:mod:`repro.ising.annealer_batched`): every restart is a replica column
and, through :func:`~repro.ising.annealer_batched.anneal_many`, every
instance of a call adds its sites as rows of one array, with the per-site
Metropolis updates done as array operations over a conflict-free color
schedule. This module holds the result type, the argument validation the
engine shares, and the single-instance entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import HamiltonianError
from repro.ising.hamiltonian import IsingHamiltonian


@dataclass(frozen=True)
class AnnealResult:
    """Outcome of a simulated-annealing run.

    Attributes:
        value: Best cost found.
        spins: Best assignment found.
        num_sweeps: Sweeps performed.
        num_restarts: Independent restarts performed.
        num_replicas: Replicas actually run. Equal to ``num_restarts``
            (the engine runs the restarts as a replica axis); 0 when
            rebuilt from a pre-provenance cache payload that predates the
            field.
        restart_values: Best energy each restart/replica reached on its
            own, best-first ordering NOT applied (index = replica index).
            Empty when rebuilt from a pre-provenance cache payload.
    """

    value: float
    spins: tuple[int, ...]
    num_sweeps: int
    num_restarts: int
    num_replicas: int = 0
    restart_values: tuple[float, ...] = field(default=())

    @property
    def restart_stats(self) -> dict[str, float]:
        """NaN-safe summary of the per-restart best energies.

        Non-finite entries (and an empty ``restart_values``, e.g. a result
        rebuilt from an old cache payload) are excluded; with nothing left
        every statistic is NaN rather than raising.
        """
        values = np.asarray(self.restart_values, dtype=float)
        finite = values[np.isfinite(values)] if values.size else values
        if finite.size == 0:
            nan = float("nan")
            return {"mean": nan, "std": nan, "min": nan, "max": nan}
        return {
            "mean": float(np.mean(finite)),
            "std": float(np.std(finite)),
            "min": float(np.min(finite)),
            "max": float(np.max(finite)),
        }


def _validate_anneal_args(
    num_qubits: int,
    num_sweeps: int,
    num_restarts: int,
    initial_temperature: float,
    final_temperature: float,
) -> None:
    """Argument validation of every annealing entry point."""
    if num_qubits == 0:
        raise HamiltonianError("cannot anneal a zero-qubit Hamiltonian")
    if num_sweeps < 1:
        raise HamiltonianError(f"num_sweeps must be >= 1, got {num_sweeps}")
    if num_restarts < 1:
        raise HamiltonianError(f"num_restarts must be >= 1, got {num_restarts}")
    if not 0.0 < final_temperature <= initial_temperature:
        raise HamiltonianError(
            "need 0 < final_temperature <= initial_temperature, got "
            f"{final_temperature} and {initial_temperature}"
        )


def simulated_annealing(
    hamiltonian: IsingHamiltonian,
    num_sweeps: int = 500,
    num_restarts: int = 4,
    initial_temperature: float = 5.0,
    final_temperature: float = 0.01,
    seed: "int | np.random.Generator | None" = None,
) -> AnnealResult:
    """Minimise a Hamiltonian with restart simulated annealing.

    Args:
        hamiltonian: Problem to minimise.
        num_sweeps: Metropolis sweeps per restart (each sweep proposes one
            flip per spin).
        num_restarts: Independent restarts from random assignments.
        initial_temperature: Start of the geometric cooling schedule.
        final_temperature: End of the schedule; must be positive and below
            ``initial_temperature``.
        seed: RNG seed or generator.

    Returns:
        The best assignment over all restarts — identical to the matching
        single-sibling row of
        :func:`~repro.ising.annealer_batched.anneal_many`: batching never
        changes what an individual instance returns.
    """
    from repro.ising.annealer_batched import anneal_many

    return anneal_many(
        [hamiltonian],
        num_sweeps=num_sweeps,
        num_restarts=num_restarts,
        initial_temperature=initial_temperature,
        final_temperature=final_temperature,
        seeds=[seed],
    )[0]
