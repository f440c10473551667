"""Ising Hamiltonians: problem encoding, freezing, symmetry, classical solvers.

Implements Eq. (1) of the paper — ``C(z) = sum_i h_i z_i + sum_{i<j} J_ij
z_i z_j + offset`` with ``z_i in {-1, +1}`` — plus the freezing transform of
Sec. 3.3 (Eqs. 2-3 and Table 2), the spin-flip symmetry theorem of
Sec. 3.7.2 (and its per-component landscape classes), and the classical
solvers used as references (vectorised brute force and simulated
annealing).
"""

from repro.ising.annealer import AnnealResult, simulated_annealing
from repro.ising.annealer_batched import AnnealStructure, anneal_many
from repro.ising.bruteforce import BruteForceResult, brute_force_minimum, energy_table
from repro.ising.freeze import (
    FrozenSpec,
    decode_spins,
    freeze_qubit,
    freeze_qubits,
    frozen_assignments,
)
from repro.ising.hamiltonian import IsingHamiltonian
from repro.ising.qubo import ising_to_qubo, qubo_to_ising
from repro.ising.symmetry import (
    connected_components,
    count_ground_states,
    has_spin_flip_symmetry,
    landscape_class,
    landscape_class_key,
    landscape_frame,
    verify_spin_flip_symmetry,
)

__all__ = [
    "AnnealResult",
    "AnnealStructure",
    "BruteForceResult",
    "FrozenSpec",
    "IsingHamiltonian",
    "anneal_many",
    "brute_force_minimum",
    "connected_components",
    "count_ground_states",
    "decode_spins",
    "energy_table",
    "freeze_qubit",
    "freeze_qubits",
    "frozen_assignments",
    "has_spin_flip_symmetry",
    "ising_to_qubo",
    "landscape_class",
    "landscape_class_key",
    "landscape_frame",
    "qubo_to_ising",
    "simulated_annealing",
    "verify_spin_flip_symmetry",
]
