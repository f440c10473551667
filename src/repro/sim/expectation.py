"""Ising expectation values from simulation output.

Both the dense path (probability vector over all ``2**n`` outcomes) and the
sparse path (sampled :class:`Counts`), plus per-term expectations
``<Z_i>`` / ``<Z_i Z_j>`` which the depolarizing noise model attenuates
term-by-term. :func:`combine_term_expectations` is the single place where
per-term expectations are folded back into an energy — the ideal and noisy
evaluation paths, the p=1 closed form, and the fused statevector kernel all
route through it (ideal = fidelity 1, no readout).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SimulationError
from repro.ising.hamiltonian import IsingHamiltonian
from repro.sim.sampling import Counts


def combine_term_expectations(
    hamiltonian: IsingHamiltonian,
    z_values: dict[int, float],
    zz_values: dict[tuple[int, int], float],
    fidelity: float = 1.0,
    readout: "dict[int, float] | None" = None,
) -> float:
    """Fold per-term expectations into one energy, attenuating for noise.

    ``EV = offset + sum_i h_i F r_i <Z_i> + sum_ij J_ij F r_i r_j <ZZ_ij>``
    with ``F`` the global-depolarizing circuit fidelity and ``r_q`` the
    per-qubit readout/decoherence attenuation (both default to the ideal
    1.0). This is the one shared assembly of the Ising expectation; every
    evaluation path delegates here so the combination convention cannot
    drift between them.

    Args:
        hamiltonian: The observable.
        z_values: ``<Z_i>`` for every qubit with non-zero ``h_i``.
        zz_values: ``<Z_i Z_j>`` for every quadratic term.
        fidelity: Circuit success probability F in [0, 1].
        readout: Per-qubit attenuation factors (default: none).

    Raises:
        SimulationError: On missing term expectations or bad fidelity.
    """
    if not 0.0 <= fidelity <= 1.0:
        raise SimulationError(f"fidelity must be in [0, 1], got {fidelity}")
    factors = readout or {}

    def factor(qubit: int) -> float:
        return factors.get(qubit, 1.0)

    value = hamiltonian.offset
    for qubit, coefficient in enumerate(hamiltonian.linear):
        if coefficient == 0.0:
            continue
        if qubit not in z_values:
            raise SimulationError(f"missing ideal <Z_{qubit}>")
        value += coefficient * fidelity * factor(qubit) * z_values[qubit]
    for pair, coefficient in hamiltonian.quadratic.items():
        if pair not in zz_values:
            raise SimulationError(f"missing ideal <Z Z> for pair {pair}")
        i, j = pair
        value += coefficient * fidelity * factor(i) * factor(j) * zz_values[pair]
    return float(value)


def expectation_from_probabilities(
    hamiltonian: IsingHamiltonian, probs: np.ndarray
) -> float:
    """Exact expectation ``sum_b p_b C(b)`` over the full outcome space."""
    p = np.asarray(probs, dtype=float)
    expected_size = 1 << hamiltonian.num_qubits
    if p.shape != (expected_size,):
        raise SimulationError(
            f"probability vector must have length {expected_size}, got {p.shape}"
        )
    landscape = hamiltonian.energy_landscape()
    return float(p @ landscape)


def expectation_from_counts(hamiltonian: IsingHamiltonian, counts: Counts) -> float:
    """Empirical expectation from sampled outcomes."""
    if counts.num_qubits != hamiltonian.num_qubits:
        raise SimulationError(
            f"counts are over {counts.num_qubits} qubits, Hamiltonian over "
            f"{hamiltonian.num_qubits}"
        )
    total = counts.total_shots
    if total == 0:
        raise SimulationError("counts are empty")
    values = hamiltonian.evaluate_many(counts.spins_matrix())
    return float(counts.counts_array() @ values / total)


def term_sign_matrix(
    hamiltonian: IsingHamiltonian,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin-sign columns of every Hamiltonian term over the outcome space.

    Column ``t`` of the returned ``(2**n, T)`` matrix holds the ±1 value of
    term ``t`` (a single spin ``z_i`` or a product ``z_i z_j``) on every
    basis state, ordered linear terms first; ``probs @ matrix`` is then the
    whole per-term expectation vector in one contraction. Build it once per
    Hamiltonian and reuse it across the training hot loop — the cost is
    ``O(2**n * T)`` floats, which is why callers cache it.

    Returns:
        ``(matrix, z_qubits, pairs)``: the sign matrix plus the qubit
        indices of its linear columns and the index pairs of its quadratic
        columns.
    """
    n = hamiltonian.num_qubits
    indices = np.arange(1 << n, dtype=np.uint32)
    h = hamiltonian.linear
    z_qubits = np.asarray([q for q in range(n) if h[q] != 0.0], dtype=np.intp)
    pairs = np.asarray(
        list(hamiltonian.quadratic.keys()), dtype=np.intp
    ).reshape(hamiltonian.num_terms, 2)

    def spins_of(qubit: int) -> np.ndarray:
        bits = (indices >> np.uint32(qubit)) & 1
        return 1.0 - 2.0 * bits.astype(float)

    columns = [spins_of(int(q)) for q in z_qubits]
    columns.extend(spins_of(int(i)) * spins_of(int(j)) for i, j in pairs)
    matrix = (
        np.stack(columns, axis=1)
        if columns
        else np.zeros((1 << n, 0))
    )
    return matrix, z_qubits, pairs


def term_expectations_from_probabilities(
    hamiltonian: IsingHamiltonian, probs: np.ndarray
) -> tuple[dict[int, float], dict[tuple[int, int], float]]:
    """Per-term ``<Z_i>`` and ``<Z_i Z_j>`` under an outcome distribution.

    Only terms present in the Hamiltonian (non-zero h or J) are returned;
    that is all the noise model needs. Columns are built one spin at a
    time (peak memory ``O(n * 2**n)``, not ``O(T * 2**n)``) — hot-loop
    callers that want the full matrix contraction cache
    :func:`term_sign_matrix` instead.
    """
    n = hamiltonian.num_qubits
    p = np.asarray(probs, dtype=float)
    if p.shape != (1 << n,):
        raise SimulationError(
            f"probability vector must have length {1 << n}, got {p.shape}"
        )
    indices = np.arange(1 << n, dtype=np.uint32)
    spin_columns: dict[int, np.ndarray] = {}

    def spins_of(qubit: int) -> np.ndarray:
        if qubit not in spin_columns:
            bits = (indices >> np.uint32(qubit)) & 1
            spin_columns[qubit] = 1.0 - 2.0 * bits.astype(float)
        return spin_columns[qubit]

    z_values: dict[int, float] = {}
    for qubit, coefficient in enumerate(hamiltonian.linear):
        if coefficient != 0.0:
            z_values[qubit] = float(p @ spins_of(qubit))
    zz_values: dict[tuple[int, int], float] = {}
    for (i, j) in hamiltonian.quadratic:
        zz_values[(i, j)] = float(p @ (spins_of(i) * spins_of(j)))
    return z_values, zz_values
