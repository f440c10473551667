"""Dense statevector simulation.

State layout: amplitude ``psi[b]`` belongs to basis state whose bit ``i``
(LSB-first) is the value of qubit ``i`` — consistent with
:mod:`repro.utils.bitstrings`. Gates are applied by reshaping the state into
a rank-n tensor where qubit ``q`` lives on axis ``n - 1 - q`` (C-order) and
contracting the gate matrix over the relevant axes.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import DIAGONAL_GATES
from repro.exceptions import SimulationError

#: Hard cap to keep memory below ~1 GiB of complex128 amplitudes.
MAX_SIM_QUBITS = 24


def _apply_single(state: np.ndarray, matrix: np.ndarray, axis: int) -> np.ndarray:
    moved = np.moveaxis(state, axis, 0)
    shaped = moved.reshape(2, -1)
    result = matrix @ shaped
    return np.moveaxis(result.reshape(moved.shape), 0, axis)


def _apply_double(
    state: np.ndarray, matrix: np.ndarray, axis_a: int, axis_b: int
) -> np.ndarray:
    moved = np.moveaxis(state, (axis_a, axis_b), (0, 1))
    shaped = moved.reshape(4, -1)
    result = matrix @ shaped
    return np.moveaxis(result.reshape(moved.shape), (0, 1), (axis_a, axis_b))


def diagonal_broadcast(
    diag: np.ndarray, ndim: int, axis_a: int, axis_b: "int | None" = None
) -> np.ndarray:
    """Reshape a gate diagonal so ``tensor *= ...`` applies it in place.

    Diagonal gates (RZ, RZZ, CZ, ...) need no matmul: multiplying the state
    tensor by the broadcast diagonal is exact and copy-free.

    Args:
        diag: Length-2 (or 4) gate diagonal.
        ndim: Rank of the target state tensor.
        axis_a: Tensor axis of the gate's first qubit.
        axis_b: Tensor axis of the second qubit (two-qubit diagonals only).
    """
    shape = [1] * ndim
    shape[axis_a] = 2
    if axis_b is None:
        return diag.reshape(shape)
    # Two-qubit diagonal d[2i + j]: i belongs on axis_a, j on axis_b. A
    # plain reshape puts the C-order-outer bit on the earlier axis, so
    # transpose first when axis_b comes earlier.
    shape[axis_b] = 2
    pair = diag.reshape(2, 2)
    if axis_a > axis_b:
        pair = pair.T
    return pair.reshape(shape)


def uniform_superposition(
    num_qubits: int, batch: "int | None" = None
) -> np.ndarray:
    """The ``|+>^n`` state a QAOA circuit's Hadamard wall prepares.

    Args:
        num_qubits: Qubit count n.
        batch: When given, a stacked ``(batch, 2**n)`` copy per batch item.
    """
    size = 1 << num_qubits
    amplitude = 1.0 / np.sqrt(size)
    shape = (size,) if batch is None else (batch, size)
    return np.full(shape, amplitude, dtype=complex)


def simulate_statevector(
    circuit: QuantumCircuit,
    initial_state: "np.ndarray | None" = None,
) -> np.ndarray:
    """Run a circuit and return the final statevector of length ``2**n``.

    Measures and barriers are ignored (measurement happens at sampling).

    Args:
        circuit: A fully bound circuit (no symbolic angles).
        initial_state: Optional start state; defaults to ``|0...0>``.

    Raises:
        SimulationError: On symbolic angles or oversized circuits.
    """
    n = circuit.num_qubits
    if n > MAX_SIM_QUBITS:
        raise SimulationError(
            f"statevector simulation capped at {MAX_SIM_QUBITS} qubits, got {n}"
        )
    if circuit.is_parametric:
        raise SimulationError("cannot simulate a circuit with unbound parameters")
    if initial_state is None:
        state = np.zeros(1 << n, dtype=complex)
        state[0] = 1.0
    else:
        state = np.asarray(initial_state, dtype=complex).copy()
        if state.shape != (1 << n,):
            raise SimulationError(
                f"initial state must have length {1 << n}, got {state.shape}"
            )
    tensor = state.reshape((2,) * n) if n else state
    for instruction in circuit:
        if instruction.name in ("barrier", "measure"):
            continue
        matrix = instruction.matrix()
        if len(instruction.qubits) == 1:
            axis = n - 1 - instruction.qubits[0]
            if instruction.name in DIAGONAL_GATES:
                tensor *= diagonal_broadcast(matrix.diagonal(), n, axis)
            else:
                tensor = _apply_single(tensor, matrix, axis)
        else:
            qa, qb = instruction.qubits
            if instruction.name in DIAGONAL_GATES:
                tensor *= diagonal_broadcast(
                    matrix.diagonal(), n, n - 1 - qa, n - 1 - qb
                )
            else:
                tensor = _apply_double(tensor, matrix, n - 1 - qa, n - 1 - qb)
    return tensor.reshape(-1)


def probabilities(circuit: QuantumCircuit) -> np.ndarray:
    """Measurement probabilities ``|psi|^2`` of the final state."""
    amplitudes = simulate_statevector(circuit)
    return np.abs(amplitudes) ** 2
