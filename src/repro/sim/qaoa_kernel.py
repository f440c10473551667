"""Fused diagonal-cost QAOA statevector kernel.

A p-layer QAOA circuit is ``(RX-mixer . diagonal-cost)^p`` applied to
``|+>^n``, and its whole cost layer is one diagonal unitary:

    U_C(gamma) |z> = exp(-i gamma (C(z) - offset)) |z>

so instead of walking the gate list (one RZ per linear term, one RZZ per
quadratic term — ``O(|terms|)`` tensor multiplies per layer), precompute
the ``2**n`` energy spectrum once per Hamiltonian and apply each cost
layer as a *single* elementwise phase multiply. The RX mixer keeps its
per-qubit tensor contraction (the same 2x2 matrix on every wire). The
expectation then reads directly off the final distribution as
``probs @ spectrum`` — no gate objects, no circuit binding, no Python
per-gate dispatch.

This is the p>=2 training fast path: exact (it agrees with
:func:`repro.sim.statevector.simulate_statevector` on the bound template
to ~1e-15, property-tested), memory-bounded by chunking batches, and fed
by the memoized spectrum (:meth:`IsingHamiltonian.energy_landscape`),
whose trade-off is 2**n floats held per Hamiltonian.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SimulationError
from repro.ising.hamiltonian import IsingHamiltonian
from repro.sim.batched import _apply_single_batched
from repro.sim.statevector import (
    MAX_SIM_QUBITS,
    _apply_single,
    uniform_superposition,
)

#: Soft cap on (batch chunk) x 2**n complex amplitudes held at once.
BATCH_CHUNK_AMPLITUDES = 1 << 23


def _validated_angles(
    gammas: np.ndarray, betas: np.ndarray, batched: bool
) -> tuple[np.ndarray, np.ndarray]:
    expected = 2 if batched else 1
    g = np.atleast_1d(np.asarray(gammas, dtype=float))
    b = np.atleast_1d(np.asarray(betas, dtype=float))
    if batched and g.ndim == 1:
        g = g[:, None]
        b = b[:, None] if b.ndim == 1 else b
    if g.ndim != expected or g.shape != b.shape or g.shape[-1] < 1:
        raise SimulationError(
            f"gammas/betas must be matching {'(P, p)' if batched else '(p,)'} "
            f"arrays with p >= 1, got shapes {g.shape}/{b.shape}"
        )
    return g, b


def _phase_spectrum(
    hamiltonian: IsingHamiltonian, spectrum: "np.ndarray | None"
) -> np.ndarray:
    n = hamiltonian.num_qubits
    if n == 0:
        raise SimulationError("cannot simulate a zero-qubit Hamiltonian")
    if n > MAX_SIM_QUBITS:
        raise SimulationError(
            f"statevector simulation capped at {MAX_SIM_QUBITS} qubits, got {n}"
        )
    table = np.asarray(
        spectrum if spectrum is not None else hamiltonian.energy_landscape(),
        dtype=float,
    )
    if table.shape != (1 << n,):
        raise SimulationError(
            f"spectrum must have length {1 << n}, got {table.shape}"
        )
    # The circuit implements only the h/J phases; the offset is a global
    # phase the gate loop never applies, so strip it for statevector
    # equality with the bound template.
    return table - hamiltonian.offset


def _mixer_matrix(beta: float) -> np.ndarray:
    # RX(2*beta) per wire: [[cos b, -i sin b], [-i sin b, cos b]].
    c = np.cos(beta)
    s = -1j * np.sin(beta)
    return np.array([[c, s], [s, c]], dtype=complex)


def qaoa_statevector(
    hamiltonian: IsingHamiltonian,
    gammas: np.ndarray,
    betas: np.ndarray,
    spectrum: "np.ndarray | None" = None,
) -> np.ndarray:
    """Final QAOA statevector via fused diagonal cost layers.

    Args:
        hamiltonian: Problem Hamiltonian (defines the cost diagonal).
        gammas: Phase angles, shape ``(p,)``.
        betas: Mixing angles, shape ``(p,)``.
        spectrum: Precomputed ``hamiltonian.energy_landscape()`` (memoized
            elsewhere); derived here when omitted.
    """
    g, b = _validated_angles(gammas, betas, batched=False)
    phases = _phase_spectrum(hamiltonian, spectrum)
    n = hamiltonian.num_qubits
    state = uniform_superposition(n)
    for layer in range(g.shape[0]):
        state *= np.exp(-1j * g[layer] * phases)
        tensor = state.reshape((2,) * n)
        matrix = _mixer_matrix(b[layer])
        for qubit in range(n):
            tensor = _apply_single(tensor, matrix, n - 1 - qubit)
        state = tensor.reshape(-1)
    return state


def qaoa_probabilities(
    hamiltonian: IsingHamiltonian,
    gammas: np.ndarray,
    betas: np.ndarray,
    spectrum: "np.ndarray | None" = None,
) -> np.ndarray:
    """Outcome distribution of the fused kernel, shape ``(2**n,)``."""
    amplitudes = qaoa_statevector(hamiltonian, gammas, betas, spectrum=spectrum)
    return np.abs(amplitudes) ** 2


def qaoa_statevectors_batch(
    hamiltonian: IsingHamiltonian,
    gammas: np.ndarray,
    betas: np.ndarray,
    spectrum: "np.ndarray | None" = None,
) -> np.ndarray:
    """Final statevectors of a ``(P, p)`` parameter batch, shape ``(P, 2**n)``.

    One fused pass serves the whole batch: the cost layer is a broadcast
    phase multiply, the mixer a stacked ``(chunk, 2, 2)`` contraction per
    qubit. Chunked so the live amplitude block stays under
    ``BATCH_CHUNK_AMPLITUDES`` regardless of batch size.
    """
    g, b = _validated_angles(gammas, betas, batched=True)
    phases = _phase_spectrum(hamiltonian, spectrum)
    n = hamiltonian.num_qubits
    size = 1 << n
    points = g.shape[0]
    out = np.empty((points, size), dtype=complex)
    chunk = max(1, BATCH_CHUNK_AMPLITUDES // size)
    for start in range(0, points, chunk):
        stop = min(start + chunk, points)
        out[start:stop] = _batch_chunk(g[start:stop], b[start:stop], phases, n)
    return out


def _batch_chunk(
    g: np.ndarray, b: np.ndarray, phases: np.ndarray, n: int
) -> np.ndarray:
    # One chunk of a parameter batch: every row evolves under the same
    # spectrum ``phases`` (2**n,), broadcast across the batch axis.
    batch = g.shape[0]
    state = uniform_superposition(n, batch=batch)
    for layer in range(g.shape[1]):
        state *= np.exp(-1j * g[:, layer, None] * phases)
        tensor = state.reshape((batch,) + (2,) * n)
        c = np.cos(b[:, layer])
        s = -1j * np.sin(b[:, layer])
        matrices = np.empty((batch, 2, 2), dtype=complex)
        matrices[:, 0, 0] = c
        matrices[:, 0, 1] = s
        matrices[:, 1, 0] = s
        matrices[:, 1, 1] = c
        for qubit in range(n):
            tensor = _apply_single_batched(tensor, matrices, n - 1 - qubit)
        state = tensor.reshape(batch, -1)
    return state


def qaoa_probabilities_batch(
    hamiltonian: IsingHamiltonian,
    gammas: np.ndarray,
    betas: np.ndarray,
    spectrum: "np.ndarray | None" = None,
) -> np.ndarray:
    """Outcome distributions of a parameter batch, shape ``(P, 2**n)``."""
    amplitudes = qaoa_statevectors_batch(
        hamiltonian, gammas, betas, spectrum=spectrum
    )
    return np.abs(amplitudes) ** 2


def qaoa_expectations_batch(
    hamiltonian: IsingHamiltonian,
    gammas: np.ndarray,
    betas: np.ndarray,
    spectrum: "np.ndarray | None" = None,
) -> np.ndarray:
    """Ideal expectation values of a ``(P, p)`` batch: ``probs @ spectrum``."""
    table = np.asarray(
        spectrum if spectrum is not None else hamiltonian.energy_landscape(),
        dtype=float,
    )
    probs = qaoa_probabilities_batch(hamiltonian, gammas, betas, spectrum=table)
    return probs @ table


def _sum_bit_flips(tensor: np.ndarray, n: int) -> np.ndarray:
    """Apply the mixer generator ``B = sum_q X_q`` to a state tensor.

    ``X_q`` swaps the two slices of axis ``q``, which on a length-2 axis is
    exactly ``np.flip`` — so ``B |psi>`` is the sum of one flip per wire.
    """
    out = np.zeros_like(tensor)
    for axis in range(n):
        out += np.flip(tensor, axis=axis)
    return out


def _apply_mixer_flips(tensor: np.ndarray, n: int, beta: float) -> np.ndarray:
    """Apply ``U_B(beta) = prod_q RX(2*beta)_q`` to a state tensor.

    ``RX(2b) = cos(b) I - i sin(b) X`` per wire, and ``X`` on a length-2
    axis is ``np.flip`` (a view, no copy) — so each wire costs one fused
    elementwise update instead of the axis-permuting 2x2 contraction of
    ``_apply_single``. This keeps the adjoint pass within a small constant
    of one forward evolution, which is what the training-engine wall-clock
    gate rests on.
    """
    c = np.cos(beta)
    s = -1j * np.sin(beta)
    for axis in range(n):
        tensor = c * tensor + s * np.flip(tensor, axis=axis)
    return tensor


def qaoa_value_and_grad(
    hamiltonian: IsingHamiltonian,
    gammas: np.ndarray,
    betas: np.ndarray,
    spectrum: "np.ndarray | None" = None,
    observable: "np.ndarray | None" = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Objective and its exact gradient from one forward + one reverse pass.

    Adjoint-mode backprop through the alternating diagonal-phase / X-mixer
    layers: run the circuit forward once to the final state ``|psi>``, form
    the adjoint ``|lambda> = D |psi>`` for the diagonal observable ``D``,
    then walk the layers backwards, *un-applying* each gate from both
    states and reading the parameter derivatives off inner products:

        dF/dbeta_l  = 2 Im <lambda| B |psi>   (B = sum_q X_q, after mixer l)
        dF/dgamma_l = 2 Im <lambda| E o psi>  (E = phase diagonal, after
                                               cost layer l)

    Total cost is two statevector evolutions — ``O(p * n * 2**n)`` for the
    objective *and* all ``2p`` derivatives, versus one full evolution per
    parameter per finite-difference probe.

    Args:
        hamiltonian: Problem Hamiltonian (defines the cost diagonal).
        gammas: Phase angles, shape ``(p,)``.
        betas: Mixing angles, shape ``(p,)``.
        spectrum: Precomputed ``hamiltonian.energy_landscape()`` (memoized
            elsewhere); derived here when omitted.
        observable: Diagonal observable ``D`` the objective contracts
            against, shape ``(2**n,)``. Defaults to the energy spectrum
            (the ideal objective). The noisy training objective passes
            ``offset + sign_matrix @ weights`` — noise folded into per-term
            combination weights exactly as the evaluation path does.

    Returns:
        ``(value, grad_gammas, grad_betas)`` with gradients of shape
        ``(p,)`` each.
    """
    g, b = _validated_angles(gammas, betas, batched=False)
    phases = _phase_spectrum(hamiltonian, spectrum)
    n = hamiltonian.num_qubits
    if observable is None:
        observable = np.asarray(
            spectrum if spectrum is not None else hamiltonian.energy_landscape(),
            dtype=float,
        )
    else:
        observable = np.asarray(observable, dtype=float)
    if observable.shape != (1 << n,):
        raise SimulationError(
            f"observable must have length {1 << n}, got {observable.shape}"
        )
    p = g.shape[0]
    shape = (2,) * n
    # Forward pass with the flip-based mixer (same circuit as
    # ``qaoa_statevector``, cheaper per wire).
    state = uniform_superposition(n)
    for layer in range(p):
        state *= np.exp(-1j * g[layer] * phases)
        state = _apply_mixer_flips(state.reshape(shape), n, b[layer]).reshape(-1)
    adjoint = observable * state
    value = float(np.real(np.vdot(state, adjoint)))
    grad_g = np.empty(p)
    grad_b = np.empty(p)
    for layer in range(p - 1, -1, -1):
        # Mixer derivative at the post-mixer point, then un-apply RX(-2b)
        # from both states (the inverse mixer flips the sine's sign).
        state_tensor = state.reshape(shape)
        grad_b[layer] = 2.0 * float(
            np.imag(np.vdot(adjoint, _sum_bit_flips(state_tensor, n).reshape(-1)))
        )
        state = _apply_mixer_flips(state_tensor, n, -b[layer]).reshape(-1)
        adjoint = _apply_mixer_flips(
            adjoint.reshape(shape), n, -b[layer]
        ).reshape(-1)
        # Cost derivative at the post-cost point (the phase diagonal
        # commutes with its own generator), then un-apply the phases.
        grad_g[layer] = 2.0 * float(np.imag(np.vdot(adjoint, phases * state)))
        unphase = np.exp(1j * g[layer] * phases)
        state *= unphase
        adjoint *= unphase
    return value, grad_g, grad_b
