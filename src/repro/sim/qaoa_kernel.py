"""Fused diagonal-cost QAOA statevector kernel.

A p-layer QAOA circuit is ``(RX-mixer . diagonal-cost)^p`` applied to
``|+>^n``, and its whole cost layer is one diagonal unitary:

    U_C(gamma) |z> = exp(-i gamma (C(z) - offset)) |z>

so instead of walking the gate list (one RZ per linear term, one RZZ per
quadratic term — ``O(|terms|)`` tensor multiplies per layer), precompute
the ``2**n`` energy spectrum once per Hamiltonian and apply each cost
layer as a *single* elementwise phase multiply. The RX mixer is one
in-place update per wire (:func:`_apply_mixer`), and one layer loop
(:func:`_evolve`) serves sampling, parameter batches and the forward pass
of the adjoint gradient. The expectation then reads directly off the
final distribution as ``probs @ spectrum`` — no gate objects, no circuit
binding, no Python per-gate dispatch.

This is the p>=2 training fast path: exact (it agrees with
:func:`repro.sim.statevector.simulate_statevector` on the bound template
to ~1e-15, property-tested) and fed by the memoized spectrum
(:meth:`IsingHamiltonian.energy_landscape`), whose trade-off is 2**n
floats held per Hamiltonian.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SimulationError
from repro.ising.hamiltonian import IsingHamiltonian
from repro.sim.statevector import MAX_SIM_QUBITS, uniform_superposition


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


def _apply_mixer(tensor: np.ndarray, beta: float, scratch: np.ndarray) -> None:
    """Apply ``U_B(beta) = prod_q RX(2*beta)_q`` to a state tensor in place.

    ``RX(2b) = cos(b) I - i sin(b) X`` per wire, and ``X`` on a length-2
    axis is ``np.flip`` (a view, no copy) — so each wire costs one multiply
    into ``scratch`` (a buffer of the tensor's shape) and two in-place
    updates, with no temporary per wire.
    """
    c = np.cos(beta)
    s = -1j * np.sin(beta)
    for axis in range(tensor.ndim):
        np.multiply(np.flip(tensor, axis), s, out=scratch)
        tensor *= c
        tensor += scratch


def _evolve(
    state: np.ndarray,
    phases: np.ndarray,
    gammas: np.ndarray,
    betas: np.ndarray,
    applied: "list[np.ndarray] | None" = None,
) -> None:
    """Run the p cost/mixer layers on a ``(2**n,)`` statevector in place.

    ``applied``, when given, receives each layer's phase diagonal
    ``exp(-i gamma phases)``, so the adjoint can un-apply the layers
    without recomputing the ``exp``.
    """
    num_qubits = state.size.bit_length() - 1  # state.size == 2**n
    tensor = state.reshape((2,) * num_qubits)
    scratch = np.empty_like(tensor)
    for gamma, beta in zip(gammas, betas):
        diagonal = -1j * gamma * phases
        np.exp(diagonal, out=diagonal)
        state *= diagonal
        if applied is not None:
            applied.append(diagonal)
        _apply_mixer(tensor, beta, scratch)


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
    state = uniform_superposition(hamiltonian.num_qubits)
    _evolve(state, phases, g, b)
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

    Each row evolves in place inside the output under the shared phase
    spectrum, by the same layer loop as :func:`qaoa_statevector`, so a row
    equals the single-point call bit for bit and the only block held is
    the output itself.
    """
    g, b = _validated_angles(gammas, betas, batched=True)
    phases = _phase_spectrum(hamiltonian, spectrum)
    out = uniform_superposition(hamiltonian.num_qubits, batch=g.shape[0])
    for row, row_gammas, row_betas in zip(out, g, b):
        _evolve(row, phases, row_gammas, row_betas)
    return out


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


def _sum_bit_flips(tensor: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the mixer generator ``B = sum_q X_q`` applied to a state tensor.

    ``X_q`` swaps the two slices of axis ``q``, which on a length-2 axis is
    exactly ``np.flip`` — so ``B |psi>`` is the sum of one flip per wire,
    accumulated into ``out`` (a buffer of the tensor's shape).
    """
    out.fill(0)
    for axis in range(tensor.ndim):
        out += np.flip(tensor, axis=axis)
    return out


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
    parameter per finite-difference probe. The forward pass is the layer
    loop sampling runs (:func:`_evolve`), keeping its p phase diagonals;
    the reverse pass un-applies each mixer with the same in-place
    :func:`_apply_mixer` and each cost layer with the conjugate of its
    kept diagonal, and both states share one scratch buffer.

    Memory: the p kept diagonals are ``2**n`` complex amplitudes each, so
    the call peaks at ``(p + 3.5) * 16 * 2**n`` bytes beyond its inputs
    (two states, the scratch buffer, the real phases and the diagonals;
    measured with ``tracemalloc`` at n = 16-22, p = 1-4). At the 24-qubit
    cap that is 1.1 GiB at p = 1 and 256 MiB more per further layer. Each
    diagonal is released once the reverse pass has un-applied it.

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
    state = uniform_superposition(n)
    diagonals: list[np.ndarray] = []
    _evolve(state, phases, g, b, applied=diagonals)
    adjoint = observable * state
    value = float(np.real(np.vdot(state, adjoint)))
    state_tensor = state.reshape((2,) * n)
    adjoint_tensor = adjoint.reshape((2,) * n)
    scratch = np.empty_like(state_tensor)
    flat_scratch = scratch.reshape(-1)
    grad_g = np.empty(p)
    grad_b = np.empty(p)
    for layer in range(p - 1, -1, -1):
        # Mixer derivative at the post-mixer point, then un-apply RX(-2b)
        # from both states (the inverse mixer flips the sine's sign).
        grad_b[layer] = 2.0 * float(
            np.imag(np.vdot(adjoint, _sum_bit_flips(state_tensor, scratch)))
        )
        _apply_mixer(state_tensor, -b[layer], scratch)
        _apply_mixer(adjoint_tensor, -b[layer], scratch)
        # Cost derivative at the post-cost point (the phase diagonal
        # commutes with its own generator), then un-apply the phases: the
        # conjugate of the forward diagonal is exp(+i gamma phases) to the
        # bit, with no second exp.
        np.multiply(phases, state, out=flat_scratch)
        grad_g[layer] = 2.0 * float(np.imag(np.vdot(adjoint, flat_scratch)))
        unphase = diagonals.pop()  # this layer's; freed once applied
        np.conjugate(unphase, out=unphase)
        state *= unphase
        adjoint *= unphase
    return value, grad_g, grad_b
