"""Fused diagonal-cost QAOA statevector kernel.

A p-layer QAOA circuit is ``(RX-mixer . diagonal-cost)^p`` applied to
``|+>^n``, and its whole cost layer is one diagonal unitary:

    U_C(gamma) |z> = exp(-i gamma (C(z) - offset)) |z>

so instead of walking the gate list (one RZ per linear term, one RZZ per
quadratic term — ``O(|terms|)`` tensor multiplies per layer), the kernel
applies each cost layer as a *single* elementwise phase multiply. An Ising
spectrum holds few distinct energies (a few dozen on ±1 couplings), so
:class:`PhaseLevels` keeps them once with a compact ``uint8``/``uint16``
index into them: a cost layer exponentiates each level once and gathers
the ``2**n`` diagonal through the index, bit for bit the full-length
``exp(-1j * gamma * (E - offset))``. The RX mixer is one in-place update
per wire over a stack of states (:func:`_apply_mixer`), and one layer loop
(:func:`_evolve`) serves sampling, parameter batches and the forward pass
of the adjoint gradient. The expectation then reads directly off the
final distribution as ``probs @ spectrum`` — no gate objects, no circuit
binding, no Python per-gate dispatch.

This is the p>=2 training fast path: exact (it agrees with
:func:`repro.sim.statevector.simulate_statevector` on the bound template
to ~1e-15, property-tested) and fed by the memoized level table
(:func:`repro.cache.memo.memoized_phase_levels`, built from the memoized
spectrum), whose trade-off is ``2**n`` index bytes held per Hamiltonian
beside its ``2**n`` spectrum floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import SimulationError
from repro.ising.hamiltonian import IsingHamiltonian
from repro.sim.statevector import MAX_SIM_QUBITS, uniform_superposition


@dataclass(frozen=True, eq=False)
class PhaseLevels:
    """The cost diagonal's distinct phases and a compact index into them.

    ``values[index]`` is the phase spectrum ``E - offset`` bit for bit:
    levels are distinct bit patterns (so ``-0.0`` and ``0.0`` stay apart),
    and ``index`` is the smallest unsigned type that holds
    ``len(values) - 1`` (``uint8`` up to 256 levels, then ``uint16``,
    then ``uint32``).

    Attributes:
        values: Distinct phases, float64, ascending by bit pattern.
        index: Level of each basis state, shape ``(2**n,)``.
    """

    values: np.ndarray
    index: np.ndarray

    @classmethod
    def from_spectrum(cls, spectrum: np.ndarray, offset: float) -> "PhaseLevels":
        """Levels of ``spectrum - offset`` (one ``np.unique`` pass).

        The circuit implements only the h/J phases; the offset is a global
        phase the gate loop never applies, so it is stripped for
        statevector equality with the bound template.
        """
        phases = np.asarray(spectrum, dtype=float) - offset
        bits, index = np.unique(phases.view(np.int64), return_inverse=True)
        return cls(
            values=bits.view(np.float64),
            index=index.astype(np.min_scalar_type(bits.size - 1)),
        )

    def diagonal(self, gamma: float, out: np.ndarray) -> None:
        """Write ``exp(-1j * gamma * phases)`` into ``out``: one ``exp``
        per level, gathered through the index."""
        table = -1j * gamma * self.values
        np.exp(table, out=table)
        # Every index is in range; "wrap" skips the copy of ``out`` that
        # the bounds-checking default mode makes.
        table.take(self.index, out=out, mode="wrap")

    def phases(self, out: np.ndarray) -> None:
        """Write the phase spectrum ``E - offset`` into ``out``."""
        self.values.take(self.index, out=out, mode="wrap")


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


def _phase_levels(
    hamiltonian: IsingHamiltonian, levels: "PhaseLevels | None"
) -> PhaseLevels:
    n = hamiltonian.num_qubits
    if n == 0:
        raise SimulationError("cannot simulate a zero-qubit Hamiltonian")
    if n > MAX_SIM_QUBITS:
        raise SimulationError(
            f"statevector simulation capped at {MAX_SIM_QUBITS} qubits, got {n}"
        )
    if levels is None:
        return PhaseLevels.from_spectrum(
            hamiltonian.energy_landscape(), hamiltonian.offset
        )
    if levels.index.shape != (1 << n,):
        raise SimulationError(
            f"phase levels must index {1 << n} states, got {levels.index.shape}"
        )
    return levels


def _wire_axes(rows: np.ndarray) -> np.ndarray:
    """View ``(S, 2**n)`` rows as ``(S, 2, ..., 2)``: one axis per wire."""
    num_qubits = rows.shape[1].bit_length() - 1  # rows.shape[1] == 2**n
    return rows.reshape(rows.shape[:1] + (2,) * num_qubits)


def _apply_mixer(states: np.ndarray, beta: float, scratch: np.ndarray) -> None:
    """Apply ``U_B(beta) = prod_q RX(2*beta)_q`` to ``(S, 2**n)`` rows in place.

    ``RX(2b) = cos(b) I - i sin(b) X`` per wire, and ``X`` on a length-2
    axis is ``np.flip`` (a view, no copy) — so each wire costs one multiply
    into ``scratch`` (a buffer of the rows' shape) and two in-place
    updates, each over all ``S`` rows at once, with no temporary per wire.
    """
    c = np.cos(beta)
    s = -1j * np.sin(beta)
    tensor = _wire_axes(states)
    flipped = _wire_axes(scratch)
    for axis in range(1, tensor.ndim):
        np.multiply(np.flip(tensor, axis), s, out=flipped)
        tensor *= c
        tensor += flipped


def _evolve(
    state: np.ndarray,
    scratch: np.ndarray,
    levels: PhaseLevels,
    gammas: np.ndarray,
    betas: np.ndarray,
) -> None:
    """Run the p cost/mixer layers on a ``(1, 2**n)`` state row in place.

    ``scratch`` is a buffer of the same shape: each cost layer gathers its
    phase diagonal into it, and the mixer then reuses it.
    """
    for gamma, beta in zip(gammas, betas):
        levels.diagonal(gamma, out=scratch[0])
        state *= scratch
        _apply_mixer(state, beta, scratch)


def qaoa_statevector(
    hamiltonian: IsingHamiltonian,
    gammas: np.ndarray,
    betas: np.ndarray,
    levels: "PhaseLevels | None" = None,
) -> np.ndarray:
    """Final QAOA statevector via fused diagonal cost layers.

    Args:
        hamiltonian: Problem Hamiltonian (defines the cost diagonal).
        gammas: Phase angles, shape ``(p,)``.
        betas: Mixing angles, shape ``(p,)``.
        levels: The spectrum's :class:`PhaseLevels` (memoized elsewhere);
            built from ``hamiltonian.energy_landscape()`` when omitted.
    """
    g, b = _validated_angles(gammas, betas, batched=False)
    levels = _phase_levels(hamiltonian, levels)
    state = uniform_superposition(hamiltonian.num_qubits)
    _evolve(state[None], np.empty((1, state.size), complex), levels, g, b)
    return state


def qaoa_probabilities(
    hamiltonian: IsingHamiltonian,
    gammas: np.ndarray,
    betas: np.ndarray,
    levels: "PhaseLevels | None" = None,
) -> np.ndarray:
    """Outcome distribution of the fused kernel, shape ``(2**n,)``."""
    amplitudes = qaoa_statevector(hamiltonian, gammas, betas, levels=levels)
    return np.abs(amplitudes) ** 2


def qaoa_statevectors_batch(
    hamiltonian: IsingHamiltonian,
    gammas: np.ndarray,
    betas: np.ndarray,
    levels: "PhaseLevels | None" = None,
) -> np.ndarray:
    """Final statevectors of a ``(P, p)`` parameter batch, shape ``(P, 2**n)``.

    Each row evolves in place inside the output under the shared level
    table, by the same layer loop as :func:`qaoa_statevector`, so a row
    equals the single-point call bit for bit and the only blocks held are
    the output and one row of scratch.
    """
    g, b = _validated_angles(gammas, betas, batched=True)
    levels = _phase_levels(hamiltonian, levels)
    out = uniform_superposition(hamiltonian.num_qubits, batch=g.shape[0])
    scratch = np.empty((1, out.shape[1]), complex)
    for row, (row_gammas, row_betas) in enumerate(zip(g, b)):
        _evolve(out[row : row + 1], scratch, levels, row_gammas, row_betas)
    return out


def qaoa_probabilities_batch(
    hamiltonian: IsingHamiltonian,
    gammas: np.ndarray,
    betas: np.ndarray,
    levels: "PhaseLevels | None" = None,
) -> np.ndarray:
    """Outcome distributions of a parameter batch, shape ``(P, 2**n)``."""
    amplitudes = qaoa_statevectors_batch(hamiltonian, gammas, betas, levels=levels)
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
    if table.shape != (1 << hamiltonian.num_qubits,):
        raise SimulationError(
            f"spectrum must have length {1 << hamiltonian.num_qubits}, "
            f"got {table.shape}"
        )
    levels = PhaseLevels.from_spectrum(table, hamiltonian.offset)
    probs = qaoa_probabilities_batch(hamiltonian, gammas, betas, levels=levels)
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
    observable: "np.ndarray | None" = None,
    levels: "PhaseLevels | None" = None,
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
    loop sampling runs (:func:`_evolve`). The reverse pass holds ``psi``
    and ``lambda`` as one stacked ``(2, 2**n)`` array, so each mixer is
    un-applied from both by one run of the in-place :func:`_apply_mixer`,
    and each cost layer above the first by one multiply with the conjugate
    of its level table's ``exp`` (the first layer's un-apply is never
    read). The arithmetic per amplitude is that of un-applying each state
    on its own, so the bits do not depend on the stacking.

    Memory: nothing is kept per layer, so the call peaks at
    ``4.5 * 16 * 2**n`` bytes beyond its inputs at every p (the stacked
    pair, its stacked scratch buffer, and the ``intp`` copy of the level
    index one gather makes), plus the per-level ``exp`` table, which is
    negligible on a few-level spectrum and one more vector when every
    state has its own energy (measured with ``tracemalloc`` at
    n = 16-22, p = 1-4: 4.500-4.511 on ±1 couplings, 5.500-5.509 with
    normal fields and couplings). At the 24-qubit cap 4.5 vectors are
    1.1 GiB.

    Args:
        hamiltonian: Problem Hamiltonian (defines the cost diagonal).
        gammas: Phase angles, shape ``(p,)``.
        betas: Mixing angles, shape ``(p,)``.
        observable: Diagonal observable ``D`` the objective contracts
            against, shape ``(2**n,)``. Defaults to the energy spectrum
            (the ideal objective). The noisy training objective passes
            ``offset + sign_matrix @ weights`` — noise folded into per-term
            combination weights exactly as the evaluation path does.
        levels: The spectrum's :class:`PhaseLevels` (memoized elsewhere);
            built from ``hamiltonian.energy_landscape()`` when omitted.

    Returns:
        ``(value, grad_gammas, grad_betas)`` with gradients of shape
        ``(p,)`` each.
    """
    g, b = _validated_angles(gammas, betas, batched=False)
    levels = _phase_levels(hamiltonian, levels)
    n = hamiltonian.num_qubits
    size = 1 << n
    observable = np.asarray(
        hamiltonian.energy_landscape() if observable is None else observable,
        dtype=float,
    )
    if observable.shape != (size,):
        raise SimulationError(
            f"observable must have length {size}, got {observable.shape}"
        )
    p = g.shape[0]
    pair = np.empty((2, size), complex)
    scratch = np.empty_like(pair)
    state, adjoint = pair
    state.fill(1.0 / np.sqrt(size))  # |+>^n, as uniform_superposition
    _evolve(pair[:1], scratch[:1], levels, g, b)
    np.multiply(observable, state, out=adjoint)
    value = float(np.real(np.vdot(state, adjoint)))
    state_tensor = state.reshape((2,) * n)
    flips = scratch[0].reshape((2,) * n)
    # The phase spectrum, read as real numbers from the second scratch row
    # (each layer rewrites it after the mixer has used that row).
    phases = scratch[1].view(np.float64)[:size]
    grad_g = np.empty(p)
    grad_b = np.empty(p)
    for layer in range(p - 1, -1, -1):
        # Mixer derivative at the post-mixer point, then un-apply RX(-2b)
        # from both states (the inverse mixer flips the sine's sign).
        grad_b[layer] = 2.0 * float(
            np.imag(np.vdot(adjoint, _sum_bit_flips(state_tensor, flips)))
        )
        _apply_mixer(pair, -b[layer], scratch)
        # Cost derivative at the post-cost point (the phase diagonal
        # commutes with its own generator), then un-apply the phases for
        # the next layer down: the conjugate of the level table's exp is
        # exp(+i gamma phases) to the bit.
        levels.phases(out=phases)
        np.multiply(phases, state, out=scratch[0])
        grad_g[layer] = 2.0 * float(np.imag(np.vdot(adjoint, scratch[0])))
        if layer == 0:
            break
        levels.diagonal(g[layer], out=scratch[0])
        np.conjugate(scratch[0], out=scratch[0])
        pair *= scratch[0]
    return value, grad_g, grad_b
