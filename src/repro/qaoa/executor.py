"""Expectation-value evaluation contexts: the bridge from parameters to EV.

A :class:`EvaluationContext` fixes everything except (gammas, betas): the
Hamiltonian, layer count, and — when a device is supplied — the compiled
circuit's fidelity and readout attenuation under the global-depolarizing
model. The optimizer then treats ``evaluate_noisy(ctx, g, b)`` as its black
box, exactly like the classical outer loop of the paper trains against
hardware expectation values.

One engine serves the training hot path: at p=1 the batched analytic
closed form evaluates whole ``(gamma, beta)`` point batches over
precomputed sparse term structures; at p>=2 the fused diagonal statevector
kernel applies each cost layer as one elementwise phase multiply through
the memoized level table of the energy spectrum (bounded by the
simulator's qubit cap). Both feed :func:`evaluate_batch`, the objective the optimizer's grid seeds,
warm-start acceptance tests and landscape scans consume in one kernel call
per batch, and :func:`value_and_grad_objective`, its exact-gradient twin
for L-BFGS-B refinement. The gate-level statevector
(:func:`repro.sim.statevector.probabilities` of a bound template),
:func:`repro.qaoa.analytic.qaoa1_term_expectations` and
:func:`repro.sim.depolarizing.noisy_expectation` are the independent
references the tests hold this engine to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.cache.memo import memoized_phase_levels, memoized_spectrum
from repro.exceptions import QAOAError
from repro.ising.hamiltonian import IsingHamiltonian
from repro.qaoa.analytic import QAOA1Structure
from repro.qaoa.circuits import build_qaoa_template
from repro.sim.depolarizing import (
    circuit_fidelity,
    decoherence_factors,
    readout_factors,
)
from repro.sim.expectation import term_sign_matrix
from repro.sim.noise import NoiseModel, noise_model_for_transpiled
from repro.sim.qaoa_kernel import (
    PhaseLevels,
    qaoa_probabilities_batch,
    qaoa_value_and_grad,
)
from repro.sim.statevector import MAX_SIM_QUBITS
from repro.transpile.compiler import TranspileOptions, TranspiledCircuit, transpile


@dataclass
class EvaluationContext:
    """Everything fixed across evaluations of one QAOA training run.

    Attributes:
        hamiltonian: Problem Hamiltonian.
        num_layers: QAOA depth p.
        fidelity: Global-depolarizing circuit fidelity F (1.0 = ideal).
        readout: Per-logical-qubit readout attenuation factors.
        transpiled: The compiled template, when a device was supplied.
    """

    hamiltonian: IsingHamiltonian
    num_layers: int
    fidelity: float = 1.0
    readout: "dict[int, float] | None" = None
    transpiled: "TranspiledCircuit | None" = None
    noise_model: "NoiseModel | None" = None
    measured_wires: "list[int] | None" = None
    _analytic: "QAOA1Structure | None" = field(
        default=None, repr=False, compare=False
    )
    _spectrum: "np.ndarray | None" = field(
        default=None, repr=False, compare=False
    )
    _levels: "PhaseLevels | None" = field(
        default=None, repr=False, compare=False
    )
    _signs: "tuple | None" = field(default=None, repr=False, compare=False)
    _weights: dict = field(default_factory=dict, repr=False, compare=False)

    def analytic_structure(self) -> QAOA1Structure:
        """The precomputed p=1 term structure (built once, then reused)."""
        if self._analytic is None:
            self._analytic = QAOA1Structure(self.hamiltonian)
        return self._analytic

    def spectrum(self) -> np.ndarray:
        """The memoized ``2**n`` energy table feeding the fused kernel."""
        if self._spectrum is None:
            self._spectrum = memoized_spectrum(self.hamiltonian)
        return self._spectrum

    def phase_levels(self) -> PhaseLevels:
        """The memoized level table the fused kernel's cost layers read."""
        if self._levels is None:
            self._levels = memoized_phase_levels(self.hamiltonian)
        return self._levels

    def sign_basis(self) -> tuple:
        """Precomputed spin-sign columns for per-term EVs at p >= 2."""
        if self._signs is None:
            self._signs = term_sign_matrix(self.hamiltonian)
        return self._signs

    def __getstate__(self) -> dict:
        # Like IsingHamiltonian.__getstate__: the derived evaluation caches
        # (term structure, 2**n spectrum and level table, (2**n, T) sign
        # matrix, weights) are rebuildable and would dominate every pickled
        # run result — drop them at the process boundary.
        state = self.__dict__.copy()
        state["_analytic"] = None
        state["_spectrum"] = None
        state["_levels"] = None
        state["_signs"] = None
        state["_weights"] = {}
        return state

    def analytic_weights(self, noisy: bool) -> tuple:
        """Cached p=1 combination weights (fidelity/readout are fixed)."""
        key = ("analytic", noisy)
        if key not in self._weights:
            self._weights[key] = self.analytic_structure().term_weights(
                fidelity=self.fidelity if noisy else 1.0,
                readout=self.readout if noisy else None,
            )
        return self._weights[key]

    def sign_weights(self, noisy: bool) -> "np.ndarray":
        """Cached combination weights aligned with :meth:`sign_basis`.

        The sign basis orders its columns exactly like the analytic
        structure (non-zero-h qubits, then quadratic terms in dict
        order), so the one weight derivation serves both.
        """
        key = ("signs", noisy)
        if key not in self._weights:
            self._weights[key] = np.concatenate(self.analytic_weights(noisy))
        return self._weights[key]

    def diagonal_observable(self, noisy: bool) -> "np.ndarray":
        """Cached diagonal observable ``D`` the p>=2 objective contracts
        against: the energy spectrum when ideal, or
        ``offset + sign_matrix @ weights`` with the fidelity/readout
        attenuation folded into the per-term weights when noisy — the
        same folding the batched evaluation path uses, reused by the
        adjoint gradient kernel."""
        if not noisy:
            return self.spectrum()
        key = ("observable", True)
        if key not in self._weights:
            matrix, __, __ = self.sign_basis()
            self._weights[key] = (
                self.hamiltonian.offset + matrix @ self.sign_weights(True)
            )
        return self._weights[key]


@dataclass(frozen=True)
class NoiseProfile:
    """The noise-derived constants of one compiled template.

    These depend only on circuit *structure* (gate names, qubits,
    schedule), never on rotation angles — so every angle-edited sibling of
    a compiled template (Sec. 3.7.1) shares one profile. Computing it once
    per template and passing it to :func:`make_context` removes the
    per-sub-problem Python pass over the compiled circuit.

    Attributes:
        fidelity: Global-depolarizing circuit fidelity F.
        readout: Per-logical-qubit attenuation (readout x decoherence).
        noise_model: The device noise model.
        measured_wires: Physical wire per logical qubit.
    """

    fidelity: float
    readout: dict[int, float]
    noise_model: NoiseModel
    measured_wires: list[int]

    def signature(self) -> str:
        """Exact content token of the constants that shape training.

        Part of the trained-parameter cache key: two jobs may share cached
        ``(gammas, betas)`` only when the noisy objective they trained
        against was built from bit-identical fidelity and readout factors.
        """
        readout = ";".join(
            f"{q}:{factor.hex()}" for q, factor in sorted(self.readout.items())
        )
        wires = ",".join(str(w) for w in self.measured_wires)
        return f"F={self.fidelity.hex()}|R={readout}|W={wires}"


def noise_profile_for_transpiled(transpiled: TranspiledCircuit) -> NoiseProfile:
    """Compute the angle-independent noise constants of a compiled template."""
    model = noise_model_for_transpiled(transpiled.device.calibration)
    measured_wires = transpiled.measured_physical_qubits()
    # Gate errors scramble globally (depolarizing fidelity); decoherence
    # and readout act per measured qubit and combine multiplicatively
    # into the per-qubit attenuation factors.
    fidelity = circuit_fidelity(
        transpiled.circuit, model, include_idle_errors=False
    )
    readout = readout_factors(model, measured_wires)
    decoherence = decoherence_factors(
        model, transpiled.duration_ns, measured_wires
    )
    return NoiseProfile(
        fidelity=fidelity,
        readout={q: readout[q] * decoherence[q] for q in readout},
        noise_model=model,
        measured_wires=measured_wires,
    )


def make_context(
    hamiltonian: IsingHamiltonian,
    num_layers: int = 1,
    device=None,
    transpile_options: "TranspileOptions | None" = None,
    transpiled: "TranspiledCircuit | None" = None,
    noise_profile: "NoiseProfile | None" = None,
) -> EvaluationContext:
    """Build an evaluation context, compiling for a device if one is given.

    Args:
        hamiltonian: Problem Hamiltonian.
        num_layers: QAOA depth p.
        device: Optional target device; enables the noisy path (the
            template is transpiled once, per Sec. 3.7.1).
        transpile_options: Compiler knobs for the template.
        transpiled: Reuse an already-compiled template (e.g. an edited
            sibling sub-problem executable) instead of compiling.
        noise_profile: Pre-computed noise constants of ``transpiled`` (or
            of the master template it was edited from — the profile is
            angle-independent); computed here when omitted.
    """
    context = EvaluationContext(hamiltonian=hamiltonian, num_layers=num_layers)
    if transpiled is None and device is not None:
        template = build_qaoa_template(hamiltonian, num_layers=num_layers)
        transpiled = transpile(template.circuit, device, transpile_options)
    if transpiled is not None:
        profile = noise_profile or noise_profile_for_transpiled(transpiled)
        context.transpiled = transpiled
        context.noise_model = profile.noise_model
        context.measured_wires = profile.measured_wires
        context.fidelity = profile.fidelity
        context.readout = profile.readout
    return context


def _check_layers(context: EvaluationContext, gammas, betas) -> None:
    if len(gammas) != context.num_layers or len(betas) != context.num_layers:
        raise QAOAError(
            f"expected {context.num_layers} gammas/betas, got "
            f"{len(gammas)}/{len(betas)}"
        )


def _check_sim_cap(context: EvaluationContext) -> None:
    if context.hamiltonian.num_qubits > MAX_SIM_QUBITS:
        raise QAOAError(
            f"p={context.num_layers} QAOA on "
            f"{context.hamiltonian.num_qubits} qubits exceeds the "
            f"{MAX_SIM_QUBITS}-qubit statevector cap"
        )


def evaluate_batch(
    context: EvaluationContext,
    gammas: np.ndarray,
    betas: np.ndarray,
    noisy: bool = False,
) -> np.ndarray:
    """Expectation values of a whole ``(P, p)`` parameter batch at once.

    The vectorized objective: p=1 goes through the batched analytic closed
    form over the context's precomputed term structure, p>=2 through the
    fused diagonal statevector kernel through the memoized level table. Noise
    (``noisy=True``) is folded in as per-term combination weights, so the
    noisy batch costs the same kernel call as the ideal one.

    Args:
        context: The evaluation context.
        gammas: Phase angles, shape ``(P, p)`` (or ``(P,)`` when p=1).
        betas: Mixing angles, same shape as ``gammas``.
        noisy: Attenuate with the context's fidelity/readout factors.

    Returns:
        Expectation values, shape ``(P,)``.
    """
    g = np.asarray(gammas, dtype=float)
    b = np.asarray(betas, dtype=float)
    if g.ndim == 1:
        g = g[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if g.ndim != 2 or g.shape != b.shape:
        raise QAOAError(
            f"gammas/betas must be matching (P, p) batches, got "
            f"{g.shape}/{b.shape}"
        )
    if g.shape[1] != context.num_layers:
        raise QAOAError(
            f"expected {context.num_layers} gammas/betas, got "
            f"{g.shape[1]}/{b.shape[1]}"
        )
    if context.num_layers == 1:
        return context.analytic_structure().expectations(
            g[:, 0], b[:, 0], weights=context.analytic_weights(noisy)
        )
    return _kernel_values(context, _kernel_probabilities(context, g, b), noisy)


def _kernel_probabilities(
    context: EvaluationContext, gammas: np.ndarray, betas: np.ndarray
) -> np.ndarray:
    """Outcome distributions of a ``(P, p)`` batch from the fused kernel."""
    _check_sim_cap(context)
    return qaoa_probabilities_batch(
        context.hamiltonian, gammas, betas, levels=context.phase_levels()
    )


def _kernel_values(
    context: EvaluationContext, probs: np.ndarray, noisy: bool
) -> np.ndarray:
    """Expectations of ``(P, 2**n)`` kernel distributions: ``probs @
    spectrum``, or noise folded in as per-term combination weights."""
    if not noisy:
        return probs @ context.spectrum()
    matrix, __, __ = context.sign_basis()
    term_values = probs @ matrix
    return context.hamiltonian.offset + term_values @ context.sign_weights(True)


def batch_objective(context: EvaluationContext, noisy: bool = False):
    """The context's batched objective ``(gammas, betas) -> (P,) values``.

    Convenience for threading :func:`evaluate_batch` into
    :func:`repro.qaoa.optimizer.optimize_qaoa` and ``landscape_scan``.
    """

    def evaluate(gammas: np.ndarray, betas: np.ndarray) -> np.ndarray:
        return evaluate_batch(context, gammas, betas, noisy=noisy)

    return evaluate


def value_and_grad_objective(context: EvaluationContext, noisy: bool = False):
    """The context's gradient objective ``(g, b) -> (value, grad (2p,))``.

    One evaluation pass returns the expectation *and* its exact gradient
    w.r.t. all ``2p`` parameters: the closed-form p=1 derivatives of the
    batched trig expression (:meth:`repro.qaoa.analytic.QAOA1Structure.
    expectation_and_grad` — never touches a statevector), or adjoint-mode
    backprop through the fused diagonal kernel at p >= 2
    (:func:`repro.sim.qaoa_kernel.qaoa_value_and_grad`). Noise folds into
    combination weights / the diagonal observable exactly as the value
    path folds it, so the noisy gradient costs the same pass.
    """
    if context.num_layers == 1:
        structure = context.analytic_structure()
        weights = context.analytic_weights(noisy)

        def evaluate_p1(gammas, betas):
            value, dgamma, dbeta = structure.expectation_and_grad(
                float(gammas[0]), float(betas[0]), weights
            )
            return value, np.asarray([dgamma, dbeta])

        return evaluate_p1
    _check_sim_cap(context)
    levels = context.phase_levels()
    observable = context.diagonal_observable(noisy)

    def evaluate_adjoint(gammas, betas):
        value, grad_g, grad_b = qaoa_value_and_grad(
            context.hamiltonian,
            np.asarray(gammas, dtype=float),
            np.asarray(betas, dtype=float),
            observable=observable,
            levels=levels,
        )
        return value, np.concatenate([grad_g, grad_b])

    return evaluate_adjoint


def _evaluate_point(
    context: EvaluationContext,
    gammas: Sequence[float],
    betas: Sequence[float],
    noisy: "tuple[bool, ...]",
) -> tuple[float, ...]:
    """Expectations at one point, one per entry of ``noisy``.

    p = 1 reads the closed form. At p >= 2 every entry reads one kernel
    evolution (a batch of one) through :func:`evaluate_batch`'s formulas,
    so a job's ideal and noisy EVs cost one evolution, not two.
    """
    _check_layers(context, gammas, betas)
    if context.num_layers == 1:
        structure = context.analytic_structure()
        return tuple(
            float(
                structure.expectation_point(
                    float(gammas[0]), float(betas[0]), context.analytic_weights(mode)
                )
            )
            for mode in noisy
        )
    probs = _kernel_probabilities(
        context,
        np.asarray(gammas, dtype=float)[None, :],
        np.asarray(betas, dtype=float)[None, :],
    )
    return tuple(float(_kernel_values(context, probs, mode)[0]) for mode in noisy)


def evaluate_ideal(
    context: EvaluationContext,
    gammas: Sequence[float],
    betas: Sequence[float],
) -> float:
    """Noiseless expectation value at the given parameters."""
    return _evaluate_point(context, gammas, betas, (False,))[0]


def evaluate_noisy(
    context: EvaluationContext,
    gammas: Sequence[float],
    betas: Sequence[float],
) -> float:
    """Expectation under the context's depolarizing fidelity and readout.

    With ``fidelity == 1`` and no readout factors this equals
    :func:`evaluate_ideal`.
    """
    return _evaluate_point(context, gammas, betas, (True,))[0]

