"""The FrozenQubits end-to-end solver and the shared single-QAOA runner.

``run_qaoa_instance`` trains and "executes" one QAOA instance — the same
path serves the plain-QAOA baseline (Sec. 4.2) and every FrozenQubits
sub-problem, so comparisons never mix machinery. Training follows the
paper's protocol: parameters are tuned on the *ideal* simulator (p = 1 uses
the closed form), then the circuit is evaluated under the device noise
model; sampling draws shots from the depolarized distribution with readout
errors. The run is split into two stages — :func:`train_qaoa_instance` and
:func:`finish_qaoa_instance` — which a backend job runs back to back
(:func:`repro.backend.base.execute_job`); per-stage timing tells them
apart.

``FrozenQubitsSolver`` composes hotspot selection, partitioning, symmetry
pruning, compile-once template editing, per-sub-problem training, outcome
decoding and final minimum selection (paper Fig. 4). The middle of the
pipeline is expressed as backend-submitted jobs: :meth:`prepare_jobs`
produces one :class:`~repro.backend.JobSpec` per executed sub-problem (each
with its own deterministic child seed and its own edited template copy),
any :class:`~repro.backend.ExecutionBackend` runs them, and
:meth:`finalize` decodes and merges the outcomes.

The fan-out is *planned*, not fixed: an explicit
:class:`~repro.planning.FreezePlan` (or an
:class:`~repro.planning.ExecutionBudget`) can cap the quantum-executed
cells at a ranked top-k — the remaining assignments are covered by a
classical annealing fallback so the decoded result still partitions the
full state-space — and enable cross-sibling warm starts, where one
representative sibling trains fresh and seeds every other sibling's
optimizer with its ``(gamma, beta)``. Independently of planning, siblings
whose QAOA landscapes coincide (fields equal up to sign on every connected
component, Sec. 3.7.2 generalized) train once per class, and one backend
submission simulates each class's ideal distribution once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.cache import resolve_cache
from repro.cache.keys import ising_fingerprint, params_key
from repro.cache.memo import (
    cached_anneal_many,
    cached_simulated_annealing,
    cached_transpile,
    memoized_phase_levels,
    params_payload,
    params_rebuild,
)
from repro.core.hotspots import select_hotspots
from repro.core.partition import (
    SubProblem,
    executed_subproblems,
    linear_support_union,
    partition_problem,
)
from repro.devices.device import Device
from repro.exceptions import SolverError
from repro.ising.annealer import AnnealResult
from repro.ising.freeze import decode_spins
from repro.ising.hamiltonian import IsingHamiltonian
from repro.ising.symmetry import landscape_class, landscape_frame
from repro.qaoa.circuits import build_qaoa_template, linear_tag
from repro.qaoa.executor import (
    EvaluationContext,
    _evaluate_point,
    batch_objective,
    make_context,
    noise_profile_for_transpiled,
    value_and_grad_objective,
)
from repro.qaoa.optimizer import OptimizationResult, optimize_qaoa
from repro.reduction.proxy import plan_proxy
from repro.sim.depolarizing import flip_probabilities_from_factors, noisy_counts
from repro.sim.qaoa_kernel import qaoa_probabilities
from repro.sim.sampling import Counts, OutcomeTable, sample_counts
from repro.sim.statevector import MAX_SIM_QUBITS
from repro.transpile.compiler import (
    TranspileOptions,
    TranspiledCircuit,
    edited_template_copy,
    transpile,
)
from repro.utils.bitstrings import spins_to_bits
from repro.utils.rng import ensure_rng, spawn_seeds

if TYPE_CHECKING:
    from repro.backend.base import ExecutionBackend, ExecutionControl
    from repro.cache.store import SolveCache
    from repro.planning.budget import ExecutionBudget
    from repro.planning.planner import FreezePlan
    from repro.planning.pruning import AssignmentRank
    from repro.utils.memo import BoundedMemo


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the baseline runner and the FrozenQubits solver.

    An out-of-range value raises a :class:`~repro.exceptions.SolverError`
    naming the field when the config is built, not inside every job.

    Attributes:
        num_layers: QAOA depth p.
        shots: Measurement shots per executed circuit.
        grid_resolution: Grid points per axis for p=1 parameter seeding.
        maxiter: L-BFGS-B iteration cap per optimizer start.
        max_sampled_qubits: Above this size, skip statevector sampling and
            fall back to simulated annealing for the solution bitstring
            (expectations stay analytic at p=1).
        transpile_options: Compiler knobs for the (template) circuit.
        train_noisy: Train on the noisy objective instead of the ideal one
            (the paper trains on simulation => default False).
        proxy_training: Train each sub-problem on a Red-QAOA-style
            sparsified *proxy* instance (MST-guarded edge sampling +
            low-impact node contraction, see :mod:`repro.reduction`) and
            transfer the trained parameters to the full instance for a
            short refinement — the full-instance optimizer budget
            collapses from ``maxiter`` to ``proxy_refine_maxiter``.
            Default ``False``: the proxy path changes trained parameters
            (a different, equally valid optimum), so today's behaviour is
            pinned bit-identically behind the flag. Proxy outcomes are
            shared like direct ones: by landscape class within a solve,
            and through the p = 1 trained-parameter cache across solves.
        proxy_ratio: Fraction of edges and nodes the sparsifier keeps, in
            (0, 1] (MST-connectivity always guarded). Smaller = cheaper
            proxy, coarser landscape. The 0.7 default keeps the
            transferred optimum close enough that the short refinement
            matches full training on the benchmark sweeps.
        proxy_refine_maxiter: Optimizer budget of the full-instance
            refinement stage that follows a parameter transfer.
        fault_injection: Optional :class:`~repro.faults.FaultInjection`
            chaos plan. Rides the job specs into worker processes, where
            the backends fire it at the start of every job attempt — the
            deterministic test harness of the resilience layer (see
            :mod:`repro.faults`). ``None`` (the default) injects nothing;
            the field never influences cache keys or trained results.
    """

    num_layers: int = 1
    shots: int = 4096
    grid_resolution: int = 12
    maxiter: int = 60
    max_sampled_qubits: int = 20
    transpile_options: "TranspileOptions | None" = None
    train_noisy: bool = False
    proxy_training: bool = False
    proxy_ratio: float = 0.7
    proxy_refine_maxiter: int = 30
    fault_injection: "object | None" = None

    def __post_init__(self) -> None:
        for name, low in (
            ("num_layers", 1),
            ("shots", 1),
            ("grid_resolution", 1),
            ("maxiter", 0),
            ("max_sampled_qubits", 0),
            ("proxy_refine_maxiter", 0),
        ):
            value = getattr(self, name)
            if value < low:
                raise SolverError(f"{name} must be >= {low}, got {value}")
        if not 0.0 < self.proxy_ratio <= 1.0:
            raise SolverError(
                f"proxy_ratio must be in (0, 1], got {self.proxy_ratio}"
            )


@dataclass
class QAOARunResult:
    """Outcome of training + executing one QAOA instance.

    Attributes:
        context: The evaluation context (fidelity, readout, compiled circuit).
        optimization: Optimizer output (trained on the configured objective).
        ev_ideal: Ideal expectation at the trained parameters.
        ev_noisy: Depolarizing-model expectation at the trained parameters.
        counts: Sampled noisy outcomes over the instance's own qubits
            (``None`` when the instance exceeded the sampling cap).
        best_spins: Best sampled (or annealed) assignment for the instance.
        best_value: Instance cost of ``best_spins``.
    """

    context: EvaluationContext
    optimization: OptimizationResult
    ev_ideal: float
    ev_noisy: float
    counts: "Counts | None"
    best_spins: tuple[int, ...]
    best_value: float


@dataclass
class TrainedInstance:
    """A trained-but-not-yet-sampled QAOA instance (stage 1 of a run).

    Handed from :func:`train_qaoa_instance` to
    :func:`finish_qaoa_instance`. ``rng`` is the instance's own stream,
    already advanced past training, so finishing consumes exactly the
    draws that follow it.

    Attributes:
        hamiltonian: The instance Hamiltonian.
        config: Runner knobs used for training; reused when finishing.
        rng: Per-instance generator, positioned after training.
        context: The evaluation context.
        optimization: Trained parameters and bookkeeping.
        ev_ideal: Ideal expectation at the trained parameters.
        ev_noisy: Noisy expectation at the trained parameters.
    """

    hamiltonian: IsingHamiltonian
    config: SolverConfig
    rng: np.random.Generator
    context: EvaluationContext
    optimization: OptimizationResult
    ev_ideal: float
    ev_noisy: float


def _optimize_on(
    context: EvaluationContext,
    cfg: SolverConfig,
    seed,
    initial_params,
    maxiter: int,
    noisy: bool,
    hybrid_seeding: bool = False,
) -> OptimizationResult:
    """One :func:`optimize_qaoa` call wired to a context's engine.

    Grid seeds and warm-start acceptance tests evaluate whole point batches
    in one kernel call; refinement runs L-BFGS-B on exact derivatives —
    closed form at p=1, adjoint backprop at p>=2.
    """
    return optimize_qaoa(
        batch_objective(context, noisy=noisy),
        value_and_grad_objective(context, noisy=noisy),
        num_layers=cfg.num_layers,
        grid_resolution=cfg.grid_resolution,
        maxiter=maxiter,
        seed=seed,
        initial_point=initial_params,
        hybrid_seeding=hybrid_seeding,
    )


def _train_with_proxy(
    context: EvaluationContext,
    cfg: SolverConfig,
    rng: np.random.Generator,
    proxy,
    initial_params,
) -> OptimizationResult:
    """Proxy-landscape training: train small, transfer, refine short.

    Stage 1 trains on the canonical-frame proxy instance, seeded by the
    spec's own digest-derived seed, so the job's ``rng`` stream is
    untouched by it. A sibling warm start (``initial_params``) seeds the
    *proxy* optimizer. Stage 2 transfers the proxy optimum to the full
    instance as the refinement's initial point under *hybrid seeding*:
    the transfer competes against the fresh-start candidates in one
    batched evaluation and refinement descends from the winner — so even
    a poor-basin transfer never displaces a better cold start.

    Accounting: full-instance evaluations stay in ``num_evaluations``;
    proxy evaluations are counted separately (the bench gate measures the
    former).
    """
    proxy_context = make_context(proxy.hamiltonian, num_layers=cfg.num_layers)
    proxy_opt = _optimize_on(
        proxy_context,
        cfg,
        proxy.seed,
        initial_params,
        cfg.maxiter,
        noisy=False,
    )
    refined = _optimize_on(
        context,
        cfg,
        rng,
        (proxy_opt.gammas, proxy_opt.betas),
        cfg.proxy_refine_maxiter,
        noisy=cfg.train_noisy,
        hybrid_seeding=True,
    )
    return OptimizationResult(
        gammas=refined.gammas,
        betas=refined.betas,
        value=refined.value,
        num_evaluations=refined.num_evaluations,
        num_gradient_evaluations=refined.num_gradient_evaluations,
        history=refined.history,
        warm_started=proxy_opt.warm_started,
        warm_start_rejected=proxy_opt.warm_start_rejected,
        num_proxy_evaluations=proxy_opt.num_evaluations,
        num_proxy_gradient_evaluations=proxy_opt.num_gradient_evaluations,
        proxy_params=(
            tuple(float(g) for g in proxy_opt.gammas),
            tuple(float(b) for b in proxy_opt.betas),
        ),
        proxy_transferred=refined.warm_started,
        proxy_num_qubits=proxy.hamiltonian.num_qubits,
    )


def train_qaoa_instance(
    hamiltonian: IsingHamiltonian,
    device: "Device | None" = None,
    config: "SolverConfig | None" = None,
    seed: "int | np.random.Generator | None" = None,
    context: "EvaluationContext | None" = None,
    params: "tuple[tuple[float, ...], tuple[float, ...]] | None" = None,
    initial_params: "tuple[tuple[float, ...], tuple[float, ...]] | None" = None,
    proxy=None,
) -> TrainedInstance:
    """Stage 1 of a QAOA run: build the context and train the parameters.

    Args:
        hamiltonian: Problem (or sub-problem) Hamiltonian.
        device: Optional device; enables the noisy path.
        config: Runner knobs.
        seed: RNG seed or generator for this instance.
        context: Reuse a pre-built evaluation context (e.g. one whose
            compiled template was *edited* from a sibling's — Sec. 3.7.1 —
            so no recompilation happens).
        params: Pre-trained ``(gammas, betas)``; skips optimization entirely
            (the "train once, re-execute with more shots" workflow).
        initial_params: Transferred ``(gammas, betas)`` to seed the
            optimizer (the cross-sibling warm-start path); training still
            runs, but from this point instead of the seeding scan, with a
            fresh-start fallback when the transfer evaluates poorly. On
            the proxy path this seeds the *proxy* optimizer.
        proxy: A :class:`~repro.reduction.ProxySpec` selecting the
            proxy-landscape path: train on the sparsified proxy, then
            refine the transfer on the full instance under
            ``config.proxy_refine_maxiter``.
    """
    cfg = config or SolverConfig()
    rng = ensure_rng(seed)
    if context is None:
        context = make_context(
            hamiltonian,
            num_layers=cfg.num_layers,
            device=device,
            transpile_options=cfg.transpile_options,
        )
    if params is None:
        if proxy is not None:
            optimization = _train_with_proxy(
                context, cfg, rng, proxy, initial_params
            )
        else:
            optimization = _optimize_on(
                context, cfg, rng, initial_params, cfg.maxiter, cfg.train_noisy
            )
        gammas, betas = optimization.gammas, optimization.betas
    else:
        gammas = tuple(float(g) for g in params[0])
        betas = tuple(float(b) for b in params[1])
    # One kernel evolution gives both EVs; a handed-in point's objective is
    # one of them.
    ev_ideal, ev_noisy = _evaluate_point(context, gammas, betas, (False, True))
    if params is not None:
        value = ev_noisy if cfg.train_noisy else ev_ideal
        optimization = OptimizationResult(
            gammas=gammas,
            betas=betas,
            value=value,
            num_evaluations=1,
            history=[value],
        )
    return TrainedInstance(
        hamiltonian=hamiltonian,
        config=cfg,
        rng=rng,
        context=context,
        optimization=optimization,
        ev_ideal=ev_ideal,
        ev_noisy=ev_noisy,
    )


def sampling_cap_fallback_anneal(
    hamiltonian: IsingHamiltonian, rng: np.random.Generator
) -> AnnealResult:
    """The over-the-cap instance's annealing fallback (one call site).

    Unified through :func:`~repro.cache.memo.cached_simulated_annealing`
    against the *session default* cache, matching every other annealing
    call site: repeated sweeps answer this fallback from cache too. The
    fallback seed is one integer drawn from the instance's stream — an int
    pins the whole RNG trajectory, which is what makes the call cacheable.
    """
    from repro.cache import get_default_cache

    fallback_seed = int(rng.integers(0, 2**31 - 1))
    return cached_simulated_annealing(
        hamiltonian, seed=fallback_seed, cache=get_default_cache()
    )


def _class_table(
    hamiltonian: IsingHamiltonian,
    mask: int,
    optimization: OptimizationResult,
    frames: "BoundedMemo | None",
) -> OutcomeTable:
    """A class member's outcome table: the class frame's, read through the
    member's mask.

    Every member rebuilds the same frame to the bit, so one table memoized
    by frame and parameters serves the whole class.
    """
    frame = landscape_frame(hamiltonian, mask)
    gammas, betas = tuple(optimization.gammas), tuple(optimization.betas)

    def build() -> OutcomeTable:
        probs = qaoa_probabilities(
            frame, gammas, betas, levels=memoized_phase_levels(frame)
        )
        return OutcomeTable(probs, frame.num_qubits)

    if frames is None:
        table = build()
    else:
        key = (ising_fingerprint(frame), gammas, betas)
        table = frames.get_or_build(key, build)
    return table.masked(mask)


def finish_qaoa_instance(
    trained: TrainedInstance,
    frame_mask: "int | None" = None,
    frames: "BoundedMemo | None" = None,
) -> QAOARunResult:
    """Stage 2 of a QAOA run: simulate, sample, and pick the best outcome.

    The outcome distribution comes from the fused diagonal QAOA kernel
    (one phase multiply per cost layer through the memoized level table) and
    is sampled through its cumulative table
    (:class:`~repro.sim.sampling.OutcomeTable`), at a cost per shot that
    does not grow with ``2**n``. A member of a shared landscape class
    (``frame_mask`` set) simulates the class frame instead of its own
    instance: its fields flipped by ``frame_mask``, its offset dropped
    (:func:`repro.ising.landscape_frame`), the same Hamiltonian for every
    member. It draws from the frame's table through the mask, which
    samples ``p[x] = p_frame[x ^ frame_mask]``, under its own noise
    (fidelity, readout and decoherence flips), shots and RNG stream.
    ``frames`` memoizes frame tables by frame and parameters, so one
    submission simulates each class once; without it (process-pool
    workers) each member builds the frame's table itself, to the same
    bits. Above the sampling cap the instance is annealed instead
    (:func:`sampling_cap_fallback_anneal`).

    Args:
        trained: Output of :func:`train_qaoa_instance`.
        frame_mask: Spin flips from the class frame to this instance (see
            :class:`~repro.backend.JobSpec`); ``None`` (a class of one)
            simulates the instance itself.
        frames: Frame-table memo shared by one submission's jobs.
    """
    hamiltonian = trained.hamiltonian
    cfg = trained.config
    context = trained.context
    rng = trained.rng
    n = hamiltonian.num_qubits
    counts: "Counts | None" = None
    if n <= min(cfg.max_sampled_qubits, MAX_SIM_QUBITS):
        opt = trained.optimization
        if frame_mask is None:
            table = OutcomeTable(
                qaoa_probabilities(
                    hamiltonian,
                    opt.gammas,
                    opt.betas,
                    levels=memoized_phase_levels(hamiltonian),
                ),
                n,
            )
        else:
            table = _class_table(hamiltonian, frame_mask, opt, frames)
        if context.noise_model is not None:
            flips = (
                flip_probabilities_from_factors(context.readout, n)
                if context.readout
                else None
            )
            counts = noisy_counts(
                table,
                context.fidelity,
                context.noise_model,
                cfg.shots,
                n,
                measured_wires=context.measured_wires,
                seed=rng,
                flip_probabilities=flips,
            )
        else:
            counts = sample_counts(table, cfg.shots, n, seed=rng)
        best_value = np.inf
        best_spins: tuple[int, ...] = ()
        if len(counts):
            spins = counts.spins_matrix()
            values = hamiltonian.evaluate_many(spins)
            index = int(np.argmin(values))
            best_value = float(values[index])
            best_spins = tuple(int(s) for s in spins[index])
    else:
        anneal = sampling_cap_fallback_anneal(hamiltonian, rng)
        best_spins, best_value = anneal.spins, anneal.value
    return QAOARunResult(
        context=context,
        optimization=trained.optimization,
        ev_ideal=trained.ev_ideal,
        ev_noisy=trained.ev_noisy,
        counts=counts,
        best_spins=tuple(best_spins),
        best_value=float(best_value),
    )


def run_qaoa_instance(
    hamiltonian: IsingHamiltonian,
    device: "Device | None" = None,
    config: "SolverConfig | None" = None,
    seed: "int | np.random.Generator | None" = None,
    context: "EvaluationContext | None" = None,
    params: "tuple[tuple[float, ...], tuple[float, ...]] | None" = None,
    initial_params: "tuple[tuple[float, ...], tuple[float, ...]] | None" = None,
) -> QAOARunResult:
    """Train and execute a single QAOA instance (both stages, in-line).

    Args:
        hamiltonian: Problem (or sub-problem) Hamiltonian.
        device: Optional device; enables the noisy path.
        config: Runner knobs.
        seed: RNG seed or generator.
        context: Reuse a pre-built evaluation context.
        params: Pre-trained ``(gammas, betas)``; skips optimization.
        initial_params: Warm-start seed for the optimizer (see
            :func:`train_qaoa_instance`).
    """
    trained = train_qaoa_instance(
        hamiltonian,
        device=device,
        config=config,
        seed=seed,
        context=context,
        params=params,
        initial_params=initial_params,
    )
    return finish_qaoa_instance(trained)


@dataclass
class SubProblemOutcome:
    """A solved (or mirrored, or classically covered) sub-problem, decoded
    into parent variables.

    Attributes:
        subproblem: The partition cell.
        run: The QAOA run (``None`` for mirrors and classical fallbacks —
            no circuit was executed).
        decoded_counts: Outcome histogram in the *parent* variable space
            (``None`` when nothing was sampled).
        best_spins: Best decoded assignment (parent space).
        best_value: Parent cost of ``best_spins``.
        ev_ideal: Ideal expectation of this cell's circuit (parent-
            comparable: includes the cell's offset). ``NaN`` for classical
            fallbacks — no circuit means no expectation.
        ev_noisy: Noisy expectation, same convention.
        source: How the cell was covered: ``"quantum"`` (a circuit ran),
            ``"mirror"`` (bit-flipped from a twin, Sec. 3.7.2),
            ``"classical"`` (budget-pruned; simulated-annealing fallback),
            or ``"failed"`` (the cell's job exhausted its
            :class:`~repro.backend.FaultPolicy` retries and was covered by
            the same annealing fallback, seeded with the job's own child
            seed).
        fallback: The budget-fallback annealing run of a ``"classical"``
            or ``"failed"`` cell (``None`` otherwise) — carries the
            replica provenance (``num_replicas``, per-restart best
            energies) without touching the golden counts/spins fields.
            The cell's reported spins/value are the better of this run
            and the prepare-time probe, so ``best_value`` can beat
            ``fallback.value`` (the probe floor).
        error: The terminal :class:`~repro.exceptions.JobError` of a
            ``"failed"`` cell (``None`` otherwise).
    """

    subproblem: SubProblem
    run: "QAOARunResult | None"
    decoded_counts: "Counts | None"
    best_spins: tuple[int, ...]
    best_value: float
    ev_ideal: float
    ev_noisy: float
    source: str = "quantum"
    fallback: "AnnealResult | None" = None
    error: "Exception | None" = None


@dataclass
class FrozenQubitsResult:
    """Full output of a FrozenQubits solve.

    Attributes:
        hamiltonian: The parent problem.
        frozen_qubits: Hotspots frozen, in selection order.
        outcomes: Per-sub-problem outcomes (quantum, mirrored, and
            classical-fallback), in canonical partition order.
        best_spins: Overall best assignment (parent space).
        best_value: Parent cost of the best assignment.
        num_circuits_executed: Quantum cost actually paid (pruning- and
            budget-aware).
        ev_ideal: Mixture ideal expectation over the sub-spaces that have
            one (classical fallbacks are excluded — they carry no circuit).
        ev_noisy: Mixture noisy expectation, same convention.
        template: The one compiled template (when a device was used).
        edited_circuits: Number of executables produced by angle editing
            instead of compilation.
        plan: The freeze plan the solve followed, when one was used.
        skipped_assignments: Partition indices of the cells the budget
            pruned — covered classically, never executed as circuits.
        num_optimizer_evaluations: Total objective evaluations spent
            training across all executed sub-problems.
        num_gradient_evaluations: Total gradient passes spent training
            across all executed sub-problems — counted separately from
            objective evaluations, so evaluation-budget accounting stays
            honest.
        num_warm_started: Executed cells whose optimizer accepted a
            transferred sibling optimum.
        num_warm_start_rejected: Executed cells where the transfer was
            offered but evaluated no better than untrained, so training
            fell back to a fresh start.
        num_deduplicated: Executed cells that adopted another job's
            trained parameters outright instead of training: a sibling in
            the same landscape class (fields equal up to per-component
            sign, see :func:`repro.ising.landscape_class`), or, in a
            cached :func:`~repro.core.solve_many` batch, an identical
            instance's trainer. A class adopter also samples the class
            frame's distribution, simulated once per submission, permuted
            by its flips (``JobSpec.frame_mask``); an adopter that is
            alone in its own fan-out's class simulates its own instance.
        num_proxy_evaluations: Total objective evaluations spent on
            *proxy* instances (the Red-QAOA path) — separate from
            ``num_optimizer_evaluations``, which stays full-instance-only
            so the two are comparable across the direct and proxy paths.
        num_proxy_gradient_evaluations: Gradient passes on proxy
            instances, same convention.
        num_proxy_trained: Executed cells that ran a proxy optimization:
            every job that carries a proxy plan. Class members and p = 1
            cache hits adopt finished parameters and carry none.
        num_proxy_transferred: Executed cells whose full-instance
            refinement accepted the transferred proxy optimum.
        cache_stats: Per-kind hit/miss/store counters this solve moved on
            its :class:`~repro.cache.SolveCache` (``None`` when caching
            was off; batch APIs attach the whole batch's delta).
        num_failed_jobs: Executed cells whose job exhausted its
            :class:`~repro.backend.FaultPolicy` retries — each covered
            classically (``source="failed"``), never silently dropped.
            Always 0 without a policy (failures raise instead).
        num_job_retries: Total retry attempts spent across the
            submission's jobs (0 = every job succeeded first try).
    """

    hamiltonian: IsingHamiltonian
    frozen_qubits: list[int]
    outcomes: list[SubProblemOutcome]
    best_spins: tuple[int, ...]
    best_value: float
    num_circuits_executed: int
    ev_ideal: float
    ev_noisy: float
    template: "TranspiledCircuit | None" = None
    edited_circuits: int = 0
    plan: "FreezePlan | None" = None
    skipped_assignments: tuple[int, ...] = ()
    num_optimizer_evaluations: int = 0
    num_gradient_evaluations: int = 0
    num_warm_started: int = 0
    num_warm_start_rejected: int = 0
    num_deduplicated: int = 0
    num_proxy_evaluations: int = 0
    num_proxy_gradient_evaluations: int = 0
    num_proxy_trained: int = 0
    num_proxy_transferred: int = 0
    cache_stats: "dict[str, dict[str, int]] | None" = None
    num_failed_jobs: int = 0
    num_job_retries: int = 0

    @property
    def combined_counts(self) -> "Counts | None":
        """Union of decoded outcome histograms across all sub-spaces."""
        decoded = [o.decoded_counts for o in self.outcomes
                   if o.decoded_counts is not None]
        if not decoded:
            return None
        return Counts.from_arrays(
            np.concatenate([c.keys_array() for c in decoded]),
            np.concatenate([c.counts_array() for c in decoded]),
            self.hamiltonian.num_qubits,
        )

    @property
    def fallback_provenance(self) -> dict[int, dict[str, float]]:
        """Replica provenance of every classically-covered cell.

        Maps partition index -> the fallback anneal's ``num_replicas``
        plus its NaN-safe per-restart best-energy stats (see
        :meth:`repro.ising.annealer.AnnealResult.restart_stats`), so the
        quality spread behind each budget-pruned cell's coverage is
        inspectable without re-running anything. ``covered_value`` is the
        value the cell actually reports — it can beat the anneal's own
        ``min`` when the prepare-time probe supplied the better
        assignment (the probe floor; see
        :class:`SubProblemOutcome`'s ``fallback`` docs).
        """
        provenance: dict[int, dict[str, float]] = {}
        for outcome in self.outcomes:
            if outcome.fallback is None:
                continue
            record = {
                "num_replicas": float(outcome.fallback.num_replicas),
                "covered_value": float(outcome.best_value),
            }
            record.update(outcome.fallback.restart_stats)
            provenance[outcome.subproblem.index] = record
        return provenance

    @property
    def failure_provenance(self) -> dict[int, dict[str, object]]:
        """What happened to every ``"failed"`` cell.

        Maps partition index -> ``attempts`` spent before the job gave
        up, the terminal ``error`` message, the formatted root-cause
        ``traceback`` captured at failure time, and the
        ``covered_value`` its classical coverage actually reports — so
        degraded solves stay auditable without digging through logs.
        Empty when every job succeeded.
        """
        provenance: dict[int, dict[str, object]] = {}
        for outcome in self.outcomes:
            if outcome.source != "failed":
                continue
            provenance[outcome.subproblem.index] = {
                "attempts": getattr(outcome.error, "attempts", 1),
                "error": str(outcome.error),
                "traceback": getattr(outcome.error, "traceback_str", ""),
                "covered_value": float(outcome.best_value),
            }
        return provenance


@dataclass(frozen=True)
class SkippedAssignment:
    """A budget-pruned cell: no circuit runs; classical coverage at finalize.

    Attributes:
        subproblem: The pruned partition cell.
        seed: The deterministic child seed the cell *would* have used as a
            job — reused for its fallback anneal, so pruning a cell never
            perturbs its siblings' streams.
        rank: The triage record that demoted it (probe value, bound).
    """

    subproblem: SubProblem
    seed: "int | None"
    rank: "AssignmentRank | None"


@dataclass
class PreparedSolve:
    """The fan-out half of a solve: everything up to circuit execution.

    Produced by :meth:`FrozenQubitsSolver.prepare_jobs`; the ``jobs`` list
    is what an :class:`~repro.backend.ExecutionBackend` runs, and
    :meth:`FrozenQubitsSolver.finalize` folds the results back together.

    Attributes:
        hamiltonian: The parent problem.
        device: Target device (``None`` => ideal execution).
        hotspots: Frozen qubits, in selection order.
        subproblems: All ``2**m`` partition cells.
        executed: The quantum-executed cells, aligned 1:1 with ``jobs``
            (non-mirror cells that survived budget pruning).
        template: The one compiled master template (device runs only).
        jobs: One job per executed sub-problem, each carrying its own
            deterministic child seed and its own edited template copy.
        edited_circuits: How many job templates came from angle editing.
        skipped: Budget-pruned non-mirror cells, covered classically at
            finalize time.
        plan: The freeze plan this prepare followed (``None`` for the
            legacy fixed-``m`` path).
        warm_start: Whether sibling jobs carry warm-start metadata.
        params_keys: job_id -> trained-parameter cache key, for the
            landscape-class trainers whose training outcome is cacheable
            (p = 1); finalize stores each freshly-trained result under its
            key.
    """

    hamiltonian: IsingHamiltonian
    device: "Device | None"
    hotspots: list[int]
    subproblems: list[SubProblem]
    executed: list[SubProblem]
    template: "TranspiledCircuit | None"
    jobs: list
    edited_circuits: int
    skipped: list[SkippedAssignment] = field(default_factory=list)
    plan: "FreezePlan | None" = None
    warm_start: bool = False
    params_keys: dict = field(default_factory=dict)


def _assert_own_coefficients(
    transpiled: TranspiledCircuit,
    hamiltonian: IsingHamiltonian,
    support: list[int],
) -> None:
    """Check an edited template carries *this* sub-problem's coefficients.

    Guards the Sec. 3.7.1 editing path against template aliasing: every
    sibling must execute a circuit whose linear-term rotations encode its
    own ``h``, not a shared master's (or the last-edited sibling's).

    Raises:
        SolverError: On a stale or foreign coefficient.
    """
    surface = transpiled.parametric_instruction_indices()
    for qubit in support:
        expected = 2.0 * hamiltonian.linear_coefficient(qubit)
        for index in surface.get(linear_tag(qubit), []):
            actual = transpiled.circuit.instructions[index].angle.coefficient
            if actual != expected:
                raise SolverError(
                    f"template aliasing: rotation {linear_tag(qubit)!r} carries "
                    f"coefficient {actual}, expected {expected} — the job's "
                    "template was not edited for its own sub-problem"
                )


class FrozenQubitsSolver:
    """The FrozenQubits framework (paper Fig. 4).

    Args:
        num_frozen: Qubits to freeze, m (paper default: up to 2). Ignored
            when an explicit ``plan`` pins the hotspot set.
        hotspot_policy: Selection policy (see :mod:`repro.core.hotspots`).
        prune_symmetric: Apply the Sec. 3.7.2 pruning theorem.
        config: Shared runner knobs.
        seed: RNG seed for the whole solve. Per-sub-problem streams are
            spawned from it, so results are backend-independent: serial and
            parallel execution consume identical per-job streams.
        plan: Explicit :class:`~repro.planning.FreezePlan` to follow; it
            overrides ``num_frozen``/``prune_symmetric`` and brings its own
            fan-out cap and warm-start choice.
        budget: :class:`~repro.planning.ExecutionBudget` capping the
            quantum fan-out; the lowest-ranked cells beyond the cap are
            covered by the classical fallback. Combines with (tightens) a
            plan's own cap.
        warm_start: Seed sibling optimizers from one trained
            representative per solve. ``None`` defers to the plan (if any)
            and then to the session planning defaults.
        cache: Content-addressed solve cache — a
            :class:`~repro.cache.SolveCache`, ``True`` (use/create the
            session default), ``False`` (force off), or ``None`` (defer to
            the session default installed via
            :func:`repro.cache.set_default_cache`). With a cache active,
            transpiles and p=1 trainings are answered from (and recorded
            into) the store, and classical fallbacks/probes are memoized
            — all without changing any result bit (see
            ``tests/test_determinism.py``). Sharing within a solve needs
            no cache: siblings whose fields agree up to sign on every
            connected component share one training run at every p, cache
            on or off. One exception to the scoping:
            the *sampling-cap* fallback (instances over
            ``max_sampled_qubits``) runs inside backend workers, which
            this per-solver cache cannot reach — it memoizes against the
            session default cache instead (install one with
            :func:`repro.cache.set_default_cache`); caching there is a
            speed concern only, results are identical either way.
    """

    def __init__(
        self,
        num_frozen: int = 1,
        hotspot_policy: str = "degree",
        prune_symmetric: bool = True,
        config: "SolverConfig | None" = None,
        seed: "int | np.random.Generator | None" = None,
        plan: "FreezePlan | None" = None,
        budget: "ExecutionBudget | None" = None,
        warm_start: "bool | None" = None,
        cache: "SolveCache | bool | None" = None,
    ) -> None:
        from repro.planning.session import get_default_planning

        if num_frozen < 0:
            raise SolverError(f"num_frozen must be >= 0, got {num_frozen}")
        defaults = get_default_planning()
        self._num_frozen = num_frozen
        self._policy = hotspot_policy
        self._prune = prune_symmetric
        self._config = config or SolverConfig()
        self._seed = seed
        self._plan = plan
        self._budget = budget if budget is not None else defaults.budget
        if warm_start is None:
            warm_start = (plan.warm_start if plan is not None
                          else defaults.warm_start)
        self._warm_start = bool(warm_start)
        self._adaptive = plan is None and defaults.adaptive
        self._cache = resolve_cache(cache)

    @property
    def cache(self) -> "SolveCache | None":
        """The solve cache this solver consults (``None`` = caching off)."""
        return self._cache

    def prepare_jobs(
        self,
        hamiltonian: IsingHamiltonian,
        device: "Device | None" = None,
        job_prefix: str = "",
    ) -> PreparedSolve:
        """Hotspot selection, partitioning, compilation, and job fan-out.

        When a plan or budget caps the fan-out below the non-mirror cell
        count, the cells are triaged (annealer probe + offset bound, see
        :func:`repro.planning.rank_assignments`) and only the top-k become
        jobs; the rest are recorded as :class:`SkippedAssignment` for the
        classical fallback at finalize time. The executed cells are grouped
        into landscape classes (:func:`repro.ising.landscape_class`): the
        first cell of each class trains and every other member carries
        ``params_from`` pointing at it. Every member of a class of two or
        more, the trainer included, carries its ``frame_mask`` (its spin
        flips relative to the trainer), so the class samples one simulated
        distribution. With warm starts enabled, the first executed cell is
        the representative and every other class trainer carries
        ``warm_start_from`` metadata pointing at it. With proxy training
        on, every class trainer without cached parameters carries its
        :func:`~repro.reduction.plan_proxy` plan.

        Args:
            hamiltonian: Parent Ising problem.
            device: Optional device model (enables noise + compilation).
            job_prefix: Prepended to job ids (used by ``solve_many`` to keep
                ids unique across a batch of problems).

        Returns:
            A :class:`PreparedSolve` whose ``jobs`` an execution backend can
            run in any order or concurrently (trainers and warm-start
            sources first).
        """
        from repro.backend.base import JobSpec

        rng = ensure_rng(self._seed)
        cfg = self._config
        plan = self._resolve_plan(hamiltonian, device, rng)
        if plan is not None:
            hotspots = list(plan.hotspots)
            prune = plan.prune_symmetric
            # Warm-start precedence was resolved in __init__: an explicit
            # constructor argument beats the plan; None deferred to it.
            warm = self._warm_start
            max_executed = plan.max_executed
        else:
            hotspots = select_hotspots(
                hamiltonian,
                self._num_frozen,
                policy=self._policy,
                device=device,
                seed=rng,
            )
            prune = self._prune
            warm = self._warm_start
            max_executed = None
        if self._budget is not None:
            from repro.planning.budget import estimated_seconds_per_circuit

            cap = self._budget.circuit_cap(
                shots_per_circuit=cfg.shots,
                seconds_per_circuit=estimated_seconds_per_circuit(
                    hamiltonian, cfg.shots
                ),
            )
            if cap is not None:
                max_executed = cap if max_executed is None else min(
                    max_executed, cap
                )
        subproblems = partition_problem(
            hamiltonian, hotspots, prune_symmetric=prune
        )
        all_executed = executed_subproblems(subproblems)
        support = linear_support_union(subproblems)
        job_seeds = spawn_seeds(rng, len(all_executed))
        seed_by_index = {
            sp.index: job_seed for sp, job_seed in zip(all_executed, job_seeds)
        }

        # Budgeted triage (beyond symmetry): rank the non-mirror cells and
        # keep the top-k; the rest are covered classically at finalize.
        # Cells keep the child seed they were spawned positionally, so
        # pruning one cell never changes a sibling's stream.
        executed = all_executed
        skipped: list[SkippedAssignment] = []
        if max_executed is not None and max_executed < len(all_executed):
            from repro.planning.pruning import rank_assignments

            probe_seed = spawn_seeds(rng, 1)[0]
            ranks = rank_assignments(
                all_executed,
                seed=probe_seed,
                cache=self._cache,
            )
            keep = {rank.index for rank in ranks[:max_executed]}
            rank_by_index = {rank.index: rank for rank in ranks}
            executed = [sp for sp in all_executed if sp.index in keep]
            skipped = [
                SkippedAssignment(
                    subproblem=sp,
                    seed=seed_by_index[sp.index],
                    rank=rank_by_index[sp.index],
                )
                for sp in all_executed
                if sp.index not in keep
            ]

        # Compile once (Sec. 3.7.1): the first executed sub-problem's
        # template is the master; siblings get angle-edited copies. Each
        # job owns its copy — the master is never mutated, so sibling
        # contexts cannot alias each other's coefficients.
        template_compiled: "TranspiledCircuit | None" = None
        noise_profile = None
        if device is not None and executed:
            master_template = build_qaoa_template(
                executed[0].hamiltonian,
                num_layers=cfg.num_layers,
                linear_support=support,
            )
            # The noise constants depend on circuit structure only, which
            # angle editing preserves — one profile serves every sibling.
            if self._cache is not None:
                template_compiled, noise_profile = cached_transpile(
                    master_template.circuit,
                    device,
                    cfg.transpile_options,
                    cache=self._cache,
                )
            else:
                template_compiled = transpile(
                    master_template.circuit, device, cfg.transpile_options
                )
                noise_profile = noise_profile_for_transpiled(template_compiled)

        # Cross-sibling warm starts: siblings share one template shape
        # (identical quadratic terms — freezing only reshapes the linear
        # ones), so one trained representative seeds every other sibling.
        warm = warm and len(executed) >= 2
        representative_id = f"{job_prefix}sp{executed[0].index}" if executed else None

        # Landscape classes (Sec. 3.7.2, per component): siblings share
        # every coupling, so those whose fields agree up to sign on every
        # connected component have the same QAOA landscape at every p.
        # The first executed cell of each class trains; the others adopt
        # its parameters (params_from). Every member of a class of two or
        # more samples the class frame's distribution, permuted by its
        # flips relative to the trainer (frame_mask), on its own stream.
        # Under train_noisy only exactly equal fields group: asymmetric
        # readout breaks the flip symmetry of the noisy objective.
        trainer_by_class: dict[tuple, tuple[str, int]] = {}
        adopts_from: dict[int, str] = {}
        frame_masks: dict[int, int] = {}
        for sp in executed:
            class_key, mask = landscape_class(
                sp.hamiltonian, flips=not cfg.train_noisy
            )
            job_id = f"{job_prefix}sp{sp.index}"
            trainer, trainer_mask = trainer_by_class.setdefault(
                class_key, (job_id, mask)
            )
            frame_masks[sp.index] = mask ^ trainer_mask
            if trainer != job_id:
                adopts_from[sp.index] = trainer
        shared_classes = set(adopts_from.values())

        # Trained-parameter cache hits are restricted to p=1, where
        # training consumes no RNG draws: skipping it leaves each job's
        # sampling stream exactly where the uncached path would have left
        # it. Only class trainers read or write the cache, under their own
        # exact keys, which is what keeps cached and uncached solves
        # bit-identical.
        params_cacheable = self._cache is not None and cfg.num_layers == 1
        noise_signature = (
            noise_profile.signature() if noise_profile is not None else "ideal"
        )
        params_keys: dict[str, str] = {}
        representative_key: "str | None" = None
        if params_cacheable and executed:
            representative_key = self._params_key(
                executed[0].hamiltonian, noise_signature, mode="fresh"
            )

        jobs: list[JobSpec] = []
        edited = 0
        for sp in executed:
            job_template: "TranspiledCircuit | None" = None
            if template_compiled is not None:
                if sp is executed[0]:
                    job_template = template_compiled
                else:
                    # The editing path (Sec. 3.7.1): produce this sibling's
                    # executable from the master without routing.
                    updates = {
                        linear_tag(q): sp.hamiltonian.linear_coefficient(q)
                        for q in support
                    }
                    job_template = edited_template_copy(
                        template_compiled, updates
                    )
                    edited += 1
                _assert_own_coefficients(job_template, sp.hamiltonian, support)
            job_id = f"{job_prefix}sp{sp.index}"
            params_from = adopts_from.get(sp.index)
            shared = params_from is not None or job_id in shared_classes
            warm_source = (
                representative_id
                if warm and job_id != representative_id and params_from is None
                else None
            )
            cached_params = None
            if params_cacheable and params_from is None:
                if job_id == representative_id:
                    key = representative_key
                else:
                    mode = (
                        "fresh" if warm_source is None
                        else f"warm:{representative_key}"
                    )
                    key = self._params_key(
                        sp.hamiltonian, noise_signature, mode
                    )
                params_keys[job_id] = key
                cached_params = self._cache.get(
                    "params", key, rebuild=params_rebuild
                )
                if cached_params is not None:
                    warm_source = None
            # Proxy-landscape planning (the Red-QAOA path) for every class
            # trainer that still trains. The proxy's seed derives from its
            # canonical digest, never from the solve stream, so planning
            # consumes no randomness.
            proxy_spec = None
            if (
                cfg.proxy_training
                and cached_params is None
                and params_from is None
            ):
                proxy_spec = plan_proxy(sp.hamiltonian, cfg)
            jobs.append(
                JobSpec(
                    job_id=job_id,
                    hamiltonian=sp.hamiltonian,
                    config=cfg,
                    seed=seed_by_index[sp.index],
                    device=device,
                    transpiled=job_template,
                    noise_profile=noise_profile,
                    params=cached_params,
                    warm_start_from=warm_source,
                    params_from=params_from,
                    frame_mask=frame_masks[sp.index] if shared else None,
                    proxy=proxy_spec,
                )
            )
        return PreparedSolve(
            hamiltonian=hamiltonian,
            device=device,
            hotspots=hotspots,
            subproblems=subproblems,
            executed=executed,
            template=template_compiled,
            jobs=jobs,
            edited_circuits=edited,
            skipped=skipped,
            plan=plan,
            warm_start=warm,
            params_keys=params_keys,
        )

    def _params_key(
        self,
        hamiltonian: IsingHamiltonian,
        noise_signature: str,
        mode: str,
    ) -> str:
        """Trained-parameter cache key of one sub-problem under this config."""
        cfg = self._config
        if cfg.proxy_training:
            # The proxy path settles on different (equally valid) floats;
            # its p=1 outcomes must never answer a direct-path lookup (or
            # vice versa), and they additionally depend on the reduction
            # knobs. Flag-off keys keep the historical format.
            mode = (
                f"proxy[r={float(cfg.proxy_ratio).hex()},"
                f"refine={cfg.proxy_refine_maxiter}]:{mode}"
            )
        return params_key(
            ising_fingerprint(hamiltonian),
            num_layers=cfg.num_layers,
            grid_resolution=cfg.grid_resolution,
            maxiter=cfg.maxiter,
            train_noisy=cfg.train_noisy,
            noise_signature=noise_signature,
            mode=mode,
        )

    def _resolve_plan(
        self,
        hamiltonian: IsingHamiltonian,
        device: "Device | None",
        rng: np.random.Generator,
    ) -> "FreezePlan | None":
        """The plan to follow: the explicit one, or an adaptive one when
        the session planning defaults ask for it."""
        if self._plan is not None:
            return self._plan
        if not self._adaptive:
            return None
        from repro.planning.planner import FreezePlanner

        planner = FreezePlanner(
            hotspot_policy=self._policy,
            warm_start=self._warm_start,
            prune_symmetric=self._prune,
            shots=self._config.shots,
        )
        return planner.plan(
            hamiltonian,
            device=device,
            budget=self._budget,
            seed=spawn_seeds(rng, 1)[0],
        )

    def finalize(
        self, prepared: PreparedSolve, job_results: list
    ) -> FrozenQubitsResult:
        """Decode backend results, cover pruned cells, recover mirrors,
        and pick the winner.

        Budget-pruned cells are covered by a simulated-annealing fallback
        (seeded with the cell's own child seed, floored at the prepare-time
        probe), so the returned outcomes always partition the full
        state-space regardless of how many circuits actually ran.

        Args:
            prepared: The matching :meth:`prepare_jobs` output.
            job_results: One :class:`~repro.backend.JobResult` per prepared
                job, in job order.
        """
        hamiltonian = prepared.hamiltonian
        if len(job_results) != len(prepared.jobs):
            raise SolverError(
                f"backend returned {len(job_results)} results for "
                f"{len(prepared.jobs)} jobs"
            )
        outcomes: dict[int, SubProblemOutcome] = {}
        # Jobs that exhausted their FaultPolicy retries come back as
        # failure records (run=None); their cells are covered classically
        # below, exactly like budget-pruned cells, so the returned
        # outcomes still partition the full state-space. Entries are
        # (cell, seed, probe rank, error), the shape of the fallback pass.
        failed: "list[tuple[SubProblem, object, None, object]]" = []
        for sp, job, job_result in zip(
            prepared.executed, prepared.jobs, job_results
        ):
            if job_result.job_id != job.job_id:
                raise SolverError(
                    f"backend result order mismatch: expected {job.job_id!r}, "
                    f"got {job_result.job_id!r}"
                )
            run = job_result.run
            if run is None:
                failed.append((sp, job.seed, None, job_result.error))
                continue
            decoded = self._decode_counts(sp, run.counts)
            full_spins = decode_spins(sp.spec, sp.assignment, run.best_spins)
            outcomes[sp.index] = SubProblemOutcome(
                subproblem=sp,
                run=run,
                decoded_counts=decoded,
                best_spins=full_spins,
                best_value=hamiltonian.evaluate(full_spins),
                ev_ideal=run.ev_ideal,
                ev_noisy=run.ev_noisy,
                source="quantum",
            )
        # Record every freshly-trained outcome under its content key so the
        # next structurally-identical job — in this run or any later one —
        # rehydrates instead of retraining. Jobs that themselves ran from
        # cached or adopted parameters store nothing (their key already
        # holds this exact value).
        if self._cache is not None and prepared.params_keys:
            for job, job_result in zip(prepared.jobs, job_results):
                if job.params is not None or job.params_from is not None:
                    continue
                if job_result.run is None:
                    continue  # failed job: nothing trained to store
                key = prepared.params_keys.get(job.job_id)
                if key is None:
                    continue
                opt = job_result.run.optimization
                trained = (opt.gammas, opt.betas)
                self._cache.put(
                    "params", key, trained, payload=params_payload(trained)
                )
        # Budget-pruned cells and failed jobs share one batched fallback
        # pass (siblings share a coupling graph, so the engine sweeps the
        # whole set as a single cells x replicas array program). Each cell
        # anneals on its own child seed, so a degraded solve still reports
        # a valid (if weaker) assignment for every partition cell and stays
        # deterministic for a fixed fault plan. A pruned cell keeps its
        # prepare-time probe when that beats the anneal.
        covered = [
            (entry.subproblem, entry.seed, entry.rank, None)
            for entry in prepared.skipped
        ] + failed
        fallback_anneals = cached_anneal_many(
            [sp.hamiltonian for sp, _, _, _ in covered],
            seeds=[seed for _, seed, _, _ in covered],
            cache=self._cache,
        )
        for (sp, _, rank, error), anneal in zip(covered, fallback_anneals):
            sub_spins, value = anneal.spins, anneal.value
            if rank is not None and rank.probe_value < value:
                sub_spins, value = rank.probe_spins, rank.probe_value
            full_spins = decode_spins(sp.spec, sp.assignment, sub_spins)
            outcomes[sp.index] = SubProblemOutcome(
                subproblem=sp,
                run=None,
                decoded_counts=None,
                best_spins=full_spins,
                best_value=hamiltonian.evaluate(full_spins),
                ev_ideal=float("nan"),
                ev_noisy=float("nan"),
                source="classical" if error is None else "failed",
                fallback=anneal,
                error=error,
            )
        for sp in prepared.subproblems:
            if not sp.is_mirror:
                continue
            twin = outcomes[sp.mirror_of]
            flipped_counts = (
                twin.decoded_counts.flip_all_bits()
                if twin.decoded_counts is not None
                else None
            )
            mirrored_spins = tuple(-s for s in twin.best_spins)
            outcomes[sp.index] = SubProblemOutcome(
                subproblem=sp,
                run=None,
                decoded_counts=flipped_counts,
                best_spins=mirrored_spins,
                best_value=hamiltonian.evaluate(mirrored_spins),
                ev_ideal=twin.ev_ideal,
                ev_noisy=twin.ev_noisy,
                source="mirror",
            )

        ordered = [outcomes[sp.index] for sp in prepared.subproblems]
        best = min(ordered, key=lambda o: o.best_value)
        # Classical fallbacks carry NaN expectations (no circuit); the
        # mixture averages over the sub-spaces that have one. When every
        # cell degraded classically there is none, and the result-level
        # expectation is honestly NaN (without numpy's empty-slice noise).
        ideal_evs = [o.ev_ideal for o in ordered if not math.isnan(o.ev_ideal)]
        noisy_evs = [o.ev_noisy for o in ordered if not math.isnan(o.ev_noisy)]
        ev_ideal = float(np.mean(ideal_evs)) if ideal_evs else float("nan")
        ev_noisy = float(np.mean(noisy_evs)) if noisy_evs else float("nan")
        optimizations = [
            r.run.optimization for r in job_results if r.run is not None
        ]
        return FrozenQubitsResult(
            hamiltonian=hamiltonian,
            frozen_qubits=prepared.hotspots,
            outcomes=ordered,
            best_spins=best.best_spins,
            best_value=best.best_value,
            num_circuits_executed=len(prepared.executed) - len(failed),
            ev_ideal=ev_ideal,
            ev_noisy=ev_noisy,
            template=prepared.template,
            edited_circuits=prepared.edited_circuits,
            plan=prepared.plan,
            skipped_assignments=tuple(
                entry.subproblem.index for entry in prepared.skipped
            ),
            num_optimizer_evaluations=sum(
                opt.num_evaluations for opt in optimizations
            ),
            num_gradient_evaluations=sum(
                opt.num_gradient_evaluations for opt in optimizations
            ),
            num_warm_started=sum(1 for opt in optimizations if opt.warm_started),
            num_warm_start_rejected=sum(
                1 for opt in optimizations if opt.warm_start_rejected
            ),
            num_deduplicated=sum(
                1 for job in prepared.jobs if job.params_from is not None
            ),
            num_proxy_evaluations=sum(
                opt.num_proxy_evaluations for opt in optimizations
            ),
            num_proxy_gradient_evaluations=sum(
                opt.num_proxy_gradient_evaluations for opt in optimizations
            ),
            num_proxy_trained=sum(
                1 for opt in optimizations if opt.num_proxy_evaluations > 0
            ),
            num_proxy_transferred=sum(
                1 for opt in optimizations if opt.proxy_transferred
            ),
            num_failed_jobs=len(failed),
            num_job_retries=sum(
                max(0, getattr(r, "attempts", 1) - 1) for r in job_results
            ),
        )

    def solve(
        self,
        hamiltonian: IsingHamiltonian,
        device: "Device | None" = None,
        backend: "ExecutionBackend | str | None" = None,
        control: "ExecutionControl | None" = None,
    ) -> FrozenQubitsResult:
        """Run the full pipeline on a problem.

        Args:
            hamiltonian: Parent Ising problem.
            device: Optional device model (enables noise + compilation).
            backend: Execution backend for the sub-problem fan-out — an
                :class:`~repro.backend.ExecutionBackend`, a registry name
                (``"serial"`` or ``"process"``), or ``None`` for the
                session default (serial unless overridden via
                :func:`repro.backend.set_default_backend`).
            control: Optional :class:`~repro.backend.ExecutionControl`
                carrying a cooperative deadline/cancel signal and a
                per-job progress callback into the backend fan-out (the
                solve service's deadline plumbing; see
                :mod:`repro.service`). Checked between jobs only — a
                running job is never interrupted mid-flight.

        Returns:
            The decoded :class:`FrozenQubitsResult`.
        """
        from repro.backend import resolve_backend

        before = (
            self._cache.stats_snapshot() if self._cache is not None else None
        )
        prepared = self.prepare_jobs(hamiltonian, device)
        results = resolve_backend(backend).run(prepared.jobs, control)
        result = self.finalize(prepared, results)
        if self._cache is not None:
            from repro.cache.store import stats_delta

            result.cache_stats = stats_delta(
                before, self._cache.stats_snapshot()
            )
        return result

    @staticmethod
    def _decode_counts(sp: SubProblem, counts: "Counts | None") -> "Counts | None":
        """Lift sub-space outcomes into the parent variable space."""
        if counts is None:
            return None
        frozen_bits = spins_to_bits(sp.assignment)
        frozen_mask = 0
        for qubit, bit in zip(sp.spec.frozen_qubits, frozen_bits):
            frozen_mask |= bit << qubit

        # Vectorized bit-scatter: lift every sub-space key at once (the map
        # is injective, so no counts can collide).
        keys = counts.keys_array()
        full = np.full_like(keys, frozen_mask)
        for position, original in enumerate(sp.spec.kept_qubits):
            full |= ((keys >> position) & 1) << original
        return Counts.from_arrays(full, counts.counts_array(), sp.spec.num_qubits)
