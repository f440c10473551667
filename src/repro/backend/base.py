"""Execution-backend contract: job descriptions and the backend interface.

FrozenQubits turns one problem into ``2**m`` *independent* sub-problems
(paper Sec. 3.3) — an embarrassingly parallel fan-out that the solver
expresses as a list of :class:`JobSpec`. An :class:`ExecutionBackend`
decides how the jobs actually run: one at a time (serial) or across worker
processes. Results come back as :class:`JobResult`, in job order,
regardless of how the backend scheduled the work.

Determinism contract: a job's entire stochastic behaviour is governed by
``spec.seed``. Backends MUST run every job with exactly
``ensure_rng(spec.seed)`` and MUST NOT share generator state across jobs —
that is what makes ``SerialBackend`` and ``ProcessPoolBackend`` produce
bit-identical results from the same solver seed. The one thing jobs share
is a landscape class's simulated frame, kept as its outcome table
(``spec.frame_mask``): :func:`execute_jobs_serially` memoizes it for one
submission and pool workers re-simulate it per job; it is a pure function
of the frame and the parameters, so both give the same bits.

Dependency contract: a job whose ``spec.warm_start_from`` (optimizer
seeding) or ``spec.params_from`` (parameter adoption) names a sibling must
be trained *after* that sibling, with the sibling's trained
``(gammas, betas)`` injected beforehand (see :func:`dependency_levels`
and :func:`inject_warm_start`). Injection is a pure function of the
source job's result, so the level schedule keeps backends deterministic
and order-independent within each level.

Fault contract: every backend runs every job under a
:class:`~repro.backend.policy.FaultPolicy` — the one given, else
:data:`~repro.backend.policy.FAIL_FAST`. A job's exception never escapes
on its own: it is contained in that job's :class:`JobResult` (``run=None``
plus a chained :class:`~repro.exceptions.JobError`), transient errors are
retried on the *same spec* (same seed, so a successful retry is
bit-identical to an unfailed first attempt) by
:func:`execute_job_with_policy`, and a failed job simply contributes
nothing to ``params_by_id`` — its dependents degrade to fresh training
exactly like any missing source.
Only the :class:`FailureBudget` aborts a submission; under ``FAIL_FAST``
(budget zero) that happens at the first failure, as a ``JobError`` that
names the job and chains its root cause.
"""

from __future__ import annotations

import itertools
import threading
import time
import traceback
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from collections.abc import Callable, Sequence

from repro.backend.policy import FAIL_FAST, FaultPolicy
from repro.core.solver import (
    QAOARunResult,
    SolverConfig,
    TrainedInstance,
    finish_qaoa_instance,
    train_qaoa_instance,
)
from repro.devices.device import Device
from repro.exceptions import DeadlineExceeded, ExecutionCancelled, JobError
from repro.faults import active_fault_injection
from repro.ising.hamiltonian import IsingHamiltonian
from repro.qaoa.executor import NoiseProfile, make_context
from repro.transpile.compiler import TranspiledCircuit
from repro.utils.memo import BoundedMemo

#: Frame outcome tables one serial submission keeps: every class of a
#: 16-cell fan-out, 8 MB at 16 qubits.
FRAME_MEMO_ENTRIES = 16


@dataclass
class JobSpec:
    """Everything needed to train + execute one QAOA instance, self-contained.

    Specs are the unit of fan-out: picklable (so they can cross process
    boundaries) and independent (each carries its own child seed and its
    own template copy — never a reference shared with a sibling job).

    Attributes:
        job_id: Unique id within a submission; results echo it back.
        hamiltonian: The instance (sub-)Hamiltonian.
        config: Runner knobs.
        seed: Integer child seed for this job's private RNG stream
            (``None`` => fresh OS entropy; not reproducible).
        device: Target device; enables the noisy path. Ignored for context
            construction when ``transpiled`` is given.
        transpiled: This job's own (possibly angle-edited) compiled
            template; skips recompilation per Sec. 3.7.1.
        noise_profile: Pre-computed noise constants of ``transpiled``
            (angle-independent, so siblings share the master's); skips the
            per-job pass over the compiled circuit.
        params: Pre-trained ``(gammas, betas)``; skips optimization (the
            re-execution workflow: train once, sample many).
        initial_params: Transferred ``(gammas, betas)`` to *seed* (not
            replace) this job's optimizer — see
            :func:`repro.qaoa.optimizer.optimize_qaoa`'s ``initial_point``.
        warm_start_from: job_id of the sibling whose trained optimum
            should seed this job's optimizer. Backends must execute that
            job first and inject its parameters (see
            :func:`dependency_levels` / :func:`inject_warm_start`); a
            source missing from the submission degrades to fresh training.
        params_from: job_id of the job whose trained parameters this
            job *adopts outright*: its landscape-class trainer (a sibling
            whose QAOA landscape equals this job's, see
            :func:`repro.ising.landscape_class`) or, in a cached batch,
            an identical instance's trainer. Backends execute the source
            first and inject its parameters as ``params`` — the adopter
            skips optimization but still samples on its own seed stream.
            A missing source degrades to fresh training.
        frame_mask: For a member of a landscape class of two or more, the
            spin flips (bit ``q`` = qubit ``q``) from the class frame — the
            trainer's fields and couplings, offset dropped — to this job's
            instance; the trainer carries 0. The job samples the frame's
            ideal distribution permuted by the mask: it draws from the
            frame's outcome table through the mask (see
            :func:`~repro.core.solver.finish_qaoa_instance`), so a
            submission simulates each class once. ``None`` — a class of
            one — simulates the job's own instance.
        proxy: This job's :class:`~repro.reduction.ProxySpec`, selecting
            the proxy-landscape training path (train on the sparsified
            canonical-frame proxy, transfer, refine short). ``None`` runs
            the direct path.
    """

    job_id: str
    hamiltonian: IsingHamiltonian
    config: SolverConfig
    seed: "int | None" = None
    device: "Device | None" = None
    transpiled: "TranspiledCircuit | None" = None
    noise_profile: "NoiseProfile | None" = None
    params: "tuple[tuple[float, ...], tuple[float, ...]] | None" = None
    initial_params: "tuple[tuple[float, ...], tuple[float, ...]] | None" = None
    warm_start_from: "str | None" = None
    params_from: "str | None" = None
    frame_mask: "int | None" = None
    proxy: "object | None" = None

    @property
    def depends_on(self) -> "str | None":
        """The sibling (if any) whose result this job needs before training."""
        if self.params_from is not None:
            return self.params_from
        return self.warm_start_from


@dataclass
class ExecutionControl:
    """Cooperative run-control handed to a backend alongside a submission.

    The solve service (and any other long-running caller) needs three
    things from a backend that a plain ``run(jobs)`` cannot give it: a
    *deadline* after which the submission should stop instead of finishing
    jobs nobody is waiting for, a *cancel switch* it can flip from another
    thread, and a *progress callback* so per-sibling completion can stream
    out while the submission is still running. All three are cooperative:
    backends consult the control **between** jobs (and between retry
    rounds), never mid-kernel, so a checkpoint costs one clock read.

    Attributes:
        deadline: Absolute deadline on ``clock``'s timeline (``None`` =
            no deadline). Backends raise
            :class:`~repro.exceptions.DeadlineExceeded` at the first
            checkpoint past it.
        cancel: Event another thread sets to abort the submission;
            backends raise :class:`~repro.exceptions.ExecutionCancelled`
            at the next checkpoint. Also wakes backoff sleeps early.
        on_job_done: Called once per finished job — ``(job_id, failed)``
            — from whatever thread ran the submission. Must be cheap and
            must not raise; exceptions are swallowed so a broken observer
            cannot take a solve down.
        clock: Monotonic time source (injectable for tests).
    """

    deadline: "float | None" = None
    cancel: "threading.Event | None" = None
    on_job_done: "Callable[[str, bool], None] | None" = None
    clock: "Callable[[], float]" = field(default=time.monotonic)

    def remaining(self) -> "float | None":
        """Seconds until the deadline (``None`` = unbounded)."""
        if self.deadline is None:
            return None
        return self.deadline - self.clock()

    def cancelled(self) -> bool:
        """Whether the cancel switch has been flipped."""
        return self.cancel is not None and self.cancel.is_set()

    def checkpoint(self, where: str = "") -> None:
        """Raise if the submission should stop (deadline passed or
        cancelled); otherwise return immediately."""
        if self.cancelled():
            raise ExecutionCancelled(
                f"submission cancelled{f' at {where}' if where else ''}"
            )
        remaining = self.remaining()
        if remaining is not None and remaining <= 0.0:
            raise DeadlineExceeded(
                f"submission deadline exceeded by {-remaining:.3f}s"
                f"{f' at {where}' if where else ''}"
            )

    def notify_job_done(self, job_id: str, failed: bool) -> None:
        """Report one finished job to the observer (never raises)."""
        if self.on_job_done is None:
            return
        try:
            self.on_job_done(job_id, failed)
        except Exception:  # noqa: BLE001 — observers must not kill solves
            pass


@dataclass
class JobResult:
    """One executed (or failed) job: the run plus scheduling bookkeeping.

    Attributes:
        job_id: Echo of the spec's id.
        run: The trained-and-sampled QAOA outcome — ``None`` when the job
            ultimately failed (see ``error``).
        elapsed_seconds: Total wall-clock spent on this job across *all*
            attempts (in whatever worker ran them; overlapping jobs can
            sum to more than the submission's wall-clock).
        attempts: Attempts executed (1 = no retries were needed).
        attempt_seconds: Per-attempt wall-clock, oldest first; sums to
            ``elapsed_seconds``.
        error: The terminal :class:`~repro.exceptions.JobError` of a job
            that exhausted its retries (the original exception rides its
            ``__cause__`` chain); ``None`` for successful jobs.
    """

    job_id: str
    run: "QAOARunResult | None"
    elapsed_seconds: float
    attempts: int = 1
    attempt_seconds: tuple[float, ...] = ()
    error: "JobError | None" = None

    @property
    def failed(self) -> bool:
        """Whether the job exhausted its attempts without a result."""
        return self.error is not None


def train_job(spec: JobSpec) -> TrainedInstance:
    """Stage 1 of a job: context construction + parameter training."""
    context = None
    if spec.transpiled is not None:
        context = make_context(
            spec.hamiltonian,
            num_layers=spec.config.num_layers,
            transpiled=spec.transpiled,
            noise_profile=spec.noise_profile,
        )
    return train_qaoa_instance(
        spec.hamiltonian,
        device=spec.device,
        config=spec.config,
        seed=spec.seed,
        context=context,
        params=spec.params,
        initial_params=spec.initial_params,
        proxy=spec.proxy,
    )


def execute_job(
    spec: JobSpec,
    attempt: int = 0,
    frames: "BoundedMemo | None" = None,
) -> JobResult:
    """Run one attempt of a job start to finish (module-level, so workers
    can pickle it).

    ``attempt`` indexes retries under a
    :class:`~repro.backend.policy.FaultPolicy` (0 = first run); it feeds
    the fault-injection harness only — the job's own stochastic behaviour
    is governed entirely by ``spec.seed``, which is what keeps a
    successful retry bit-identical to a successful first attempt.
    ``frames`` is the submission's landscape-class table memo (see
    :func:`execute_jobs_serially`); ``None`` simulates every frame anew.
    """
    started = time.perf_counter()
    # Any armed fault plan fires first (see :mod:`repro.faults`); with none
    # armed this costs one attribute probe and one env lookup.
    injection = active_fault_injection(spec.config)
    if injection is not None:
        injection.fire(spec.job_id, attempt)
    run = finish_qaoa_instance(train_job(spec), spec.frame_mask, frames)
    elapsed = time.perf_counter() - started
    return JobResult(
        job_id=spec.job_id,
        run=run,
        elapsed_seconds=elapsed,
        attempts=1,
        attempt_seconds=(elapsed,),
    )


def failed_job_result(
    job_id: str,
    attempt_seconds: Sequence[float],
    exc: BaseException,
) -> JobResult:
    """The failure record of a job that exhausted its attempts.

    The terminal :class:`~repro.exceptions.JobError` chains the last
    attempt's exception via ``__cause__``, so tracebacks and error
    reports keep the root cause — and carries the *formatted* root-cause
    traceback as ``traceback_str``, because ``__cause__`` only survives
    in memory: a provenance record written to a log must still name the
    failing frame.
    """
    attempt_seconds = tuple(attempt_seconds)
    error = JobError(
        f"job {job_id!r} failed after {len(attempt_seconds)} attempt(s): "
        f"{exc}",
        job_id=job_id,
        attempts=len(attempt_seconds),
        traceback_str="".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
    )
    error.__cause__ = exc
    return JobResult(
        job_id=job_id,
        run=None,
        elapsed_seconds=float(sum(attempt_seconds)),
        attempts=len(attempt_seconds),
        attempt_seconds=attempt_seconds,
        error=error,
    )


def execute_job_with_policy(
    spec: JobSpec,
    policy: FaultPolicy,
    control: "ExecutionControl | None" = None,
    frames: "BoundedMemo | None" = None,
) -> JobResult:
    """Run one job start to finish under a fault policy: bounded seeded
    retries, cooperative timeout, and failure containment.

    The in-process retry loop (the process pool's futures loop shares its
    retry decision and timeout through the same policy methods). A
    terminal failure comes back as the :func:`failed_job_result` record
    (``run=None``) — a job-level error never raises — so the caller
    decides between degradation and the submission-level
    :class:`FailureBudget`. With a ``control``, every retry passes its
    checkpoint (deadline/cancel *do* raise — cancellation is not a job
    failure) and backoff sleeps wake early on cancellation.
    """
    attempt_seconds: list[float] = []
    for attempt in itertools.count():
        if attempt > 0 and control is not None:
            control.checkpoint(f"retry of job {spec.job_id!r}")
        started = time.perf_counter()
        try:
            result = execute_job(spec, attempt, frames)
            error = None
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            error = exc
        elapsed = time.perf_counter() - started
        attempt_seconds.append(elapsed)
        if error is None:
            error = policy.timeout_error(spec.job_id, attempt, elapsed)
            if error is None:
                return replace(
                    result,
                    elapsed_seconds=float(sum(attempt_seconds)),
                    attempts=len(attempt_seconds),
                    attempt_seconds=tuple(attempt_seconds),
                )
        if not policy.should_retry(error, attempt):
            return failed_job_result(spec.job_id, attempt_seconds, error)
        _backoff_sleep(policy, spec.job_id, attempt, control)


#: The function that actually sleeps a backoff delay. Injectable so test
#: suites replaying fault schedules don't pay wall-clock sleeps and so an
#: embedding event loop can substitute its own waiter; the asyncio solve
#: service runs backends in worker threads where a real (interruptible)
#: sleep is correct, but nothing may ever hard-code ``time.sleep`` here.
_backoff_sleeper: "Callable[[float], None]" = time.sleep


def set_backoff_sleeper(
    sleeper: "Callable[[float], None] | None",
) -> "Callable[[float], None]":
    """Install the process-wide backoff sleeper; returns the previous one.

    Args:
        sleeper: Callable taking a delay in seconds (``None`` restores the
            default ``time.sleep``). Affects every backend's retry backoff
            in this process; callers should restore the previous sleeper
            when done (tests: a ``try/finally``).
    """
    global _backoff_sleeper
    previous = _backoff_sleeper
    _backoff_sleeper = time.sleep if sleeper is None else sleeper
    return previous


def _backoff_sleep(
    policy: FaultPolicy,
    job_id: str,
    attempt: int,
    control: "ExecutionControl | None" = None,
) -> None:
    """Wait the policy's deterministic backoff before a retry (0 = none).

    With a cancellable :class:`ExecutionControl`, the wait rides the
    cancel event (``Event.wait`` returns the moment it is set) so a
    cancelled submission never sits out a multi-second backoff schedule.
    """
    delay = policy.backoff_for(job_id, attempt)
    if delay <= 0.0:
        return
    if control is not None and control.cancel is not None:
        control.cancel.wait(delay)
    else:
        _backoff_sleeper(delay)


class FailureBudget:
    """Submission-level failure accounting shared by both backends.

    Counts terminally-failed jobs and raises the moment the policy's
    budget is exceeded — the submission is presumed beyond saving, and
    failing loudly beats silently degrading most of a batch. This is the
    only place a job failure aborts a submission, so fail-fast
    (:data:`~repro.backend.policy.FAIL_FAST`, budget zero) behaves the
    same on every backend.
    """

    def __init__(self, policy: FaultPolicy, num_jobs: int) -> None:
        self._allowed = policy.allowed_failures(num_jobs)
        self.failures = 0

    def record(self, result: JobResult) -> None:
        """Count one terminal failure; raise when the budget is blown.

        The raised :class:`~repro.exceptions.JobError` names the job that
        blew the budget and chains that job's root cause.
        """
        self.failures += 1
        if self._allowed is not None and self.failures > self._allowed:
            error = result.error
            raise JobError(
                f"submission failure budget exhausted: {self.failures} "
                f"job(s) failed (allowed {self._allowed}); last failure: "
                f"{error}",
                job_id=result.job_id,
                attempts=result.attempts,
                traceback_str=error.traceback_str,
            ) from error.__cause__


def dependency_levels(jobs: Sequence[JobSpec]) -> list[list[int]]:
    """Topological execution levels of a submission's dependency graph.

    A job depends on at most one sibling (``params_from`` wins over
    ``warm_start_from``); level 0 holds the independents, level k the jobs
    whose source sits in level k-1. Submission order is preserved inside
    each level, so scheduling any level concurrently — after injecting the
    previous levels' trained parameters — reproduces the serial reference
    semantics. Unknown sources (and, defensively, dependency cycles) are
    treated as independent: those jobs degrade to fresh training, matching
    :func:`inject_warm_start`'s missing-source behaviour.
    """
    jobs = list(jobs)
    index_by_id = {spec.job_id: i for i, spec in enumerate(jobs)}
    level_of: dict[int, int] = {}
    remaining = list(range(len(jobs)))
    levels: list[list[int]] = []
    depth = 0
    while remaining:
        current = []
        for i in remaining:
            source = jobs[i].depends_on
            source_index = index_by_id.get(source) if source is not None else None
            if source_index is None or source_index == i:
                eligible = depth == 0
            else:
                eligible = level_of.get(source_index) == depth - 1
            if eligible:
                current.append(i)
        if not current:
            # Cycle (or source scheduled >1 level back): run the leftovers
            # as one final level rather than looping forever.
            current = remaining
        for i in current:
            level_of[i] = depth
        remaining = [i for i in remaining if i not in level_of]
        levels.append(current)
        depth += 1
    return levels


def trained_params(result: JobResult) -> tuple:
    """A finished job's injectable optimum: the ``(gammas, betas)`` it
    settled on, which ``params_from`` adoption and ``warm_start_from``
    seeding both consume."""
    optimization = result.run.optimization
    return (optimization.gammas, optimization.betas)


def execute_jobs_serially(
    jobs: Sequence[JobSpec],
    policy: FaultPolicy = FAIL_FAST,
    control: "ExecutionControl | None" = None,
) -> list[JobResult]:
    """Run a submission in-process, honouring the dependency contract.

    The reference schedule: dependency levels in order, submission order
    inside each level, collecting every finished job's trained parameters
    so later levels can inject them. ``SerialBackend`` *is* this function;
    the process pool reuses it for its no-pool shortcut so the schedule
    lives in exactly one place.

    Failures are handled per the module docstring's fault contract:
    retried, then recorded in the job's own :class:`JobResult` (failed
    jobs add nothing to ``params_by_id``, so dependents degrade to fresh
    training) until the ``policy``'s failure budget aborts the submission
    — at the first failure under the default ``FAIL_FAST``.

    A ``control`` adds the cooperative run-control layer: a checkpoint
    before every job (deadline/cancel =>
    :class:`~repro.exceptions.ExecutionCancelled` /
    :class:`~repro.exceptions.DeadlineExceeded` out of the submission)
    and an ``on_job_done`` ping after every job, which is how per-sibling
    progress streams out of a running submission.

    The members of a landscape class (``spec.frame_mask`` set) share one
    simulated frame's outcome table through a memo that lives for this
    call only. It is bounded, so a batch of many problems cannot hold
    every class's ``2**n`` table at once; a miss re-simulates the frame,
    to the same bits.
    """
    jobs = list(jobs)
    results: dict[int, JobResult] = {}
    params_by_id: dict = {}
    budget = FailureBudget(policy, len(jobs))
    frames: "BoundedMemo" = BoundedMemo(max_entries=FRAME_MEMO_ENTRIES)
    for level in dependency_levels(jobs):
        # Inject from a snapshot of the *previous* levels only: inside a
        # level, jobs must not see each other's results — that is what
        # makes the level schedulable concurrently (and keeps this
        # reference semantics identical to the process pool, even for
        # degenerate cycle-fallback levels).
        snapshot = dict(params_by_id)
        for index in level:
            if control is not None:
                control.checkpoint(f"job {jobs[index].job_id!r}")
            spec = inject_warm_start(jobs[index], snapshot)
            result = execute_job_with_policy(spec, policy, control, frames)
            results[index] = result
            if control is not None:
                control.notify_job_done(result.job_id, result.failed)
            if result.failed:
                budget.record(result)
            else:
                params_by_id[result.job_id] = trained_params(result)
    return [results[index] for index in range(len(jobs))]


def inject_warm_start(
    spec: JobSpec,
    params_by_id: "dict[str, tuple]",
) -> JobSpec:
    """Resolve a dependent job's source parameters into the spec.

    ``params_by_id`` maps finished job_ids to :func:`trained_params`
    entries. ``params_from`` adopts the source's optimum outright (the
    adopter skips optimization); ``warm_start_from`` seeds the optimizer
    via ``initial_params``. Jobs that already carry pre-trained
    ``params`` or an explicit ``initial_params`` are returned unchanged,
    as are jobs whose source is missing from ``params_by_id`` (they
    simply train fresh — a degraded but correct outcome).
    """
    if spec.params is not None:
        return spec
    if spec.params_from is not None:
        entry = params_by_id.get(spec.params_from)
        if entry is None:
            return spec
        return replace(spec, params=entry)
    if spec.warm_start_from is None or spec.initial_params is not None:
        return spec
    entry = params_by_id.get(spec.warm_start_from)
    if entry is None:
        return spec
    return replace(spec, initial_params=entry)


class ExecutionBackend(ABC):
    """How a batch of independent QAOA jobs gets executed.

    Implementations must return results **in job order** and honour the
    per-job seed contract in the module docstring. Backends are stateless
    between ``run`` calls and safe to reuse.
    """

    #: Registry name; see :func:`repro.backend.resolve_backend`.
    name: str = "abstract"

    @abstractmethod
    def run(
        self,
        jobs: Sequence[JobSpec],
        control: "ExecutionControl | None" = None,
    ) -> list[JobResult]:
        """Execute every job and return their results in job order.

        ``control`` is the optional cooperative run-control (deadline,
        cancellation, per-job progress — see :class:`ExecutionControl`);
        backends honour it at job boundaries.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

