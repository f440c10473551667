"""Fault-tolerance policy for execution backends.

FrozenQubits sub-problems are *independent* (paper Sec. 3.3) — one flaky
job says nothing about its 2**m - 1 siblings, so an execution layer that
aborts a whole submission on the first raised exception throws away the
very independence the decomposition buys. A :class:`FaultPolicy` tells a
backend to exploit it instead: isolate each job's failure into its
:class:`~repro.backend.JobResult` (``run=None`` plus a
:class:`~repro.exceptions.JobError` record), retry transient errors a
bounded number of times with a deterministic seeded backoff, time out
runaway jobs, and abort only when a submission-level failure budget says
the batch as a whole is beyond saving. Jobs that stay failed degrade
gracefully downstream: :meth:`FrozenQubitsSolver.finalize` covers their
cells classically, so the decoded result still partitions the full
state-space.

Determinism: retrying a job re-runs it with the *same* spec, hence the
same child seed — a retry that succeeds is bit-identical to a first
attempt that succeeded, which is what makes the whole resilient path
pin against the fault-free run (see ``tests/test_faults.py``). Backoff
delays are derived from ``(backoff_seed, job_id, attempt)``, never from
wall-clock or global RNG state, so schedules replay exactly.

Fail-fast is one more policy value, not a separate code path: a backend
built without a policy runs under :data:`FAIL_FAST` (no retries, a
failure budget of zero), so the first failing job aborts the submission
as a :class:`~repro.exceptions.JobError` that names the job and chains
its root cause.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import (
    BackendError,
    CacheError,
    CircuitError,
    DeviceError,
    FreezeError,
    GraphError,
    HamiltonianError,
    JobTimeout,
    QAOAError,
    SimulationError,
    SolverError,
    TranspileError,
)
from repro.faults import deterministic_uniform

#: Library errors that are deterministic functions of the job's inputs:
#: re-running the identical spec re-raises the identical error, so
#: retrying them only burns budget. Everything else (OS-level errors,
#: timeouts, injected transients, crashed workers) defaults to transient.
PERMANENT_ERRORS = (
    GraphError,
    HamiltonianError,
    FreezeError,
    CircuitError,
    DeviceError,
    TranspileError,
    SimulationError,
    QAOAError,
    SolverError,
    CacheError,
)


def classify_error(exc: BaseException) -> str:
    """``"transient"`` or ``"permanent"`` for one raised job exception.

    An explicit ``transient`` attribute on the exception wins (that is
    how :class:`~repro.faults.InjectedFault` and
    :class:`~repro.exceptions.JobTimeout` steer the classifier); then the
    :data:`PERMANENT_ERRORS` taxonomy — deterministic library errors are
    permanent; anything unrecognized (OS errors, ``MemoryError``, a
    crashed worker) is worth the bounded retry and classifies transient.
    """
    transient = getattr(exc, "transient", None)
    if transient is not None:
        return "transient" if transient else "permanent"
    if isinstance(exc, PERMANENT_ERRORS):
        return "permanent"
    return "transient"


@dataclass(frozen=True)
class FaultPolicy:
    """How a backend contains, retries, and budgets job failures.

    Attributes:
        max_retries: Extra attempts after the first, per job, for
            transient failures (permanent ones fail immediately). A pool
            crash charges one retry to every job that was unfinished when
            the pool died.
        job_timeout_seconds: Per-attempt wall-clock limit. Enforced
            cooperatively: an attempt that comes back over the limit is
            discarded and treated as a transient
            :class:`~repro.exceptions.JobTimeout` (a genuinely wedged
            process is the pool-crash path's job — and CI's
            ``pytest-timeout`` backstop). ``None`` disables it.
        backoff_seconds: Base delay before a retry; attempt ``k`` waits
            ``backoff_seconds * 2**k``, scaled by a deterministic jitter
            in ``[0.5, 1.5)`` derived from ``(backoff_seed, job_id,
            attempt)``. The default 0.0 retries immediately.
        backoff_seed: Seed of the jitter stream.
        failure_budget: Submission-level cap on jobs allowed to fail
            permanently: an ``int`` is an absolute count, a ``float`` in
            ``[0, 1]`` a fraction of the submission, ``None`` is
            unlimited (every failure degrades gracefully). Exceeding the
            budget raises a :class:`~repro.exceptions.JobError` (a
            :class:`~repro.exceptions.BackendError`) naming the job that
            blew it — the batch is presumed beyond saving.
    """

    max_retries: int = 2
    job_timeout_seconds: "float | None" = None
    backoff_seconds: float = 0.0
    backoff_seed: int = 0
    failure_budget: "int | float | None" = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise BackendError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if (
            self.job_timeout_seconds is not None
            and self.job_timeout_seconds <= 0
        ):
            raise BackendError(
                f"job_timeout_seconds must be > 0, "
                f"got {self.job_timeout_seconds}"
            )
        if self.backoff_seconds < 0:
            raise BackendError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )
        if self.failure_budget is not None:
            budget = self.failure_budget
            if isinstance(budget, bool) or budget < 0:
                raise BackendError(
                    f"failure_budget must be >= 0 (int count or float "
                    f"fraction), got {budget!r}"
                )
            if isinstance(budget, float) and budget > 1.0:
                raise BackendError(
                    f"a float failure_budget is a fraction in [0, 1], "
                    f"got {budget}"
                )

    @property
    def max_attempts(self) -> int:
        """Total attempts per job (first run + retries)."""
        return self.max_retries + 1

    def classify(self, exc: BaseException) -> str:
        """Transient-vs-permanent verdict for one attempt's exception."""
        return classify_error(exc)

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        """Whether attempt ``attempt``'s failure ``exc`` earns another try."""
        return (
            self.classify(exc) != "permanent"
            and attempt + 1 < self.max_attempts
        )

    def timeout_error(
        self, job_id: str, attempt: int, elapsed_seconds: float
    ) -> "JobTimeout | None":
        """The :class:`~repro.exceptions.JobTimeout` of an attempt that
        busted the per-job limit (``None`` when it finished in time)."""
        if (
            self.job_timeout_seconds is None
            or elapsed_seconds <= self.job_timeout_seconds
        ):
            return None
        return JobTimeout(
            f"job {job_id!r} attempt {attempt} took {elapsed_seconds:.3f}s "
            f"(timeout {self.job_timeout_seconds}s)"
        )

    def backoff_for(self, job_id: str, attempt: int) -> float:
        """Deterministic delay before retrying ``job_id``'s ``attempt``.

        Exponential in the attempt index with seeded jitter; a pure
        function of ``(backoff_seed, job_id, attempt)`` so schedules
        replay bit-identically.
        """
        if self.backoff_seconds <= 0.0:
            return 0.0
        jitter = 0.5 + deterministic_uniform(
            self.backoff_seed, job_id, attempt
        )
        return self.backoff_seconds * (2.0**attempt) * jitter

    def allowed_failures(self, num_jobs: int) -> "int | None":
        """The submission's absolute failure allowance (``None`` = no cap)."""
        if self.failure_budget is None:
            return None
        if isinstance(self.failure_budget, float):
            return int(self.failure_budget * num_jobs)
        return int(self.failure_budget)


#: The policy of a backend built without one: no retries and a failure
#: budget of zero, so the first failing job aborts the submission.
FAIL_FAST = FaultPolicy(max_retries=0, failure_budget=0)


__all__ = ["FAIL_FAST", "FaultPolicy", "PERMANENT_ERRORS", "classify_error"]
