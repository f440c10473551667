"""Multiprocessing fan-out over the sub-problem (or workload) job list.

Each job is executed by :func:`repro.backend.base.execute_job` in a worker
process. Because a job's randomness is fully determined by its own child
seed (spawned via ``utils.rng.spawn_seeds`` at prepare time), scheduling
order is irrelevant: results are bit-identical to ``SerialBackend`` for the
same solver seed, whatever the worker count.

Failures follow the backend's :class:`~repro.backend.FaultPolicy`
(``FAIL_FAST`` unless one is given) through one futures loop, which also
survives the pool itself dying (``BrokenProcessPool`` — a worker
OOM-killed, segfaulted, or hard-exited): completed results of the current
level are kept, the pool is respawned, and only the jobs that were in
flight when it died are re-submitted, each charged one (transient) retry.
Because retries re-run the *same spec* — same child seed — and
``params_by_id`` entries of completed sources survive the respawn, a
recovered run is bit-identical to one that never crashed. Under
``FAIL_FAST`` the charge has no retry to spend, so a dead pool raises a
:class:`~repro.exceptions.JobError` naming an in-flight job.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from collections.abc import Sequence
from dataclasses import replace

from repro.backend.base import (
    ExecutionBackend,
    ExecutionControl,
    FailureBudget,
    JobResult,
    JobSpec,
    _backoff_sleep,
    dependency_levels,
    execute_job,
    execute_jobs_serially,
    failed_job_result,
    inject_warm_start,
    trained_params,
)
from repro.backend.policy import FAIL_FAST, FaultPolicy
from repro.exceptions import BackendError, SolverError


class ProcessPoolBackend(ExecutionBackend):
    """Execute jobs across a pool of worker processes.

    Args:
        max_workers: Pool size; defaults to the machine's CPU count.
        fault_policy: :class:`~repro.backend.FaultPolicy` for retrying and
            containing job failures and respawning a dead pool; ``None``
            installs :data:`~repro.backend.FAIL_FAST`.
    """

    name = "process"

    def __init__(
        self,
        max_workers: "int | None" = None,
        fault_policy: "FaultPolicy | None" = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise SolverError(f"max_workers must be >= 1, got {max_workers}")
        self._max_workers = max_workers or os.cpu_count() or 1
        self._fault_policy = fault_policy or FAIL_FAST

    @property
    def max_workers(self) -> int:
        """Configured pool size."""
        return self._max_workers

    @property
    def fault_policy(self) -> FaultPolicy:
        """The installed fault policy."""
        return self._fault_policy

    def run(
        self,
        jobs: Sequence[JobSpec],
        control: "ExecutionControl | None" = None,
    ) -> list[JobResult]:
        """Execute every job across the pool; results come back in job order.

        Dependent jobs (warm-start seeds, dedup adoptions) are submitted
        level by level after their source jobs complete, with the trained
        parameters injected into the dependent specs before pickling —
        workers never need to see another job's result. Each level runs
        as submit-all / collect-all rounds over its still-pending jobs: a
        job exception consumes one attempt (classified transient or
        permanent); a ``BrokenProcessPool`` keeps every result completed
        before the crash, respawns the pool, and charges one transient
        attempt to every job that was unfinished — jobs with attempts left
        simply ride the next round on the fresh pool. A ``control``'s
        deadline/cancel state is honoured before each round (in-flight
        futures still finish) and during retry backoff.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        policy = self._fault_policy
        # A single worker (or a single job) gains nothing from a pool;
        # skip the fork + pickle round-trip entirely.
        if self._max_workers == 1 or len(jobs) == 1:
            return execute_jobs_serially(jobs, policy, control)
        workers = min(self._max_workers, len(jobs))
        results: dict[int, JobResult] = {}
        params_by_id: dict = {}
        budget = FailureBudget(policy, len(jobs))
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            for level in dependency_levels(jobs):
                # Within-level jobs never depend on each other, so every
                # retry round injects from the same previous-level snapshot.
                snapshot = dict(params_by_id)
                # job index -> (next attempt number, spent attempt seconds)
                pending: "dict[int, tuple[int, tuple[float, ...]]]" = {
                    i: (0, ()) for i in level
                }
                while pending:
                    if control is not None:
                        control.checkpoint("retry round submission")
                    submitted = []
                    for i in sorted(pending):
                        attempt, _ = pending[i]
                        spec = inject_warm_start(jobs[i], snapshot)
                        try:
                            future = pool.submit(execute_job, spec, attempt)
                        except BrokenProcessPool as exc:
                            # A worker died while this round was still
                            # being submitted: the job is as unfinished
                            # as one in flight, and is charged the same.
                            future = Future()
                            future.set_exception(exc)
                        submitted.append((i, spec, time.perf_counter(), future))
                    unfinished = []
                    for i, spec, submit_time, future in submitted:
                        try:
                            result = future.result()
                        except (BrokenProcessPool, CancelledError):
                            unfinished.append((i, spec, submit_time))
                            continue
                        except Exception as exc:
                            self._consume_attempt(
                                i,
                                spec,
                                exc,
                                time.perf_counter() - submit_time,
                                policy,
                                pending,
                                results,
                                budget,
                                control,
                            )
                            continue
                        attempt, secs = pending[i]
                        timeout = policy.timeout_error(
                            spec.job_id, attempt, result.elapsed_seconds
                        )
                        if timeout is not None:
                            self._consume_attempt(
                                i,
                                spec,
                                timeout,
                                result.elapsed_seconds,
                                policy,
                                pending,
                                results,
                                budget,
                                control,
                            )
                            continue
                        secs = secs + (result.elapsed_seconds,)
                        results[i] = replace(
                            result,
                            elapsed_seconds=float(sum(secs)),
                            attempts=len(secs),
                            attempt_seconds=secs,
                        )
                        del pending[i]
                        if control is not None:
                            control.notify_job_done(result.job_id, False)
                        params_by_id[result.job_id] = trained_params(result)
                    if unfinished:
                        # Completed results above are already banked; only
                        # the in-flight jobs re-run, on a fresh pool.
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = ProcessPoolExecutor(max_workers=workers)
                        for i, spec, submit_time in unfinished:
                            attempt, _ = pending[i]
                            crash = BackendError(
                                f"worker pool died while job "
                                f"{spec.job_id!r} attempt {attempt} was "
                                f"in flight"
                            )
                            crash.transient = True
                            self._consume_attempt(
                                i,
                                spec,
                                crash,
                                time.perf_counter() - submit_time,
                                policy,
                                pending,
                                results,
                                budget,
                                control,
                                backoff=False,
                            )
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return [results[index] for index in range(len(jobs))]

    @staticmethod
    def _consume_attempt(
        index: int,
        spec: JobSpec,
        exc: BaseException,
        elapsed: float,
        policy: FaultPolicy,
        pending: "dict[int, tuple[int, tuple[float, ...]]]",
        results: "dict[int, JobResult]",
        budget: FailureBudget,
        control: "ExecutionControl | None",
        backoff: bool = True,
    ) -> None:
        """Charge one failed attempt to a pending job.

        Either leaves the job in ``pending`` with the attempt counter
        bumped (transient, attempts left) or moves its terminal failure
        record into ``results``, reports it to ``control``, and debits the
        submission budget.
        """
        attempt, secs = pending[index]
        secs = secs + (elapsed,)
        if not policy.should_retry(exc, attempt):
            failure = failed_job_result(spec.job_id, secs, exc)
            results[index] = failure
            del pending[index]
            if control is not None:
                control.notify_job_done(spec.job_id, True)
            budget.record(failure)
            return
        if backoff:
            _backoff_sleep(policy, spec.job_id, attempt, control)
        pending[index] = (attempt + 1, secs)

    def __repr__(self) -> str:
        return (
            f"ProcessPoolBackend(max_workers={self._max_workers}, "
            f"fault_policy={self._fault_policy!r})"
        )
