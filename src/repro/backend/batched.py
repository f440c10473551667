"""Backend that stacks same-shape circuit simulations into vectorized passes.

FrozenQubits siblings share one circuit structure (Sec. 3.7.1), so after
the per-job training stage their sampling simulations differ only in
spectra and angles — exactly what the fused diagonal QAOA kernel's
fan-out path (:func:`repro.sim.qaoa_kernel.qaoa_probabilities_fanout`)
evaluates in one stacked pass: per-sibling cost diagonals, shared mixer
contractions. The run is therefore phased:

1. **train** every job in order (data-dependent, stays sequential;
   analytic and cheap at p = 1),
2. **group** the trained jobs by (qubit count, depth),
3. **simulate** each group with one stacked fused pass,
4. **finish** every job in order, feeding it its pre-computed distribution.

Per-job RNG streams are untouched by the re-ordering, so results match
``SerialBackend`` up to floating-point reassociation inside the stacked
elementwise kernels (and exactly in the common case where they
reassociate the same — the serial finish path runs the same fused kernel
one row at a time).

The backend's :class:`~repro.backend.FaultPolicy` (``FAIL_FAST`` unless
one is given) governs the training stage through the shared
:func:`~repro.backend.base.attempt_with_policy` loop — the only stage
where a failure is attributable to a single job; the stacked passes are
shared.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.backend.base import (
    ExecutionBackend,
    ExecutionControl,
    FailureBudget,
    JobResult,
    JobSpec,
    TrainedInstance,
    attempt_with_policy,
    dependency_levels,
    failed_job_result,
    finish_qaoa_instance,
    fire_fault_injection,
    inject_warm_start,
    shared_optimums,
    train_job,
)
from repro.backend.policy import FAIL_FAST, FaultPolicy
from repro.cache.memo import cached_anneal_many
from repro.exceptions import JobError, SolverError
from repro.ising.annealer import AnnealResult
from repro.sim.qaoa_kernel import qaoa_probabilities_fanout


def _train_attempt(spec: JobSpec, attempt: int) -> TrainedInstance:
    """One attempt of a job's training stage (fault injection first)."""
    fire_fault_injection(spec, attempt)
    return train_job(spec)


class BatchedStatevectorBackend(ExecutionBackend):
    """Execute jobs with their statevector simulations stacked.

    Args:
        max_batch_size: Largest circuit group simulated in one pass; bounds
            peak memory at ``max_batch_size * 2**n`` amplitudes.
        fault_policy: :class:`~repro.backend.FaultPolicy` for retrying
            and containing *training-stage* failures (timeouts are
            measured on the training stage only — the stacked simulation
            is shared across jobs, so its wall-clock is not attributable
            to one of them); ``None`` installs
            :data:`~repro.backend.FAIL_FAST`. Failed jobs drop out of the
            stacked passes and come back as failure records.
    """

    name = "batched"

    def __init__(
        self,
        max_batch_size: int = 64,
        fault_policy: "FaultPolicy | None" = None,
    ) -> None:
        if max_batch_size < 1:
            raise SolverError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        self._max_batch_size = max_batch_size
        self._fault_policy = fault_policy or FAIL_FAST

    @property
    def fault_policy(self) -> FaultPolicy:
        """The installed fault policy."""
        return self._fault_policy

    def run(
        self,
        jobs: Sequence[JobSpec],
        control: "ExecutionControl | None" = None,
    ) -> list[JobResult]:
        """Train sequentially, simulate stacked, finish in job order.

        Training runs in dependency-level order (sources before their
        warm-start or dedup dependents, submission order within each
        level); the stacked simulation and the finish stage are unaffected
        by the re-ordering because each job's RNG stream is its own. A
        ``control``'s deadline/cancel state is checked before every
        training job, every training retry and every stacked pass, and it
        cuts retry backoff short; per-job completion is reported from the
        finish stage (the first point where a job's outcome is final).
        """
        jobs = list(jobs)
        policy = self._fault_policy
        elapsed = [0.0] * len(jobs)
        attempt_secs: "list[tuple[float, ...]]" = [()] * len(jobs)
        trained: list = [None] * len(jobs)
        failures: "dict[int, JobResult]" = {}
        params_by_id: dict = {}
        budget = FailureBudget(policy, len(jobs))
        for level in dependency_levels(jobs):
            # Snapshot injection (previous levels only) — matches the
            # serial reference semantics; see execute_jobs_serially.
            snapshot = dict(params_by_id)
            for index in level:
                if control is not None:
                    control.checkpoint(f"training {jobs[index].job_id!r}")
                spec = inject_warm_start(jobs[index], snapshot)
                instance, secs, exc = attempt_with_policy(
                    spec, policy, _train_attempt, control
                )
                attempt_secs[index] = secs
                elapsed[index] = float(sum(secs))
                if exc is not None:
                    failure = failed_job_result(spec.job_id, secs, exc)
                    failures[index] = failure
                    budget.record(failure)
                    continue
                trained[index] = instance
                params_by_id[spec.job_id] = shared_optimums(
                    instance.optimization
                )

        # Group the jobs that need a simulation by (width, depth) and run
        # one stacked fused pass per group (chunked to bound memory). Each
        # pass's duration is split evenly across its members for the
        # bookkeeping.
        probs_for_job = {}
        fused_groups: dict[tuple, list[int]] = {}
        for index, instance in enumerate(trained):
            if instance is None:
                continue  # terminally failed in training; no simulation
            if instance.needs_sampling:
                key = (
                    instance.hamiltonian.num_qubits,
                    len(instance.optimization.gammas),
                )
                fused_groups.setdefault(key, []).append(index)
        for members in fused_groups.values():
            for chunk_start in range(0, len(members), self._max_batch_size):
                if control is not None:
                    control.checkpoint("stacked simulation pass")
                chunk = members[chunk_start : chunk_start + self._max_batch_size]
                t0 = time.perf_counter()
                rows = qaoa_probabilities_fanout(
                    [trained[i].hamiltonian for i in chunk],
                    np.asarray(
                        [trained[i].optimization.gammas for i in chunk]
                    ),
                    np.asarray(
                        [trained[i].optimization.betas for i in chunk]
                    ),
                )
                share = (time.perf_counter() - t0) / len(chunk)
                for row, job_index in zip(rows, chunk):
                    probs_for_job[job_index] = row
                    elapsed[job_index] += share

        # Sampling-cap fallbacks: anneal every uncovered instance in one
        # batched multi-replica pass. The per-instance fallback seed is
        # drawn from the instance's own stream exactly as the serial
        # finish path would (see sampling_cap_fallback_anneal), so the
        # batching changes no result bit.
        fallback_for_job: dict[int, AnnealResult] = {}
        fallback_indices = [
            index
            for index, instance in enumerate(trained)
            if instance is not None and not instance.needs_sampling
        ]
        if fallback_indices:
            from repro.cache import get_default_cache

            t0 = time.perf_counter()
            fallback_seeds = [
                int(trained[index].rng.integers(0, 2**31 - 1))
                for index in fallback_indices
            ]
            anneals = cached_anneal_many(
                [trained[index].hamiltonian for index in fallback_indices],
                seeds=fallback_seeds,
                cache=get_default_cache(),
            )
            share = (time.perf_counter() - t0) / len(fallback_indices)
            for index, anneal in zip(fallback_indices, anneals):
                fallback_for_job[index] = anneal
                elapsed[index] += share

        results = []
        for index, spec in enumerate(jobs):
            if trained[index] is None:
                results.append(failures[index])
                if control is not None:
                    control.notify_job_done(spec.job_id, True)
                continue
            t0 = time.perf_counter()
            try:
                run = finish_qaoa_instance(
                    trained[index],
                    ideal_probs=probs_for_job.get(index),
                    fallback_anneal=fallback_for_job.get(index),
                )
            except Exception as exc:
                raise JobError(
                    f"job {spec.job_id!r} failed: {exc}",
                    job_id=spec.job_id,
                ) from exc
            elapsed[index] += time.perf_counter() - t0
            # The successful attempt's entry absorbs this job's share of
            # the stacked simulation and finish stages, keeping the
            # invariant sum(attempt_seconds) == elapsed_seconds.
            secs = attempt_secs[index]
            secs = secs[:-1] + (
                secs[-1] + (elapsed[index] - float(sum(secs))),
            )
            results.append(
                JobResult(
                    job_id=spec.job_id,
                    run=run,
                    elapsed_seconds=elapsed[index],
                    attempts=len(secs),
                    attempt_seconds=secs,
                )
            )
            if control is not None:
                control.notify_job_done(spec.job_id, False)
        return results

    def __repr__(self) -> str:
        return (
            f"BatchedStatevectorBackend("
            f"max_batch_size={self._max_batch_size}, "
            f"fault_policy={self._fault_policy!r})"
        )
