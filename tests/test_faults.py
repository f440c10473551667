"""Tests for the fault-tolerant execution layer.

The load-bearing guarantees: a retry re-runs the same spec (same child
seed), so a recovered run is bit-identical to one that never failed; a
dead worker pool is respawned with completed results preserved; jobs that
exhaust their retries degrade to classical coverage with honest
provenance instead of aborting the solve; and — with no policy installed
— every backend fails fast through the same path (FAIL_FAST: the first
failure arrives as a JobError naming the job, with the cause chained).

Every fault here is injected deterministically through
:mod:`repro.faults`; the magic fault seeds were chosen (and are pinned by
the hash construction) so each probabilistic plan clears within its retry
budget.
"""

import math
import os
import pickle
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backend import process_pool
from repro.backend import (
    FAIL_FAST,
    ExecutionControl,
    FaultPolicy,
    JobSpec,
    ProcessPoolBackend,
    SerialBackend,
    classify_error,
    execute_job,
    execute_job_with_policy,
    execute_jobs_serially,
)
from repro.cache import SolveCache
from repro.core import FrozenQubitsSolver, SolverConfig
from repro.devices import get_backend
from repro.exceptions import (
    BackendError,
    ExecutionCancelled,
    GraphError,
    JobError,
    JobTimeout,
    SolverError,
)
from repro.faults import (
    FAULTS_ENV_VAR,
    FaultInjection,
    InjectedFault,
    active_fault_injection,
    deterministic_uniform,
    injection_from_env,
    tear_artifact,
)
from repro.graphs.generators import barabasi_albert_graph
from repro.ising.hamiltonian import IsingHamiltonian, random_pm1_hamiltonian
from repro.recursive import RecursiveConfig, solve_recursive

FAST = SolverConfig(shots=512, grid_resolution=6, maxiter=20)


def _problem(num_qubits=8, seed=42):
    graph = barabasi_albert_graph(num_qubits, attachment=1, seed=seed)
    return IsingHamiltonian.from_graph(
        graph, weights="random_pm1", seed=seed + 1
    )


def _spec(job_id="job", seed=7, config=FAST, **kwargs):
    return JobSpec(
        job_id=job_id,
        hamiltonian=_problem(6, seed=11),
        config=config,
        seed=seed,
        **kwargs,
    )


def _ev(value):
    # NaN != NaN would wreck tuple equality for failed cells; normalize
    # to a sentinel so two runs with the same NaN pattern compare equal.
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return value


def _signature(result):
    """Every scientific field, bitwise (see benchmarks/bench_cache.py)."""
    return (
        tuple(result.frozen_qubits),
        result.best_spins,
        result.best_value,
        _ev(result.ev_ideal),
        _ev(result.ev_noisy),
        tuple(
            (
                o.subproblem.index,
                o.source,
                o.best_spins,
                o.best_value,
                _ev(o.ev_ideal),
                _ev(o.ev_noisy),
                tuple(sorted(o.decoded_counts.items()))
                if o.decoded_counts is not None
                else None,
            )
            for o in result.outcomes
        ),
    )


# ----------------------------------------------------------------------
# The deterministic fault injector
# ----------------------------------------------------------------------
class TestDeterministicUniform:
    def test_pure_function_of_arguments(self):
        assert deterministic_uniform(3, "sp1", 0) == deterministic_uniform(
            3, "sp1", 0
        )
        assert deterministic_uniform(3, "sp1", 0) != deterministic_uniform(
            3, "sp1", 1
        )
        assert deterministic_uniform(3, "sp1", 0) != deterministic_uniform(
            4, "sp1", 0
        )

    @given(
        seed=st.integers(0, 2**31),
        job_id=st.text(max_size=8),
        attempt=st.integers(0, 5),
    )
    @settings(max_examples=50, deadline=None)
    def test_always_in_unit_interval(self, seed, job_id, attempt):
        draw = deterministic_uniform(seed, job_id, attempt)
        assert 0.0 <= draw < 1.0


class TestFaultInjectionPlan:
    def test_dict_and_pair_forms_are_equal_and_hashable(self):
        a = FaultInjection(fail_jobs={"a": 1, "b": None})
        b = FaultInjection(fail_jobs=(("b", None), ("a", 1)))
        assert a == b
        assert hash(a) == hash(b)

    def test_pickle_roundtrip(self):
        plan = FaultInjection(
            seed=5,
            fail_jobs={"a": 2},
            fail_probability=0.1,
            kill_worker_jobs={"b": 0},
            slow_jobs={"c": 0.5},
            cache_write_error_kinds=("params",),
        )
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_json_roundtrip(self):
        plan = FaultInjection(
            seed=5, fail_jobs={"a": 2}, torn_cache_kinds=("anneal",)
        )
        assert FaultInjection.from_json(plan.to_json()) == plan

    def test_from_json_rejects_junk(self):
        with pytest.raises(ValueError):
            FaultInjection.from_json("[1, 2]")
        with pytest.raises(ValueError):
            FaultInjection.from_json('{"no_such_field": 1}')

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            FaultInjection(fail_probability=1.5)

    def test_fail_jobs_transient_for_k_attempts(self):
        plan = FaultInjection(fail_jobs={"a": 2})
        for attempt in (0, 1):
            with pytest.raises(InjectedFault) as excinfo:
                plan.fire("a", attempt)
            assert excinfo.value.transient
        plan.fire("a", 2)  # attempt 2 passes
        plan.fire("other", 0)  # unnamed jobs never fire

    def test_fail_jobs_none_is_permanent_every_attempt(self):
        plan = FaultInjection(fail_jobs={"a": None})
        for attempt in (0, 1, 7):
            with pytest.raises(InjectedFault) as excinfo:
                plan.fire("a", attempt)
            assert not excinfo.value.transient

    def test_probabilistic_fault_matches_the_draw(self):
        plan = FaultInjection(seed=3, fail_probability=0.5)
        for job_id in ("sp0", "sp1", "sp2", "sp3"):
            for attempt in range(3):
                should_fail = deterministic_uniform(3, job_id, attempt) < 0.5
                if should_fail:
                    with pytest.raises(InjectedFault):
                        plan.fire(job_id, attempt)
                else:
                    plan.fire(job_id, attempt)

    def test_kill_is_a_noop_in_the_main_process(self):
        # os._exit would end the interpreter; outside a pool worker the
        # kill degrades to nothing.
        FaultInjection(kill_worker_jobs={"a": 0}).fire("a", 0)

    def test_injected_fault_pickles_with_flag(self):
        fault = InjectedFault("boom", transient=False)
        clone = pickle.loads(pickle.dumps(fault))
        assert not clone.transient
        assert str(clone) == "boom"

    def test_env_hook(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        assert injection_from_env() is None
        plan = FaultInjection(fail_jobs={"a": 1})
        monkeypatch.setenv(FAULTS_ENV_VAR, plan.to_json())
        assert injection_from_env() == plan
        # memoized: same raw string, same object
        assert injection_from_env() is injection_from_env()
        # an explicit config plan wins over the environment
        override = FaultInjection(fail_probability=0.5)
        config = SolverConfig(fault_injection=override)
        assert active_fault_injection(config) == override
        assert active_fault_injection(SolverConfig()) == plan
        assert active_fault_injection(None) == plan


# ----------------------------------------------------------------------
# The policy
# ----------------------------------------------------------------------
class TestFaultPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"job_timeout_seconds": 0.0},
            {"backoff_seconds": -0.1},
            {"failure_budget": -1},
            {"failure_budget": 1.5},
            {"failure_budget": True},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(BackendError):
            FaultPolicy(**kwargs)

    def test_max_attempts(self):
        assert FaultPolicy(max_retries=0).max_attempts == 1
        assert FaultPolicy(max_retries=3).max_attempts == 4

    def test_classifier_over_the_taxonomy(self):
        assert classify_error(GraphError("bad graph")) == "permanent"
        assert classify_error(SolverError("bad solve")) == "permanent"
        assert classify_error(OSError("flaky disk")) == "transient"
        assert classify_error(MemoryError()) == "transient"
        # explicit transient attribute wins over the taxonomy
        assert classify_error(JobTimeout("slow")) == "transient"
        assert classify_error(InjectedFault("x", transient=True)) == "transient"
        assert (
            classify_error(InjectedFault("x", transient=False)) == "permanent"
        )

    def test_backoff_is_deterministic_and_exponential(self):
        policy = FaultPolicy(backoff_seconds=0.1, backoff_seed=9)
        first = policy.backoff_for("sp1", 0)
        assert first == policy.backoff_for("sp1", 0)
        assert 0.05 <= first < 0.15
        assert 0.1 <= policy.backoff_for("sp1", 1) < 0.3
        # zero base means no sleep at all
        assert FaultPolicy().backoff_for("sp1", 3) == 0.0

    def test_allowed_failures(self):
        assert FaultPolicy().allowed_failures(16) is None
        assert FaultPolicy(failure_budget=3).allowed_failures(16) == 3
        assert FaultPolicy(failure_budget=0.25).allowed_failures(16) == 4
        assert FaultPolicy(failure_budget=0.0).allowed_failures(16) == 0


# ----------------------------------------------------------------------
# Per-job retry semantics
# ----------------------------------------------------------------------
class TestExecuteJobWithPolicy:
    def test_transient_recovery_is_bit_identical(self):
        clean = execute_job(_spec())
        faulty = SolverConfig(
            shots=FAST.shots,
            grid_resolution=FAST.grid_resolution,
            maxiter=FAST.maxiter,
            fault_injection=FaultInjection(fail_jobs={"job": 2}),
        )
        retried = execute_job_with_policy(
            _spec(config=faulty), FaultPolicy(max_retries=2)
        )
        assert not retried.failed
        assert retried.attempts == 3
        assert len(retried.attempt_seconds) == 3
        assert retried.elapsed_seconds == pytest.approx(
            sum(retried.attempt_seconds)
        )
        assert retried.run.best_spins == clean.run.best_spins
        assert retried.run.best_value == clean.run.best_value
        assert retried.run.ev_ideal == clean.run.ev_ideal

    def test_permanent_error_fails_without_retrying(self):
        faulty = SolverConfig(
            fault_injection=FaultInjection(fail_jobs={"job": None})
        )
        result = execute_job_with_policy(
            _spec(config=faulty), FaultPolicy(max_retries=5)
        )
        assert result.failed
        assert result.run is None
        assert result.attempts == 1
        assert isinstance(result.error, JobError)
        assert result.error.job_id == "job"
        assert isinstance(result.error.__cause__, InjectedFault)

    def test_transient_exhaustion_records_every_attempt(self):
        faulty = SolverConfig(
            fault_injection=FaultInjection(fail_jobs={"job": 99})
        )
        result = execute_job_with_policy(
            _spec(config=faulty), FaultPolicy(max_retries=2)
        )
        assert result.failed
        assert result.attempts == 3
        assert len(result.attempt_seconds) == 3
        assert result.error.attempts == 3

    def test_slow_job_trips_the_timeout_then_recovers(self):
        clean = execute_job(_spec())
        faulty = SolverConfig(
            shots=FAST.shots,
            grid_resolution=FAST.grid_resolution,
            maxiter=FAST.maxiter,
            fault_injection=FaultInjection(slow_jobs={"job": 0.3}),
        )
        policy = FaultPolicy(max_retries=1, job_timeout_seconds=0.15)
        result = execute_job_with_policy(_spec(config=faulty), policy)
        assert not result.failed
        assert result.attempts == 2
        assert result.attempt_seconds[0] > 0.15
        assert result.run.best_spins == clean.run.best_spins

    def test_timeout_exhaustion_fails_with_job_timeout(self):
        faulty = SolverConfig(
            shots=FAST.shots,
            grid_resolution=FAST.grid_resolution,
            maxiter=FAST.maxiter,
            fault_injection=FaultInjection(slow_jobs={"job": 0.3}),
        )
        policy = FaultPolicy(max_retries=0, job_timeout_seconds=0.15)
        result = execute_job_with_policy(_spec(config=faulty), policy)
        assert result.failed
        assert isinstance(result.error.__cause__, JobTimeout)


class TestSerialFailFast:
    def test_exceptions_arrive_as_job_error_with_cause(self):
        faulty = SolverConfig(
            fault_injection=FaultInjection(fail_jobs={"bad": None})
        )
        jobs = [_spec("good", seed=3), _spec("bad", seed=4, config=faulty)]
        with pytest.raises(JobError) as excinfo:
            execute_jobs_serially(jobs)
        assert excinfo.value.job_id == "bad"
        assert isinstance(excinfo.value.__cause__, InjectedFault)


class TestDependencyDegradation:
    def test_failed_warm_start_source_degrades_dependent_to_fresh(self):
        faulty = SolverConfig(
            shots=FAST.shots,
            grid_resolution=FAST.grid_resolution,
            maxiter=FAST.maxiter,
            fault_injection=FaultInjection(fail_jobs={"source": None}),
        )
        jobs = [
            _spec("source", seed=3, config=faulty),
            _spec("dependent", seed=4, config=faulty, warm_start_from="source"),
        ]
        results = execute_jobs_serially(jobs, policy=FaultPolicy(max_retries=1))
        assert results[0].failed
        assert not results[1].failed
        # The dependent trained fresh — exactly what it does standalone.
        standalone = execute_job(_spec("dependent", seed=4))
        assert results[1].run.best_spins == standalone.run.best_spins
        assert results[1].run.best_value == standalone.run.best_value
        assert (
            results[1].run.optimization.gammas
            == standalone.run.optimization.gammas
        )

    def test_failed_params_from_source_degrades_dependent_to_fresh(self):
        faulty = SolverConfig(
            shots=FAST.shots,
            grid_resolution=FAST.grid_resolution,
            maxiter=FAST.maxiter,
            fault_injection=FaultInjection(fail_jobs={"source": None}),
        )
        jobs = [
            _spec("source", seed=3, config=faulty),
            _spec("dependent", seed=4, config=faulty, params_from="source"),
        ]
        results = execute_jobs_serially(jobs, policy=FaultPolicy(max_retries=0))
        assert results[0].failed
        assert not results[1].failed
        standalone = execute_job(_spec("dependent", seed=4))
        assert results[1].run.best_value == standalone.run.best_value

    def test_mixed_level_with_surviving_source_still_injects(self):
        # One source fails, one succeeds: the surviving source's dependent
        # must still adopt its parameters (params_by_id survives failures).
        faulty = SolverConfig(
            shots=FAST.shots,
            grid_resolution=FAST.grid_resolution,
            maxiter=FAST.maxiter,
            fault_injection=FaultInjection(fail_jobs={"dead": None}),
        )
        jobs = [
            _spec("dead", seed=3, config=faulty),
            _spec("alive", seed=4, config=faulty),
            _spec("leans-on-dead", seed=5, config=faulty, params_from="dead"),
            _spec("leans-on-alive", seed=6, config=faulty, params_from="alive"),
        ]
        results = execute_jobs_serially(jobs, policy=FaultPolicy(max_retries=0))
        assert [r.failed for r in results] == [True, False, False, False]
        assert (
            results[3].run.optimization.gammas
            == results[1].run.optimization.gammas
        )


class TestFailureBudget:
    def test_zero_budget_aborts_on_first_terminal_failure(self):
        faulty = SolverConfig(
            fault_injection=FaultInjection(fail_jobs={"bad": None})
        )
        jobs = [_spec("bad", seed=3, config=faulty), _spec("good", seed=4)]
        with pytest.raises(BackendError):
            execute_jobs_serially(
                jobs,
                policy=FaultPolicy(max_retries=0, failure_budget=0),
            )

    def test_budget_allows_up_to_the_cap(self):
        faulty = SolverConfig(
            shots=FAST.shots,
            grid_resolution=FAST.grid_resolution,
            maxiter=FAST.maxiter,
            fault_injection=FaultInjection(fail_jobs={"bad": None}),
        )
        jobs = [_spec("bad", seed=3, config=faulty), _spec("good", seed=4)]
        results = execute_jobs_serially(
            jobs, policy=FaultPolicy(max_retries=0, failure_budget=1)
        )
        assert results[0].failed and not results[1].failed


# ----------------------------------------------------------------------
# One fault contract on every backend
# ----------------------------------------------------------------------
BACKENDS = {
    "serial": lambda policy: SerialBackend(fault_policy=policy),
    "process": lambda policy: ProcessPoolBackend(
        max_workers=2, fault_policy=policy
    ),
}


def _fan_out(**plan):
    """Four sibling specs sp0..sp3 under one fault plan."""
    config = replace(FAST, fault_injection=FaultInjection(**plan))
    return [_spec(f"sp{i}", seed=3 + i, config=config) for i in range(4)]


@pytest.mark.parametrize("name", sorted(BACKENDS))
class TestOneFaultContract:
    def test_no_policy_means_fail_fast(self, name):
        backend = BACKENDS[name](None)
        assert backend.fault_policy == FAIL_FAST
        with pytest.raises(JobError) as excinfo:
            backend.run(_fan_out(fail_jobs={"sp1": None}))
        assert excinfo.value.job_id == "sp1"
        assert isinstance(excinfo.value.__cause__, InjectedFault)

    def test_every_job_is_reported_once(self, name):
        seen = []
        control = ExecutionControl(
            on_job_done=lambda job_id, failed: seen.append((job_id, failed))
        )
        backend = BACKENDS[name](FaultPolicy(max_retries=0))
        results = backend.run(_fan_out(fail_jobs={"sp1": None}), control)
        assert [r.failed for r in results] == [False, True, False, False]
        assert sorted(seen) == [
            ("sp0", False),
            ("sp1", True),
            ("sp2", False),
            ("sp3", False),
        ]

    def test_cancel_cuts_retry_backoff_short(self, name):
        # sp0 fails on every attempt; its backoff schedule is ~1 s, 2 s,
        # 3.4 s. A cancel 0.2 s in must end the submission, not sit it out.
        policy = FaultPolicy(max_retries=3, backoff_seconds=1.0)
        assert policy.backoff_for("sp0", 0) > 0.5
        control = ExecutionControl(cancel=threading.Event())
        timer = threading.Timer(0.2, control.cancel.set)
        backend = BACKENDS[name](policy)
        started = time.monotonic()
        timer.start()
        try:
            with pytest.raises(ExecutionCancelled):
                backend.run(_fan_out(fail_jobs={"sp0": 99}), control)
        finally:
            timer.cancel()
            timer.join(5.0)
        assert time.monotonic() - started < 1.0
        assert not timer.is_alive()


# ----------------------------------------------------------------------
# Solver-level degradation
# ----------------------------------------------------------------------
class TestSolverDegradation:
    def test_policy_without_faults_pins_default_behaviour(self):
        problem = _problem()
        base = FrozenQubitsSolver(num_frozen=2, config=FAST, seed=13).solve(
            problem, backend=SerialBackend()
        )
        hardened = FrozenQubitsSolver(
            num_frozen=2, config=FAST, seed=13
        ).solve(problem, backend=SerialBackend(fault_policy=FaultPolicy()))
        assert _signature(base) == _signature(hardened)
        assert hardened.num_failed_jobs == 0
        assert hardened.num_job_retries == 0

    def test_permanent_failure_is_covered_classically(self):
        problem = _problem()
        config = SolverConfig(
            shots=FAST.shots,
            grid_resolution=FAST.grid_resolution,
            maxiter=FAST.maxiter,
            fault_injection=FaultInjection(fail_jobs={"sp1": None}),
        )
        result = FrozenQubitsSolver(
            num_frozen=2, config=config, seed=13
        ).solve(
            problem, backend=SerialBackend(fault_policy=FaultPolicy())
        )
        assert result.num_failed_jobs == 1
        failed = [o for o in result.outcomes if o.source == "failed"]
        assert len(failed) == 1
        outcome = failed[0]
        # Covered: a valid assignment with the parent cost, NaN EVs.
        assert problem.evaluate(outcome.best_spins) == outcome.best_value
        assert math.isnan(outcome.ev_ideal)
        assert outcome.fallback is not None
        assert isinstance(outcome.error, JobError)
        # Accounting: one circuit was never executed.
        base = FrozenQubitsSolver(num_frozen=2, config=FAST, seed=13).solve(
            problem
        )
        assert (
            result.num_circuits_executed == base.num_circuits_executed - 1
        )
        provenance = result.failure_provenance
        assert list(provenance) == [outcome.subproblem.index]
        assert provenance[outcome.subproblem.index]["covered_value"] == (
            outcome.best_value
        )
        # The full state-space is still partitioned.
        assert len(result.outcomes) == len(base.outcomes)

    def test_transient_recovery_is_bit_identical_to_fault_free(self):
        problem = _problem()
        base = FrozenQubitsSolver(num_frozen=2, config=FAST, seed=13).solve(
            problem, backend=SerialBackend()
        )
        config = SolverConfig(
            shots=FAST.shots,
            grid_resolution=FAST.grid_resolution,
            maxiter=FAST.maxiter,
            fault_injection=FaultInjection(fail_jobs={"sp0": 2, "sp1": 1}),
        )
        recovered = FrozenQubitsSolver(
            num_frozen=2, config=config, seed=13
        ).solve(
            problem,
            backend=SerialBackend(fault_policy=FaultPolicy(max_retries=2)),
        )
        assert _signature(base) == _signature(recovered)
        assert recovered.num_failed_jobs == 0
        assert recovered.num_job_retries == 3

    @given(fault_seed=st.integers(0, 2**31 - 1))
    # Job sp0 draws below 0.3 on all eight attempts at this seed.
    @example(fault_seed=6804240)
    @settings(max_examples=8, deadline=None)
    def test_property_recovered_runs_pin_the_fault_free_run(self, fault_seed):
        """(seed, policy, plan) -> bit-identical whenever retries succeed.

        A job exhausts the budget only if all eight of its draws fall
        below p (0.3^8, about one seed in 7,600 per job), so the plan's
        own draws name the jobs that must come back failed; a seed that
        names none must reconverge bitwise.
        """
        problem = _problem(6, seed=17)
        base = FrozenQubitsSolver(num_frozen=1, config=FAST, seed=5).solve(
            problem, backend=SerialBackend()
        )
        plan = FaultInjection(seed=fault_seed, fail_probability=0.3)
        policy = FaultPolicy(max_retries=7)
        prepared = FrozenQubitsSolver(
            num_frozen=1, config=FAST, seed=5
        ).prepare_jobs(problem)
        exhausted = {
            sp.index
            for sp, job in zip(prepared.executed, prepared.jobs)
            if all(
                deterministic_uniform(fault_seed, job.job_id, attempt)
                < plan.fail_probability
                for attempt in range(policy.max_retries + 1)
            )
        }
        config = SolverConfig(
            shots=FAST.shots,
            grid_resolution=FAST.grid_resolution,
            maxiter=FAST.maxiter,
            fault_injection=plan,
        )
        result = FrozenQubitsSolver(
            num_frozen=1, config=config, seed=5
        ).solve(problem, backend=SerialBackend(fault_policy=policy))
        assert result.num_failed_jobs == len(exhausted)
        failed = [o for o in result.outcomes if o.source == "failed"]
        assert {o.subproblem.index for o in failed} == exhausted
        for outcome in failed:
            assert problem.evaluate(outcome.best_spins) == outcome.best_value
        if not exhausted:
            assert _signature(base) == _signature(result)


# ----------------------------------------------------------------------
# Process-pool crash recovery
# ----------------------------------------------------------------------
class TestProcessPoolResilience:
    def test_killed_worker_recovers_bit_identically(self):
        problem = _problem()
        base = FrozenQubitsSolver(num_frozen=2, config=FAST, seed=13).solve(
            problem, backend=SerialBackend()
        )
        config = SolverConfig(
            shots=FAST.shots,
            grid_resolution=FAST.grid_resolution,
            maxiter=FAST.maxiter,
            fault_injection=FaultInjection(kill_worker_jobs={"sp0": 0}),
        )
        recovered = FrozenQubitsSolver(
            num_frozen=2, config=config, seed=13
        ).solve(
            problem,
            backend=ProcessPoolBackend(
                max_workers=2, fault_policy=FaultPolicy(max_retries=2)
            ),
        )
        assert _signature(base) == _signature(recovered)
        assert recovered.num_failed_jobs == 0
        # At least the killed job was charged a crash retry.
        assert recovered.num_job_retries >= 1

    def test_dead_pool_without_policy_raises_backend_error(self):
        problem = _problem()
        config = SolverConfig(
            shots=FAST.shots,
            grid_resolution=FAST.grid_resolution,
            maxiter=FAST.maxiter,
            fault_injection=FaultInjection(kill_worker_jobs={"sp0": 0}),
        )
        solver = FrozenQubitsSolver(num_frozen=2, config=config, seed=13)
        with pytest.raises(BackendError):
            solver.solve(problem, backend=ProcessPoolBackend(max_workers=2))

    def test_worker_exception_without_policy_names_the_job(self):
        problem = _problem()
        config = SolverConfig(
            shots=FAST.shots,
            grid_resolution=FAST.grid_resolution,
            maxiter=FAST.maxiter,
            fault_injection=FaultInjection(fail_jobs={"sp1": None}),
        )
        solver = FrozenQubitsSolver(num_frozen=2, config=config, seed=13)
        with pytest.raises(JobError) as excinfo:
            solver.solve(problem, backend=ProcessPoolBackend(max_workers=2))
        assert excinfo.value.job_id == "sp1"

    def test_pool_dying_mid_submission_is_a_crash(self, monkeypatch):
        # A worker can die while later jobs of its round are still being
        # submitted; submit() then raises BrokenProcessPool itself.
        submits = []

        class BreaksOnSecondSubmit(process_pool.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                submits.append(args)
                if len(submits) == 2:
                    raise BrokenProcessPool("a child process terminated")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(
            process_pool, "ProcessPoolExecutor", BreaksOnSecondSubmit
        )
        jobs = _fan_out()
        results = ProcessPoolBackend(
            max_workers=2, fault_policy=FaultPolicy(max_retries=1)
        ).run(jobs)
        reference = execute_jobs_serially(jobs)
        assert [r.attempts for r in results] == [1, 2, 1, 1]
        assert [r.run.best_spins for r in results] == [
            r.run.best_spins for r in reference
        ]
        assert [r.run.ev_ideal for r in results] == [
            r.run.ev_ideal for r in reference
        ]

    def test_pool_permanent_failure_degrades_like_serial(self):
        problem = _problem()
        config = SolverConfig(
            shots=FAST.shots,
            grid_resolution=FAST.grid_resolution,
            maxiter=FAST.maxiter,
            fault_injection=FaultInjection(fail_jobs={"sp1": None}),
        )
        serial = FrozenQubitsSolver(
            num_frozen=2, config=config, seed=13
        ).solve(problem, backend=SerialBackend(fault_policy=FaultPolicy()))
        pooled = FrozenQubitsSolver(
            num_frozen=2, config=config, seed=13
        ).solve(
            problem,
            backend=ProcessPoolBackend(
                max_workers=2, fault_policy=FaultPolicy()
            ),
        )
        assert _signature(serial) == _signature(pooled)
        assert pooled.num_failed_jobs == 1


# ----------------------------------------------------------------------
# Cache disk-write degradation
# ----------------------------------------------------------------------
class TestCacheWriteDegradation:
    def test_injected_write_error_degrades_to_memory_only(self, tmp_path):
        cache = SolveCache(
            cache_dir=str(tmp_path),
            fault_injection=FaultInjection(cache_write_error_kinds=("*",)),
        )
        with pytest.warns(RuntimeWarning, match="memory-only"):
            cache.put("params", "k1", (1.0,), payload={"v": [1.0]})
        # The value is served from memory; nothing reached the disk.
        assert cache.get("params", "k1") == (1.0,)
        assert not any(tmp_path.rglob("*.json"))
        stats = cache.stats_snapshot()
        assert stats["params"]["write_error"] == 1
        # Later writes are skipped silently (counted, no second warning).
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            cache.put("anneal", "k2", (2.0,), payload={"v": [2.0]})
        assert cache.stats_snapshot()["anneal"]["write_error"] == 1
        assert cache.get("anneal", "k2") == (2.0,)

    def test_real_os_error_degrades_and_cleans_up(self, tmp_path, monkeypatch):
        cache = SolveCache(cache_dir=str(tmp_path))

        def deny(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", deny)
        with pytest.warns(RuntimeWarning):
            cache.put("params", "k1", (1.0,), payload={"v": [1.0]})
        monkeypatch.undo()
        assert cache.get("params", "k1") == (1.0,)
        assert cache.stats_snapshot()["params"]["write_error"] == 1
        # The half-written temp file was unlinked, not abandoned.
        assert not any(tmp_path.rglob("*.tmp"))

    def test_torn_write_reads_back_as_clean_corrupt_miss(self, tmp_path):
        torn = SolveCache(
            cache_dir=str(tmp_path),
            fault_injection=FaultInjection(torn_cache_kinds=("params",)),
        )
        torn.put("params", "deadbeef", (1.0,), payload={"v": [1.0]})
        # A fresh cache over the same directory must treat the torn
        # artifact as corruption: miss, tally, unlink.
        fresh = SolveCache(cache_dir=str(tmp_path))
        assert fresh.get("params", "deadbeef", rebuild=lambda p: p) is None
        stats = fresh.stats_snapshot()
        assert stats["params"]["corrupt"] == 1
        assert not any(tmp_path.rglob("deadbeef*"))
        # Healed: the next read is a plain miss, not another corruption.
        assert fresh.get("params", "deadbeef", rebuild=lambda p: p) is None
        assert fresh.stats_snapshot()["params"]["corrupt"] == 1

    def test_tear_artifact_helper(self, tmp_path):
        cache = SolveCache(cache_dir=str(tmp_path))
        cache.put("anneal", "cafe", (1.0,), payload={"v": [1.0]})
        path = tear_artifact(cache, "anneal", "cafe")
        assert path.endswith(".json")
        fresh = SolveCache(cache_dir=str(tmp_path))
        assert fresh.get("anneal", "cafe", rebuild=lambda p: p) is None
        assert fresh.stats_snapshot()["anneal"]["corrupt"] == 1


# ----------------------------------------------------------------------
# Chaos acceptance: the ISSUE's end-to-end scenarios
# ----------------------------------------------------------------------
class TestChaosAcceptance:
    """20% transient faults + a worker kill (+ a permanent cell) on the
    16-sibling device sweep, and the 200-node recursive solve.

    Fault seeds are pinned to values where every probabilistic fault
    clears within the retry budget (the draws are cryptographic hashes of
    (seed, job_id, attempt), so they can never drift).
    """

    def _sweep(self, backend, fault_injection=None):
        problem = _problem(12, seed=7)
        config = SolverConfig(
            shots=512,
            grid_resolution=6,
            maxiter=20,
            fault_injection=fault_injection,
        )
        solver = FrozenQubitsSolver(
            num_frozen=4, prune_symmetric=False, config=config, seed=13
        )
        return solver.solve(
            problem, device=get_backend("montreal"), backend=backend
        )

    def test_device_sweep_recovers_bit_identically(self):
        base = self._sweep(SerialBackend())
        assert base.num_circuits_executed == 16
        chaos = FaultInjection(
            seed=1,  # all 16 jobs clear p=0.2 within 3 attempts,
            # even with one attempt consumed by the pool crash
            fail_probability=0.2,
            kill_worker_jobs={"sp3": 0},
        )
        result = self._sweep(
            ProcessPoolBackend(
                max_workers=2, fault_policy=FaultPolicy(max_retries=2)
            ),
            fault_injection=chaos,
        )
        assert result.num_failed_jobs == 0
        assert result.num_job_retries > 0
        assert _signature(base) == _signature(result)

    def test_device_sweep_with_permanent_cell_keeps_full_coverage(self):
        chaos = FaultInjection(
            seed=1,
            fail_probability=0.2,
            kill_worker_jobs={"sp3": 0},
            fail_jobs={"sp5": None},
        )
        result = self._sweep(
            ProcessPoolBackend(
                max_workers=2, fault_policy=FaultPolicy(max_retries=2)
            ),
            fault_injection=chaos,
        )
        assert result.num_failed_jobs == 1
        assert result.num_circuits_executed == 15
        # Full partition coverage: every cell reports a valid assignment,
        # and only the permanently-failed cell carries NaN expectations.
        problem = _problem(12, seed=7)
        nan_cells = []
        for outcome in result.outcomes:
            assert problem.evaluate(outcome.best_spins) == outcome.best_value
            if math.isnan(outcome.ev_ideal):
                nan_cells.append(outcome)
        assert len(nan_cells) == 1
        assert nan_cells[0].source == "failed"
        provenance = result.failure_provenance
        assert len(provenance) == 1
        (record,) = provenance.values()
        # The permanent fault ends the job the moment it fires, but the
        # pool crash may have charged one crash attempt first.
        assert record["attempts"] <= 2
        assert "sp5" in record["error"]

    def test_recursive_200_node_solve_recovers_bit_identically(self):
        graph = barabasi_albert_graph(200, attachment=1, seed=13)
        h = random_pm1_hamiltonian(graph, seed=13)
        cfg = SolverConfig(grid_resolution=6, maxiter=20, shots=512)
        rc = RecursiveConfig(max_leaf_qubits=10)
        base = solve_recursive(
            h,
            config=cfg,
            recursive_config=rc,
            seed=13,
            backend=SerialBackend(),
        )
        chaos_cfg = SolverConfig(
            grid_resolution=6,
            maxiter=20,
            shots=512,
            fault_injection=FaultInjection(seed=0, fail_probability=0.2),
        )
        result = solve_recursive(
            h,
            config=chaos_cfg,
            recursive_config=rc,
            seed=13,
            backend=SerialBackend(fault_policy=FaultPolicy(max_retries=2)),
        )
        assert result.num_failed_jobs == 0
        assert result.num_job_retries > 0
        assert result.best_spins == base.best_spins
        assert result.best_value == base.best_value
        assert result.ev_ideal == base.ev_ideal
        assert result.failure_provenance == {}

    def test_recursive_leaf_failure_composes_honestly(self):
        graph = barabasi_albert_graph(60, attachment=1, seed=21)
        h = random_pm1_hamiltonian(graph, seed=21)
        cfg = SolverConfig(grid_resolution=6, maxiter=20, shots=512)
        rc = RecursiveConfig(max_leaf_qubits=8)
        base = solve_recursive(
            h, config=cfg, recursive_config=rc, seed=21
        )
        # Fail one known leaf job permanently (ids are path-prefixed).
        leaf_job = next(iter(base.leaf_results)) + "/sp0"
        chaos_cfg = SolverConfig(
            grid_resolution=6,
            maxiter=20,
            shots=512,
            fault_injection=FaultInjection(fail_jobs={leaf_job: None}),
        )
        result = solve_recursive(
            h,
            config=chaos_cfg,
            recursive_config=rc,
            seed=21,
            backend=SerialBackend(fault_policy=FaultPolicy()),
        )
        assert result.num_failed_jobs == 1
        assert h.evaluate(result.best_spins) == result.best_value
        assert result.num_circuits_executed == base.num_circuits_executed - 1
        assert list(result.failure_provenance) == [leaf_job.rsplit("/", 1)[0]]
