"""Tests for repro.backend: the execution-backend contract.

The load-bearing guarantees: per-job child seeds make results
backend-independent (serial == process pool, bit for bit), the batch API
composes out of single solves, and the template-editing fan-out gives
every job its own coefficients (no aliasing through the shared master).
"""

import numpy as np
import pytest

from repro.backend import (
    BACKEND_REGISTRY,
    ExecutionBackend,
    JobSpec,
    ProcessPoolBackend,
    SerialBackend,
    execute_job,
    get_default_backend,
    resolve_backend,
    set_default_backend,
)
from repro.core import FrozenQubitsSolver, SolverConfig, solve_many
from repro.devices import get_backend
from repro.exceptions import SolverError
from repro.graphs.generators import barabasi_albert_graph
from repro.ising import IsingHamiltonian
from repro.qaoa.circuits import linear_tag

FAST = SolverConfig(shots=512, grid_resolution=6, maxiter=20)


def _problem(num_qubits=8, seed=42):
    graph = barabasi_albert_graph(num_qubits, attachment=1, seed=seed)
    return IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=seed + 1)


def _assert_results_identical(a, b):
    assert a.best_spins == b.best_spins
    assert a.best_value == b.best_value
    assert a.ev_ideal == b.ev_ideal
    assert a.ev_noisy == b.ev_noisy
    assert a.frozen_qubits == b.frozen_qubits
    assert a.num_circuits_executed == b.num_circuits_executed
    for oa, ob in zip(a.outcomes, b.outcomes):
        assert oa.best_spins == ob.best_spins
        assert oa.best_value == ob.best_value
        if oa.decoded_counts is None:
            assert ob.decoded_counts is None
        else:
            assert dict(oa.decoded_counts) == dict(ob.decoded_counts)


class TestRegistry:
    def test_resolve_names(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("process"), ProcessPoolBackend)
        assert set(BACKEND_REGISTRY) == {"serial", "process"}

    def test_resolve_instance_passthrough(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_resolve_unknown_name(self):
        with pytest.raises(SolverError):
            resolve_backend("gpu")

    def test_resolve_bad_type(self):
        with pytest.raises(SolverError):
            resolve_backend(42)

    def test_default_backend_roundtrip(self):
        assert isinstance(get_default_backend(), SerialBackend)
        try:
            set_default_backend("process")
            assert isinstance(get_default_backend(), ProcessPoolBackend)
            assert isinstance(resolve_backend(None), ProcessPoolBackend)
        finally:
            set_default_backend(None)
        assert isinstance(get_default_backend(), SerialBackend)

    def test_pool_validates_args(self):
        with pytest.raises(SolverError):
            ProcessPoolBackend(max_workers=0)


class TestBackendEquivalence:
    """Same seed => same FrozenQubitsResult, whatever ran the jobs."""

    def test_serial_matches_process_pool_ideal(self):
        h = _problem()
        serial = FrozenQubitsSolver(num_frozen=2, config=FAST, seed=7).solve(h)
        pooled = FrozenQubitsSolver(num_frozen=2, config=FAST, seed=7).solve(
            h, backend=ProcessPoolBackend(max_workers=2)
        )
        _assert_results_identical(serial, pooled)

    def test_serial_matches_process_pool_noisy(self):
        h = _problem()
        device = get_backend("montreal")
        serial = FrozenQubitsSolver(num_frozen=2, config=FAST, seed=9).solve(
            h, device=device
        )
        pooled = FrozenQubitsSolver(num_frozen=2, config=FAST, seed=9).solve(
            h, device=device, backend=ProcessPoolBackend(max_workers=2)
        )
        _assert_results_identical(serial, pooled)

    def test_string_backend_accepted_by_solve(self):
        h = _problem()
        result = FrozenQubitsSolver(num_frozen=1, config=FAST, seed=15).solve(
            h, backend="process"
        )
        assert len(result.best_spins) == h.num_qubits


class TestJobs:
    def test_execute_job_pretrained_skips_optimization(self):
        h = _problem()
        spec = JobSpec(
            job_id="j0",
            hamiltonian=h,
            config=FAST,
            seed=3,
            params=((0.4,), (0.3,)),
        )
        result = execute_job(spec)
        assert result.job_id == "j0"
        assert result.run.optimization.gammas == (0.4,)
        assert result.run.optimization.betas == (0.3,)
        assert result.run.optimization.num_evaluations == 1
        assert result.elapsed_seconds >= 0.0

    def test_backends_preserve_job_order(self):
        specs = [
            JobSpec(job_id=f"j{i}", hamiltonian=_problem(5, seed=i), config=FAST, seed=i)
            for i in range(4)
        ]
        for backend in (SerialBackend(), ProcessPoolBackend(max_workers=2)):
            results = backend.run(specs)
            assert [r.job_id for r in results] == [s.job_id for s in specs]

    def test_empty_submission(self):
        assert ProcessPoolBackend().run([]) == []
        assert SerialBackend().run([]) == []

    def test_finalize_rejects_result_mismatch(self):
        h = _problem()
        solver = FrozenQubitsSolver(num_frozen=1, config=FAST, seed=5)
        prepared = solver.prepare_jobs(h)
        results = SerialBackend().run(prepared.jobs)
        with pytest.raises(SolverError):
            solver.finalize(prepared, results[:-1] if len(results) > 1 else [])


class TestSolveMany:
    def test_matches_individual_solves(self):
        problems = [_problem(6, seed=s) for s in (1, 2, 3)]
        batch = solve_many(problems, num_frozen=1, config=FAST, seed=21)
        from repro.utils.rng import spawn_seeds

        child_seeds = spawn_seeds(21, len(problems))
        for problem, child_seed, result in zip(problems, child_seeds, batch):
            alone = FrozenQubitsSolver(
                num_frozen=1, config=FAST, seed=child_seed
            ).solve(problem)
            _assert_results_identical(alone, result)

    def test_backend_independent(self):
        problems = [_problem(6, seed=s) for s in (4, 5)]
        serial = solve_many(problems, num_frozen=2, config=FAST, seed=23)
        pooled = solve_many(
            problems,
            num_frozen=2,
            config=FAST,
            seed=23,
            backend=ProcessPoolBackend(max_workers=2),
        )
        for a, b in zip(serial, pooled):
            _assert_results_identical(a, b)

    def test_accepts_wrapper_objects(self):
        class Wrapper:
            def __init__(self, hamiltonian):
                self.hamiltonian = hamiltonian

        results = solve_many(
            [Wrapper(_problem(5, seed=8))], num_frozen=1, config=FAST, seed=1
        )
        assert len(results) == 1

    def test_rejects_bad_problem(self):
        with pytest.raises(SolverError):
            solve_many(["nope"], num_frozen=1, seed=1)

    def test_rejects_misaligned_seeds(self):
        with pytest.raises(SolverError):
            solve_many([_problem(5)], num_frozen=1, seeds=[1, 2])


class TestTemplateAliasing:
    """Regression for the Sec. 3.7.1 editing hazard: every executed job
    must hold a template carrying its *own* linear coefficients."""

    def test_each_job_owns_its_coefficients(self):
        h = _problem(9, seed=70)
        device = get_backend("montreal")
        solver = FrozenQubitsSolver(
            num_frozen=2, prune_symmetric=False, config=FAST, seed=31
        )
        prepared = solver.prepare_jobs(h, device)
        assert len(prepared.jobs) == 4
        assert prepared.edited_circuits == 3
        support = sorted(
            {
                q
                for sp in prepared.executed
                for q, coeff in enumerate(sp.hamiltonian.linear)
                if coeff != 0.0
            }
        )
        assert support, "hotspot removal must induce linear terms"
        for sp, job in zip(prepared.executed, prepared.jobs):
            surface = job.transpiled.parametric_instruction_indices()
            for q in support:
                expected = 2.0 * sp.hamiltonian.linear_coefficient(q)
                for index in surface[linear_tag(q)]:
                    angle = job.transpiled.circuit.instructions[index].angle
                    assert angle.coefficient == expected

    def test_master_template_not_mutated(self):
        h = _problem(9, seed=70)
        device = get_backend("montreal")
        solver = FrozenQubitsSolver(
            num_frozen=2, prune_symmetric=False, config=FAST, seed=31
        )
        prepared = solver.prepare_jobs(h, device)
        master = prepared.template
        first = prepared.executed[0]
        surface = master.parametric_instruction_indices()
        for q, coeff in enumerate(first.hamiltonian.linear):
            tag = linear_tag(q)
            if tag not in surface:
                continue
            for index in surface[tag]:
                angle = master.circuit.instructions[index].angle
                assert angle.coefficient == 2.0 * coeff

    def test_sibling_contexts_differ_after_solve(self):
        h = _problem(9, seed=70)
        device = get_backend("montreal")
        result = FrozenQubitsSolver(
            num_frozen=2, prune_symmetric=False, config=FAST, seed=33
        ).solve(h, device=device)
        executed = [o for o in result.outcomes if o.run is not None]
        transpiled = [o.run.context.transpiled for o in executed]
        # Each context wraps its own object, not a shared alias.
        assert len({id(t) for t in transpiled}) == len(transpiled)


class TestAbstractContract:
    def test_cannot_instantiate_interface(self):
        with pytest.raises(TypeError):
            ExecutionBackend()

    def test_repr(self):
        assert "ProcessPoolBackend" in repr(ProcessPoolBackend(max_workers=3))
