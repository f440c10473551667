"""Edge-case and failure-injection tests for the FrozenQubits pipeline.

Covers the corners the happy-path tests skip: degenerate graphs, frozen
hotspots that disconnect the problem, zero-edge sub-problems, devices that
are too small, hostile calibrations, metric degeneracies, and out-of-range
solver knobs.
"""

import pytest

from repro.core import FrozenQubitsSolver, SolverConfig, select_hotspots
from repro.core.partition import executed_subproblems, partition_problem
from repro.devices import CouplingMap, Device, uniform_calibration
from repro.devices.topologies import linear_coupling
from repro.exceptions import QAOAError, SolverError, TranspileError
from repro.graphs.generators import ring_graph, star_graph
from repro.ising import IsingHamiltonian, brute_force_minimum
from repro.qaoa import approximation_ratio_gap, build_qaoa_template
from repro.qaoa.executor import evaluate_noisy, make_context
from repro.transpile import transpile

FAST = SolverConfig(shots=512, grid_resolution=6, maxiter=20)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_layers", 0),
            ("shots", 0),
            ("shots", -5),
            ("grid_resolution", 0),
            ("maxiter", -1),
            ("max_sampled_qubits", -1),
            ("proxy_refine_maxiter", -1),
            ("proxy_ratio", 0.0),
            ("proxy_ratio", 1.5),
        ],
    )
    def test_out_of_range_value_rejected_at_construction(self, field, value):
        """Rejected when built, not by every job failing inside training."""
        with pytest.raises(SolverError, match=field):
            SolverConfig(**{field: value})

    def test_inclusive_bounds_accepted(self):
        config = SolverConfig(
            num_layers=1,
            shots=1,
            grid_resolution=1,
            maxiter=0,
            max_sampled_qubits=0,
            proxy_refine_maxiter=0,
            proxy_ratio=1.0,
        )
        assert config.proxy_ratio == 1.0


class TestDegenerateProblems:
    def test_two_qubit_problem(self):
        h = IsingHamiltonian(2, quadratic={(0, 1): 1.0})
        result = FrozenQubitsSolver(num_frozen=1, config=FAST, seed=0).solve(h)
        assert result.best_value == -1.0

    def test_problem_with_isolated_qubit(self):
        """A qubit with no terms at all still appears in decoded solutions."""
        h = IsingHamiltonian(4, quadratic={(0, 1): 1.0, (1, 2): -1.0})
        result = FrozenQubitsSolver(num_frozen=1, config=FAST, seed=1).solve(h)
        assert len(result.best_spins) == 4
        assert result.best_value == pytest.approx(brute_force_minimum(h).value)

    def test_freezing_disconnects_graph(self):
        """Freezing a ring node leaves a path — still solvable end to end."""
        h = IsingHamiltonian.from_graph(ring_graph(6), weights="random_pm1", seed=2)
        result = FrozenQubitsSolver(num_frozen=2, config=FAST, seed=2).solve(h)
        assert result.best_value == pytest.approx(brute_force_minimum(h).value)

    def test_star_frozen_hub_leaves_empty_subproblem_edges(self):
        h = IsingHamiltonian.from_graph(star_graph(6))
        parts = partition_problem(h, select_hotspots(h, 1))
        sub = executed_subproblems(parts)[0].hamiltonian
        assert sub.num_terms == 0
        assert not sub.has_zero_linear()  # hub's edges became fields

    def test_all_negative_couplings_ferromagnet(self):
        """Ferromagnetic chain: ground state is the two aligned states."""
        h = IsingHamiltonian(5, quadratic={(i, i + 1): -1.0 for i in range(4)})
        result = FrozenQubitsSolver(num_frozen=1, config=FAST, seed=3).solve(h)
        assert result.best_value == -4.0
        assert len(set(result.best_spins)) == 1  # fully aligned


class TestHostileDevices:
    def test_device_too_small_raises(self):
        h = IsingHamiltonian.from_graph(ring_graph(8))
        coupling = linear_coupling(4)
        device = Device("tiny", coupling, uniform_calibration(coupling))
        template = build_qaoa_template(h)
        with pytest.raises(TranspileError):
            transpile(template.circuit, device)

    def test_disconnected_device_rejected(self):
        coupling = CouplingMap(4, [(0, 1), (2, 3)])
        device = Device("split", coupling, uniform_calibration(coupling))
        h = IsingHamiltonian(3, quadratic={(0, 1): 1.0, (1, 2): 1.0})
        template = build_qaoa_template(h)
        with pytest.raises(TranspileError):
            transpile(template.circuit, device)

    def test_maximally_noisy_device_collapses_to_offset(self):
        """With CX error ~50%, the noisy EV sits at the offset and ARG ~100."""
        coupling = linear_coupling(6)
        device = Device(
            "terrible",
            coupling,
            uniform_calibration(coupling, cx_error=0.5, readout_error=0.4),
        )
        h = IsingHamiltonian(
            6, quadratic={(i, i + 1): 1.0 for i in range(5)}, offset=0.0
        )
        context = make_context(h, device=device)
        noisy = evaluate_noisy(context, [0.5], [0.4])
        assert abs(noisy) < 0.05
        ideal = -1.0  # any non-trivial ideal EV
        assert approximation_ratio_gap(ideal, noisy) > 90.0

    def test_perfect_device_matches_ideal(self):
        coupling = linear_coupling(5)
        device = Device(
            "perfect",
            coupling,
            uniform_calibration(
                coupling, cx_error=0.0, readout_error=0.0,
                t1_us=1e15, t2_us=1e15, single_qubit_error=0.0,
            ),
        )
        h = IsingHamiltonian(5, quadratic={(i, i + 1): 1.0 for i in range(4)})
        context = make_context(h, device=device)
        from repro.qaoa.executor import evaluate_ideal

        gammas, betas = [0.7], [0.3]
        assert evaluate_noisy(context, gammas, betas) == pytest.approx(
            evaluate_ideal(context, gammas, betas), abs=1e-9
        )


class TestMetricDegeneracies:
    def test_zero_ideal_ev_skipped_by_sweeps(self):
        """arg_sweep drops instances whose ideal EV is ~0 instead of
        dividing by zero."""
        from repro.experiments.figures import _arg_of_workload
        from repro.experiments.workloads import WorkloadInstance
        from repro.graphs.model import ProblemGraph

        # A problem whose optimal p=1 EV is ~0: single qubit, no terms.
        graph = ProblemGraph(2, [(0, 1)])
        h = IsingHamiltonian(2)  # no terms at all => EV identically 0
        workload = WorkloadInstance("degenerate", "ba1", 2, 0, graph, h)
        from repro.devices import get_backend

        result = _arg_of_workload(
            workload, get_backend("montreal"), 0, FAST, seed=0
        )
        assert result is None

    def test_m_larger_than_problem_skipped(self):
        from repro.experiments.figures import _arg_of_workload
        from repro.experiments.workloads import ba_suite
        from repro.devices import get_backend

        workload = ba_suite(sizes=(4,), trials=1, seed=0)[0]
        assert _arg_of_workload(
            workload, get_backend("montreal"), 4, FAST, seed=0
        ) is None

    def test_zero_layer_template_rejected(self):
        with pytest.raises(QAOAError):
            build_qaoa_template(IsingHamiltonian(2, quadratic={(0, 1): 1.0}), 0)
