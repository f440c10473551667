"""Tests for repro.qaoa: circuit construction, the analytic p=1 engine,
metrics, optimizer, and evaluation contexts."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.devices import get_backend
from repro.exceptions import QAOAError
from repro.graphs.generators import barabasi_albert_graph, ring_graph, sk_graph
from repro.ising import IsingHamiltonian, brute_force_minimum
from repro.qaoa import (
    approximation_ratio,
    approximation_ratio_gap,
    batch_objective,
    build_qaoa_circuit,
    build_qaoa_template,
    evaluate_ideal,
    evaluate_noisy,
    landscape_scan,
    make_context,
    optimize_qaoa,
    qaoa1_expectation,
    qaoa1_term_expectations,
    value_and_grad_objective,
)
from repro.sim import expectation_from_probabilities, probabilities
from repro.sim.expectation import term_expectations_from_probabilities
from tests.conftest import hamiltonian_strategy


class TestCircuitConstruction:
    def test_structure_single_layer(self):
        h = IsingHamiltonian(3, linear=[1.0, 0.0, 0.0], quadratic={(0, 1): 1.0})
        template = build_qaoa_template(h)
        ops = template.circuit.count_ops()
        assert ops["h"] == 3          # initial superposition wall
        assert ops["rz"] == 1         # one linear term
        assert ops["rzz"] == 1        # one quadratic term
        assert ops["rx"] == 3         # mixer on all qubits
        assert ops["measure"] == 1
        assert template.num_layers == 1

    def test_layer_scaling(self):
        h = IsingHamiltonian(2, quadratic={(0, 1): 1.0})
        template = build_qaoa_template(h, num_layers=3)
        ops = template.circuit.count_ops()
        assert ops["rzz"] == 3
        assert ops["rx"] == 6
        assert len(template.gammas) == 3

    def test_angle_coefficients_follow_convention(self):
        """RZZ angle = 2*J*gamma; RZ angle = 2*h*gamma (paper Fig. 2)."""
        h = IsingHamiltonian(2, linear=[0.5, 0.0], quadratic={(0, 1): -1.5})
        template = build_qaoa_template(h)
        rz = next(op for op in template.circuit if op.name == "rz")
        rzz = next(op for op in template.circuit if op.name == "rzz")
        assert rz.angle.coefficient == pytest.approx(1.0)   # 2 * 0.5
        assert rzz.angle.coefficient == pytest.approx(-3.0)  # 2 * -1.5

    def test_tags_identify_terms(self):
        h = IsingHamiltonian(3, linear=[1.0, 0, 0], quadratic={(1, 2): 1.0})
        template = build_qaoa_template(h)
        tags = {op.tag for op in template.circuit if op.tag}
        assert tags == {"lin:0", "quad:1:2"}

    def test_linear_support_reserves_rz_slots(self):
        h = IsingHamiltonian(3, quadratic={(0, 1): 1.0})
        template = build_qaoa_template(h, linear_support=[0, 1, 2])
        assert template.circuit.count_ops()["rz"] == 3

    def test_bind_produces_runnable_circuit(self):
        h = IsingHamiltonian(2, quadratic={(0, 1): 1.0})
        template = build_qaoa_template(h)
        bound = template.bind([0.3], [0.5])
        assert not bound.is_parametric

    def test_bind_validates_lengths(self):
        h = IsingHamiltonian(2, quadratic={(0, 1): 1.0})
        template = build_qaoa_template(h, num_layers=2)
        with pytest.raises(QAOAError):
            template.bind([0.1], [0.2])

    def test_zero_layers_rejected(self):
        with pytest.raises(QAOAError):
            build_qaoa_template(IsingHamiltonian(2), num_layers=0)

    def test_empty_problem_rejected(self):
        with pytest.raises(QAOAError):
            build_qaoa_template(IsingHamiltonian(0))

    def test_build_qaoa_circuit_length_mismatch(self):
        with pytest.raises(QAOAError):
            build_qaoa_circuit(IsingHamiltonian(2), [0.1], [0.2, 0.3])


class TestAnalyticExpectation:
    @settings(max_examples=40, deadline=None)
    @given(
        hamiltonian=hamiltonian_strategy(max_qubits=6),
        gamma=st.floats(-3, 3, allow_nan=False),
        beta=st.floats(-3, 3, allow_nan=False),
    )
    def test_matches_statevector_exactly(self, hamiltonian, gamma, beta):
        """The pinned-down closed form agrees with dense simulation to
        machine precision on arbitrary Ising instances."""
        circuit = build_qaoa_circuit(hamiltonian, [gamma], [beta])
        dense = expectation_from_probabilities(hamiltonian, probabilities(circuit))
        closed = qaoa1_expectation(hamiltonian, gamma, beta)
        assert closed == pytest.approx(dense, abs=1e-9)

    def test_term_expectations_match_statevector(self):
        h = IsingHamiltonian(
            4,
            linear=[0.5, 0.0, -1.0, 0.0],
            quadratic={(0, 1): 1.0, (1, 2): -1.0, (0, 3): 0.5},
        )
        gamma, beta = 0.7, 0.3
        circuit = build_qaoa_circuit(h, [gamma], [beta])
        probs = probabilities(circuit)
        z_ref, zz_ref = term_expectations_from_probabilities(h, probs)
        z, zz = qaoa1_term_expectations(h, gamma, beta)
        for qubit, value in z.items():
            assert value == pytest.approx(z_ref[qubit], abs=1e-9)
        for pair, value in zz.items():
            assert value == pytest.approx(zz_ref[pair], abs=1e-9)

    def test_zero_angles_give_offset(self):
        h = IsingHamiltonian(3, quadratic={(0, 1): 1.0}, offset=4.0)
        assert qaoa1_expectation(h, 0.0, 0.0) == pytest.approx(4.0)

    def test_empty_hamiltonian_rejected(self):
        with pytest.raises(QAOAError):
            qaoa1_term_expectations(IsingHamiltonian(0), 0.1, 0.1)


class TestMetrics:
    def test_arg_definition(self):
        # ARG = 100 |(ideal - real)/ideal| (Eq. 4).
        assert approximation_ratio_gap(-10.0, -5.0) == pytest.approx(50.0)
        assert approximation_ratio_gap(-10.0, -10.0) == 0.0

    def test_arg_zero_ideal_rejected(self):
        with pytest.raises(QAOAError):
            approximation_ratio_gap(0.0, 1.0)

    def test_ar_definition(self):
        # AR = EV / C_min (Eq. 5); 1 at the optimum.
        assert approximation_ratio(-8.0, -8.0) == 1.0
        assert approximation_ratio(-4.0, -8.0) == 0.5

    def test_ar_zero_cmin_rejected(self):
        with pytest.raises(QAOAError):
            approximation_ratio(1.0, 0.0)


def _objectives(context):
    """A context's ``(evaluate_batch, value_and_grad)`` optimizer pair."""
    return batch_objective(context), value_and_grad_objective(context)


class TestOptimizer:
    def test_p1_finds_good_parameters_on_ring(self):
        h = IsingHamiltonian.from_graph(ring_graph(6))
        context = make_context(h)
        result = optimize_qaoa(*_objectives(context), grid_resolution=10)
        c_min = brute_force_minimum(h).value
        # p=1 on a uniform ring provably reaches AR ~0.5; the optimizer
        # should get essentially all of it.
        assert approximation_ratio(result.value, c_min) > 0.45
        assert result.num_evaluations >= 100

    def test_history_monotone_decreasing(self):
        h = IsingHamiltonian(3, quadratic={(0, 1): 1.0, (1, 2): 1.0})
        context = make_context(h)
        result = optimize_qaoa(*_objectives(context), grid_resolution=6)
        assert all(a >= b for a, b in zip(result.history, result.history[1:]))

    def test_p2_beats_or_matches_p1(self):
        h = IsingHamiltonian.from_graph(sk_graph(4), weights="random_pm1", seed=9)
        ctx1 = make_context(h, num_layers=1)
        ctx2 = make_context(h, num_layers=2)
        r1 = optimize_qaoa(
            *_objectives(ctx1), num_layers=1, grid_resolution=8, seed=0
        )
        r2 = optimize_qaoa(
            *_objectives(ctx2), num_layers=2, num_starts=6, seed=0
        )
        assert r2.value <= r1.value + 1e-6

    def test_invalid_layers_rejected(self):
        context = make_context(IsingHamiltonian(2, quadratic={(0, 1): 1.0}))
        with pytest.raises(QAOAError):
            optimize_qaoa(*_objectives(context), num_layers=0)

    def test_landscape_scan_shape_and_best(self):
        h = IsingHamiltonian(4, quadratic={(0, 1): 1.0, (2, 3): -1.0})
        context = make_context(h)
        scan = landscape_scan(batch_objective(context), resolution=12)
        assert scan.values.shape == (12, 12)
        g, b, v = scan.best
        assert v == pytest.approx(scan.values.min())
        assert evaluate_ideal(context, [g], [b]) == pytest.approx(v)

    def test_landscape_resolution_guard(self):
        with pytest.raises(QAOAError):
            landscape_scan(lambda g, b: 0.0, resolution=1)


class TestEvaluationContext:
    def test_ideal_context_has_unit_fidelity(self, small_ba_hamiltonian):
        context = make_context(small_ba_hamiltonian)
        assert context.fidelity == 1.0
        ideal = evaluate_ideal(context, [0.4], [0.3])
        noisy = evaluate_noisy(context, [0.4], [0.3])
        assert ideal == pytest.approx(noisy)

    def test_device_context_attenuates(self, small_ba_hamiltonian):
        context = make_context(small_ba_hamiltonian, device=get_backend("montreal"))
        assert 0.0 < context.fidelity < 1.0
        gammas, betas = [0.5], [0.4]
        ideal = evaluate_ideal(context, gammas, betas)
        noisy = evaluate_noisy(context, gammas, betas)
        offset = small_ba_hamiltonian.offset
        # Noise pulls the expectation toward the offset.
        assert abs(noisy - offset) < abs(ideal - offset)

    def test_wrong_parameter_count_rejected(self, small_ba_hamiltonian):
        context = make_context(small_ba_hamiltonian)
        with pytest.raises(QAOAError):
            evaluate_ideal(context, [0.1, 0.2], [0.3])

    def test_p2_statevector_path(self):
        h = IsingHamiltonian(3, quadratic={(0, 1): 1.0, (1, 2): 1.0})
        context = make_context(h, num_layers=2)
        value = evaluate_ideal(context, [0.3, 0.2], [0.4, 0.1])
        template = build_qaoa_template(h, num_layers=2)
        bound = template.bind([0.3, 0.2], [0.4, 0.1])
        reference = expectation_from_probabilities(h, probabilities(bound))
        assert value == pytest.approx(reference, abs=1e-9)

    def test_deeper_circuit_lower_fidelity(self, small_ba_hamiltonian):
        device = get_backend("montreal")
        p1 = make_context(small_ba_hamiltonian, num_layers=1, device=device)
        p2 = make_context(small_ba_hamiltonian, num_layers=2, device=device)
        assert p2.fidelity < p1.fidelity


class TestNoiseShape:
    def test_arg_grows_with_problem_size(self):
        """The paper's core observation (Fig. 8 baseline curve): ARG of the
        baseline degrades as circuits grow."""
        device = get_backend("montreal")
        args = []
        for size in (4, 10, 16):
            graph = barabasi_albert_graph(size, 1, seed=size)
            h = IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=size)
            context = make_context(h, device=device)
            result = optimize_qaoa(*_objectives(context), grid_resolution=8)
            noisy = evaluate_noisy(context, result.gammas, result.betas)
            args.append(approximation_ratio_gap(result.value, noisy))
        assert args[0] < args[-1]
