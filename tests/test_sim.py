"""Tests for repro.sim: statevector engine, sampling, expectations, noise.

Includes the validation that pins the scalable depolarizing model to the
faithful trajectory simulator.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.circuit import QuantumCircuit
from repro.exceptions import SimulationError
from repro.graphs.generators import barabasi_albert_graph
from repro.ising.hamiltonian import IsingHamiltonian
from repro.qaoa.circuits import build_qaoa_circuit
from repro.sim import (
    Counts,
    NoiseModel,
    circuit_fidelity,
    expectation_from_counts,
    expectation_from_probabilities,
    noisy_counts,
    noisy_expectation,
    probabilities,
    readout_factors,
    sample_counts,
    simulate_statevector,
    term_expectations_from_probabilities,
    trajectory_counts,
)
from tests.conftest import hamiltonian_strategy


class TestStatevector:
    def test_initial_state_is_zero(self):
        state = simulate_statevector(QuantumCircuit(2))
        assert state[0] == 1.0
        assert np.allclose(state[1:], 0.0)

    def test_x_flips_qubit_lsb_convention(self):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        state = simulate_statevector(circuit)
        assert state[1] == 1.0  # bit 0 set => index 1

    def test_x_on_high_qubit(self):
        circuit = QuantumCircuit(2)
        circuit.x(1)
        state = simulate_statevector(circuit)
        assert state[2] == 1.0

    def test_bell_state(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        probs = probabilities(circuit)
        assert probs[0] == pytest.approx(0.5)
        assert probs[3] == pytest.approx(0.5)

    def test_cx_direction_matters(self):
        circuit = QuantumCircuit(2)
        circuit.x(1)
        circuit.cx(1, 0)  # control qubit 1 is set => flips qubit 0
        probs = probabilities(circuit)
        assert probs[3] == pytest.approx(1.0)

    def test_norm_preserved_random_circuit(self, rng):
        circuit = QuantumCircuit(4)
        for __ in range(30):
            kind = rng.integers(4)
            q = int(rng.integers(4))
            if kind == 0:
                circuit.h(q)
            elif kind == 1:
                circuit.rz(float(rng.uniform(0, 6)), q)
            elif kind == 2:
                circuit.rx(float(rng.uniform(0, 6)), q)
            else:
                p = int(rng.integers(4))
                if p != q:
                    circuit.cx(q, p)
        probs = probabilities(circuit)
        assert probs.sum() == pytest.approx(1.0)

    def test_symbolic_circuit_rejected(self):
        from repro.circuit import Parameter

        circuit = QuantumCircuit(1)
        circuit.rz(Parameter("g") * 1.0, 0)
        with pytest.raises(SimulationError):
            simulate_statevector(circuit)

    def test_oversized_circuit_rejected(self):
        with pytest.raises(SimulationError):
            simulate_statevector(QuantumCircuit(25))

    def test_custom_initial_state(self):
        circuit = QuantumCircuit(1)
        circuit.x(0)
        initial = np.array([0.0, 1.0], dtype=complex)
        state = simulate_statevector(circuit, initial_state=initial)
        assert state[0] == pytest.approx(1.0)

    def test_bad_initial_state_shape(self):
        with pytest.raises(SimulationError):
            simulate_statevector(QuantumCircuit(2), initial_state=np.ones(3))


class TestCounts:
    def test_basic_properties(self):
        counts = Counts({0: 10, 3: 30}, num_qubits=2)
        assert counts.total_shots == 40
        assert counts.probability(3) == pytest.approx(0.75)
        assert counts.most_common(1) == [(3, 30)]

    def test_out_of_range_key_rejected(self):
        with pytest.raises(SimulationError):
            Counts({4: 1}, num_qubits=2)

    def test_negative_count_rejected(self):
        with pytest.raises(SimulationError):
            Counts({0: -1}, num_qubits=1)

    def test_zero_counts_dropped(self):
        counts = Counts({0: 0, 1: 5}, num_qubits=1)
        assert 0 not in counts

    def test_spin_items_convention(self):
        counts = Counts({1: 7}, num_qubits=2)  # bit0=1 -> spin -1 on qubit 0
        ((spins, count),) = list(counts.spin_items())
        assert spins == (-1, 1)
        assert count == 7

    def test_flip_all_bits(self):
        counts = Counts({0b01: 4}, num_qubits=2)
        flipped = counts.flip_all_bits()
        assert flipped[0b10] == 4

    def test_merge(self):
        a = Counts({0: 1}, 1)
        b = Counts({0: 2, 1: 3}, 1)
        merged = a.merge(b)
        assert merged[0] == 3 and merged[1] == 3

    def test_merge_width_mismatch(self):
        with pytest.raises(SimulationError):
            Counts({0: 1}, 1).merge(Counts({0: 1}, 2))

    def test_map_outcomes_merges_collisions(self):
        counts = Counts({0: 2, 1: 3}, num_qubits=1)
        merged = counts.map_outcomes(lambda key: 0)
        assert merged[0] == 5

    def test_sample_counts_distribution(self):
        probs = np.array([0.25, 0.75])
        counts = sample_counts(probs, shots=4000, num_qubits=1, seed=0)
        assert counts.total_shots == 4000
        assert counts.probability(1) == pytest.approx(0.75, abs=0.05)

    def test_sample_counts_validates_shape(self):
        with pytest.raises(SimulationError):
            sample_counts(np.ones(3), 10, 1)

    def test_sample_counts_negative_probs(self):
        with pytest.raises(SimulationError):
            sample_counts(np.array([-0.5, 1.5]), 10, 1)


class TestExpectation:
    def test_expectation_from_probabilities_exact(self):
        h = IsingHamiltonian(1, linear=[1.0])
        # |0> -> spin +1 -> EV = 1.
        probs = np.array([1.0, 0.0])
        assert expectation_from_probabilities(h, probs) == pytest.approx(1.0)

    def test_expectation_from_counts_matches_probs(self, small_ba_hamiltonian):
        circuit = build_qaoa_circuit(small_ba_hamiltonian, [0.4], [0.6])
        probs = probabilities(circuit)
        dense = expectation_from_probabilities(small_ba_hamiltonian, probs)
        counts = sample_counts(probs, 200_000, small_ba_hamiltonian.num_qubits, seed=1)
        sampled = expectation_from_counts(small_ba_hamiltonian, counts)
        assert sampled == pytest.approx(dense, abs=0.05)

    def test_counts_width_mismatch(self):
        h = IsingHamiltonian(2, quadratic={(0, 1): 1.0})
        with pytest.raises(SimulationError):
            expectation_from_counts(h, Counts({0: 1}, 3))

    def test_empty_counts_rejected(self):
        h = IsingHamiltonian(1, linear=[1.0])
        with pytest.raises(SimulationError):
            expectation_from_counts(h, Counts({}, 1))

    def test_term_expectations_plus_state(self):
        h = IsingHamiltonian(2, linear=[1.0, 0.0], quadratic={(0, 1): 1.0})
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.h(1)
        probs = probabilities(circuit)
        z, zz = term_expectations_from_probabilities(h, probs)
        assert z[0] == pytest.approx(0.0, abs=1e-12)
        assert zz[(0, 1)] == pytest.approx(0.0, abs=1e-12)

    def test_term_expectations_computational_state(self):
        h = IsingHamiltonian(2, linear=[1.0, 1.0], quadratic={(0, 1): 1.0})
        circuit = QuantumCircuit(2)
        circuit.x(0)  # qubit0 -> |1> -> spin -1
        probs = probabilities(circuit)
        z, zz = term_expectations_from_probabilities(h, probs)
        assert z[0] == pytest.approx(-1.0)
        assert z[1] == pytest.approx(1.0)
        assert zz[(0, 1)] == pytest.approx(-1.0)


class TestNoiseModel:
    def test_gate_error_lookup(self):
        model = NoiseModel.uniform(3, cx_error=0.02, single_qubit_error=0.001)
        from repro.circuit.circuit import Instruction

        assert model.gate_error(Instruction("cx", (0, 1))) == 0.02
        assert model.gate_error(Instruction("h", (1,))) == 0.001
        assert model.gate_error(Instruction("rz", (0,), 0.5)) == 0.0
        assert model.gate_error(Instruction("measure", (0, 1, 2))) == 0.0

    def test_swap_error_compounds(self):
        model = NoiseModel.uniform(2, cx_error=0.1)
        from repro.circuit.circuit import Instruction

        swap_error = model.gate_error(Instruction("swap", (0, 1)))
        assert swap_error == pytest.approx(1 - 0.9**3)

    def test_missing_pair_raises(self):
        model = NoiseModel(
            cx_error={}, single_qubit_error=[0.0], readout_error=[0.0],
            t1_us=[100.0], t2_us=[100.0], durations_ns={},
        )
        from repro.circuit.circuit import Instruction

        with pytest.raises(SimulationError):
            model.gate_error(Instruction("cx", (0, 1)))


class TestDepolarizingModel:
    def test_fidelity_decreases_with_gates(self):
        model = NoiseModel.uniform(2, cx_error=0.05, t1_us=1e9, t2_us=1e9)
        one = QuantumCircuit(2)
        one.cx(0, 1)
        many = QuantumCircuit(2)
        for __ in range(10):
            many.cx(0, 1)
        assert circuit_fidelity(one, model) > circuit_fidelity(many, model)
        assert circuit_fidelity(one, model) == pytest.approx(0.95, abs=1e-6)

    def test_decoherence_lowers_fidelity(self):
        model = NoiseModel.uniform(1, cx_error=0.0, t1_us=1.0, t2_us=1.0)
        circuit = QuantumCircuit(1)
        circuit.rx(0.5, 0)  # 40ns pulse against 1us T1
        fidelity = circuit_fidelity(circuit, model)
        lower_bound = np.exp(-0.04) * np.exp(-0.04 * 0.5)
        assert fidelity == pytest.approx(lower_bound * (1 - 0.0005), rel=1e-3)

    def test_readout_factors_mapping(self):
        model = NoiseModel.uniform(4, readout_error=0.1)
        factors = readout_factors(model, measured_wires=[2, 0])
        assert factors == {0: pytest.approx(0.8), 1: pytest.approx(0.8)}

    def test_noisy_expectation_limits(self):
        h = IsingHamiltonian(2, linear=[1.0, 0.0], quadratic={(0, 1): -1.0}, offset=2.0)
        ideal_z = {0: 0.5}
        ideal_zz = {(0, 1): -0.7}
        clean = noisy_expectation(h, ideal_z, ideal_zz, fidelity=1.0)
        assert clean == pytest.approx(2.0 + 0.5 + 0.7)
        fully_mixed = noisy_expectation(h, ideal_z, ideal_zz, fidelity=0.0)
        assert fully_mixed == pytest.approx(2.0)  # collapses to the offset

    def test_noisy_expectation_readout_attenuation(self):
        h = IsingHamiltonian(2, quadratic={(0, 1): 1.0})
        value = noisy_expectation(
            h, {}, {(0, 1): 1.0}, fidelity=1.0, readout={0: 0.8, 1: 0.5}
        )
        assert value == pytest.approx(0.4)

    def test_noisy_expectation_missing_term(self):
        h = IsingHamiltonian(2, quadratic={(0, 1): 1.0})
        with pytest.raises(SimulationError):
            noisy_expectation(h, {}, {}, fidelity=1.0)

    def test_bad_fidelity_rejected(self):
        h = IsingHamiltonian(1, linear=[1.0])
        with pytest.raises(SimulationError):
            noisy_expectation(h, {0: 1.0}, {}, fidelity=1.5)

    def test_noisy_counts_mixture(self):
        probs = np.array([1.0, 0.0])
        model = NoiseModel.uniform(1, readout_error=0.0)
        counts = noisy_counts(probs, fidelity=0.5, model=model, shots=20000,
                              num_qubits=1, seed=2)
        # Mixture: 0.5 * ideal + 0.5 * uniform => P(0) = 0.75.
        assert counts.probability(0) == pytest.approx(0.75, abs=0.02)

    def test_noisy_counts_readout_flips(self):
        probs = np.array([1.0, 0.0])
        model = NoiseModel.uniform(1, readout_error=0.25)
        counts = noisy_counts(probs, fidelity=1.0, model=model, shots=20000,
                              num_qubits=1, seed=3)
        assert counts.probability(1) == pytest.approx(0.25, abs=0.02)

    def test_flip_probabilities_from_factors(self):
        from repro.sim.depolarizing import flip_probabilities_from_factors

        flips = flip_probabilities_from_factors({0: 1.0, 1: 0.5, 2: 0.0}, 3)
        assert flips[0] == 0.0       # no attenuation => no flips
        assert flips[1] == pytest.approx(0.25)
        assert flips[2] == pytest.approx(0.5)  # fully mixed => coin flip

    def test_flip_factors_reproduce_attenuation(self):
        """Sampling with converted flip probabilities reproduces the
        analytic attenuation of <Z> — the sampling/expectation consistency
        contract."""
        from repro.sim.depolarizing import flip_probabilities_from_factors

        h = IsingHamiltonian(1, linear=[1.0])
        probs = np.array([1.0, 0.0])  # <Z> = +1 ideally
        factor = 0.6
        model = NoiseModel.uniform(1, readout_error=0.0)
        flips = flip_probabilities_from_factors({0: factor}, 1)
        counts = noisy_counts(
            probs, fidelity=1.0, model=model, shots=100_000, num_qubits=1,
            seed=4, flip_probabilities=flips,
        )
        assert expectation_from_counts(h, counts) == pytest.approx(factor, abs=0.01)


class TestTrajectorySimulator:
    def test_noiseless_model_reproduces_ideal(self):
        h = IsingHamiltonian(3, quadratic={(0, 1): 1.0, (1, 2): -1.0})
        circuit = build_qaoa_circuit(h, [0.5], [0.4])
        model = NoiseModel.uniform(
            3, cx_error=0.0, single_qubit_error=0.0, readout_error=0.0,
            t1_us=1e12, t2_us=1e12,
        )
        counts = trajectory_counts(circuit, model, shots=60_000, trajectories=4, seed=4)
        sampled_ev = expectation_from_counts(h, counts)
        exact_ev = expectation_from_probabilities(h, probabilities(circuit))
        assert sampled_ev == pytest.approx(exact_ev, abs=0.05)

    def test_depolarizing_model_validated_by_trajectories(self):
        """The scalable model and the faithful simulator agree on the noisy
        expectation within sampling error (the substitution claim of the
        ``repro.sim`` docstring)."""
        graph = barabasi_albert_graph(5, 1, seed=21)
        h = IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=22)
        circuit = build_qaoa_circuit(h, [0.55], [0.45])
        model = NoiseModel.uniform(
            5, cx_error=0.03, single_qubit_error=0.0, readout_error=0.02,
            t1_us=1e9, t2_us=1e9,
        )
        counts = trajectory_counts(
            circuit, model, shots=40_000, trajectories=400, seed=5,
            include_idle_errors=False,
        )
        trajectory_ev = expectation_from_counts(h, counts)
        ideal_probs = probabilities(circuit)
        z, zz = term_expectations_from_probabilities(h, ideal_probs)
        fidelity = circuit_fidelity(circuit, model, include_idle_errors=False)
        model_ev = noisy_expectation(
            h, z, zz, fidelity, readout_factors(model, list(range(5)))
        )
        ideal_ev = expectation_from_probabilities(h, ideal_probs)
        # The two noisy estimates agree far more closely with each other
        # than either does with the ideal value.
        assert abs(trajectory_ev - model_ev) < 0.35 * abs(ideal_ev - model_ev) + 0.15

    def test_readout_errors_applied(self):
        circuit = QuantumCircuit(1)
        model = NoiseModel.uniform(1, cx_error=0.0, single_qubit_error=0.0,
                                   readout_error=0.3, t1_us=1e12, t2_us=1e12)
        counts = trajectory_counts(circuit, model, shots=20_000, trajectories=1, seed=6)
        assert counts.probability(1) == pytest.approx(0.3, abs=0.02)

    def test_trajectories_validated(self):
        circuit = QuantumCircuit(1)
        model = NoiseModel.uniform(1)
        with pytest.raises(SimulationError):
            trajectory_counts(circuit, model, trajectories=0)


@settings(max_examples=15, deadline=None)
@given(hamiltonian=hamiltonian_strategy(max_qubits=5))
def test_uniform_distribution_expectation_is_offset(hamiltonian):
    """Property: under the maximally mixed state every spin term averages to
    zero, so the expectation collapses to the offset — the anchor of the
    depolarizing model."""
    n = hamiltonian.num_qubits
    uniform = np.full(1 << n, 1.0 / (1 << n))
    value = expectation_from_probabilities(hamiltonian, uniform)
    assert value == pytest.approx(hamiltonian.offset, abs=1e-9)
