"""Tests for repro.sim: statevector engine, sampling, expectations, noise.

Includes the validation that pins the scalable depolarizing model to the
faithful trajectory simulator.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

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
from repro.sim.sampling import OutcomeTable
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

    def test_spins_matrix_convention(self):
        counts = Counts({1: 7}, num_qubits=2)  # bit0=1 -> spin -1 on qubit 0
        assert counts.spins_matrix().tolist() == [[-1, 1]]
        assert counts.counts_array().tolist() == [7]

    def test_flip_all_bits(self):
        counts = Counts({0b01: 4}, num_qubits=2)
        flipped = counts.flip_all_bits()
        assert flipped[0b10] == 4

    def test_flip_all_bits_matches_per_outcome_map(self):
        counts = sample_counts(np.full(64, 1 / 64), 500, 6, seed=3)
        flipped = counts.flip_all_bits()
        assert flipped == {key ^ 63: count for key, count in counts.items()}
        assert flipped.total_shots == counts.total_shots
        assert dict(Counts({}, 3).flip_all_bits()) == {}

    def test_merge(self):
        a = Counts({0: 1}, 1)
        b = Counts({0: 2, 1: 3}, 1)
        merged = a.merge(b)
        assert merged[0] == 3 and merged[1] == 3

    def test_merge_width_mismatch(self):
        with pytest.raises(SimulationError):
            Counts({0: 1}, 1).merge(Counts({0: 1}, 2))

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


def _summed(pairs) -> dict[int, int]:
    """The plain-dict histogram of ``(key, count)`` pairs."""
    summed: dict[int, int] = {}
    for key, count in pairs:
        summed[key] = summed.get(key, 0) + count
    return {key: count for key, count in summed.items() if count}


def _from_pairs(pairs, num_qubits: int) -> Counts:
    keys, counts = [key for key, _ in pairs], [count for _, count in pairs]
    return Counts.from_arrays(keys, counts, num_qubits)


_PAIRS = st.lists(st.tuples(st.integers(0, 31), st.integers(0, 3)), max_size=20)


@settings(max_examples=80, deadline=None)
@given(num_qubits=st.integers(0, 5), pairs=_PAIRS, more=_PAIRS)
def test_counts_match_a_dict_reference(num_qubits, pairs, more):
    """Property: a histogram of ``(key, count)`` pairs is the plain dict
    that sums duplicate keys and drops zero counts, held ascending."""
    size = 1 << num_qubits
    pairs = [(key % size, count) for key, count in pairs]
    more = [(key % size, count) for key, count in more]
    reference = _summed(pairs)
    counts = _from_pairs(pairs, num_qubits)
    assert counts == reference and dict(counts) == reference
    assert Counts(dict(pairs), num_qubits) == _summed(dict(pairs).items())
    assert list(counts) == counts.keys_array().tolist() == sorted(reference)
    for array in (counts.keys_array(), counts.counts_array()):
        assert array.dtype == np.int64 and not array.flags.writeable
    restored = pickle.loads(pickle.dumps(counts))
    assert restored == counts and not restored.keys_array().flags.writeable

    assert counts.merge(_from_pairs(more, num_qubits)) == _summed(pairs + more)
    flipped = counts.flip_all_bits()
    assert flipped == {key ^ (size - 1): c for key, c in reference.items()}
    assert list(flipped) == sorted(flipped)
    assert flipped.flip_all_bits() == counts
    assert counts.most_common() == sorted(
        reference.items(), key=lambda item: (-item[1], item[0])
    )
    total = sum(reference.values())
    for key in range(size):
        if total:
            assert counts.probability(key) == reference.get(key, 0) / total
        else:
            with pytest.raises(SimulationError):
                counts.probability(key)
    for key, row in zip(counts, counts.spins_matrix()):
        assert row.tolist() == [1 - 2 * (key >> q & 1) for q in range(num_qubits)]

    for key, count in pairs:
        for bad_key, bad_count in ((-1 - key, count), (key + size, count),
                                   (key, -1 - count)):
            bad = pairs + [(bad_key, bad_count)]
            with pytest.raises(SimulationError):
                _from_pairs(bad, num_qubits)
            with pytest.raises(SimulationError):
                Counts(dict(bad), num_qubits)


# ----------------------------------------------------------------------
# The exact sampler: draws change between implementations, so these tests
# pin the sampled distribution itself (chi-square goodness of fit against
# the exact distribution, 100k shots, every case seeded).
# ----------------------------------------------------------------------
#: Per-test significance level of the goodness-of-fit checks.
ALPHA = 1e-4
FIT_SHOTS = 100_000


def _random_distribution(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unnormalised random weights over ``2**n`` outcomes, about a quarter
    of them zero (never all)."""
    p = rng.random(1 << n)
    p[rng.random(1 << n) < 0.25] = 0.0
    if not p.any():
        p[rng.integers(1 << n)] = 1.0
    return p


def _fit_p_value(counts: Counts, probs: np.ndarray) -> float:
    """Chi-square p-value of ``counts`` against the exact ``probs``, after
    checking that no shot landed on a zero-mass outcome."""
    observed = np.zeros(probs.size)
    observed[counts.keys_array()] = counts.counts_array()
    support = probs > 0
    assert not observed[~support].any(), "drew a zero-mass outcome"
    if support.sum() == 1:
        return 1.0
    expected = probs[support] / probs[support].sum() * observed.sum()
    return float(chisquare(observed[support], expected).pvalue)


def _flip_channel_oracle(
    probs: np.ndarray, fidelity: float, flips: np.ndarray
) -> np.ndarray:
    """The exact noisy distribution: ``F p + (1 - F) / 2**n``, then each
    wire's bit flip with its own rate."""
    mixed = fidelity * probs / probs.sum() + (1.0 - fidelity) / probs.size
    index = np.arange(probs.size)
    for wire, rate in enumerate(flips):
        mixed = (1.0 - rate) * mixed + rate * mixed[index ^ (1 << wire)]
    return mixed


class _ConstantUniforms:
    """A generator stub whose every uniform is ``value``."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self, size: int) -> np.ndarray:
        return np.full(size, self.value)


class TestExactSampler:
    @pytest.mark.parametrize("trial", range(4))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_sample_counts_fits_distribution(self, n, trial):
        rng = np.random.default_rng(100 * n + trial)
        p = _random_distribution(rng, n)
        counts = sample_counts(p, FIT_SHOTS, n, seed=rng)
        assert counts.total_shots == FIT_SHOTS
        assert _fit_p_value(counts, p) > ALPHA

    @pytest.mark.parametrize("trial", range(2))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_masked_table_fits_permuted_distribution(self, n, trial):
        rng = np.random.default_rng(200 * n + trial)
        p = _random_distribution(rng, n)
        mask = int(rng.integers(1, 1 << n))
        table = OutcomeTable(p, n).masked(mask)
        counts = sample_counts(table, FIT_SHOTS, n, seed=rng)
        assert _fit_p_value(counts, p[np.arange(p.size) ^ mask]) > ALPHA

    @pytest.mark.parametrize("trial", range(6))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_noisy_counts_fits_flip_channel_oracle(self, n, trial):
        """Half the cases pass explicit flip rates, half read the model's
        readout rates through a wire map; every third one samples a masked
        table."""
        rng = np.random.default_rng(300 * n + trial)
        p = _random_distribution(rng, n)
        fidelity = float(rng.random())
        rates = rng.uniform(0.0, 0.3, size=n + 2)
        wires = [int(w) for w in rng.permutation(n + 2)[:n]]
        flips = rates[wires]
        probs, exact = p, p
        if trial % 3 == 2:
            mask = int(rng.integers(1 << n))
            probs = OutcomeTable(p, n).masked(mask)
            exact = p[np.arange(p.size) ^ mask]
        if trial % 2:
            model = replace(NoiseModel.uniform(n + 2),
                            readout_error=rates.tolist())
            counts = noisy_counts(probs, fidelity, model, FIT_SHOTS, n,
                                  measured_wires=wires, seed=rng)
        else:
            counts = noisy_counts(probs, fidelity, NoiseModel.uniform(n),
                                  FIT_SHOTS, n, seed=rng,
                                  flip_probabilities=flips)
        assert counts.total_shots == FIT_SHOTS
        oracle = _flip_channel_oracle(exact, fidelity, flips)
        assert _fit_p_value(counts, oracle) > ALPHA

    @pytest.mark.parametrize("fidelity", [0.0, 1.0])
    def test_noisy_counts_fidelity_edges(self, fidelity):
        rng = np.random.default_rng(17)
        n = 4
        p = _random_distribution(rng, n)
        model = NoiseModel.uniform(n, readout_error=0.0)
        counts = noisy_counts(p, fidelity, model, FIT_SHOTS, n, seed=rng)
        # F = 1 never leaves p's support; F = 0 is the uniform mixture.
        assert _fit_p_value(
            counts, _flip_channel_oracle(p, fidelity, np.zeros(n))
        ) > ALPHA

    def test_trajectory_counts_fit_readout_channel(self):
        h = IsingHamiltonian(3, linear=[0.3, 0.0, -0.2],
                             quadratic={(0, 1): 1.0, (1, 2): -1.0})
        circuit = build_qaoa_circuit(h, [0.5], [0.4])
        model = NoiseModel.uniform(
            3, cx_error=0.0, single_qubit_error=0.0, readout_error=0.1,
            t1_us=1e12, t2_us=1e12,
        )
        counts = trajectory_counts(circuit, model, shots=FIT_SHOTS,
                                   trajectories=1, seed=8)
        oracle = _flip_channel_oracle(probabilities(circuit), 1.0,
                                      np.full(3, 0.1))
        assert _fit_p_value(counts, oracle) > ALPHA

    def test_zero_mass_outcomes_never_drawn(self):
        p = np.array([0.1, 0.0, 0.4, 0.5, 0.0, 0.0, 0.0, 0.0])
        counts = sample_counts(p, FIT_SHOTS, 3, seed=9)
        assert set(counts) == {0, 2, 3}
        masked = sample_counts(OutcomeTable(p, 3).masked(0b101), FIT_SHOTS, 3,
                               seed=9)
        assert set(masked) == {0b101, 0b111, 0b110}
        # Round-off negatives count as zero mass.
        q = np.array([-1e-12, 0.5, 0.5, -1e-12])
        assert set(sample_counts(q, 1000, 2, seed=9)) == {1, 2}

    def test_top_uniform_lands_on_last_outcome_with_mass(self):
        table = OutcomeTable(np.array([0.3, 0.0, 0.7, 0.0, 0.0]
                                      + [0.0] * 3), 3)
        top = _ConstantUniforms(np.nextafter(1.0, 0.0))
        assert table.draw(16, top).tolist() == [2] * 16
        assert table.masked(0b100).draw(4, top).tolist() == [6] * 4

    def test_uniform_past_the_table_is_rejected(self):
        # No generator returns 1.0; a stub that does draws index 2**n,
        # which the histogram's range check rejects, masked or not.
        table = OutcomeTable(np.array([0.3, 0.0, 0.7, 0.0]), 2)
        for drawn_from in (table, table.masked(0b11)):
            drawn = drawn_from.draw(4, _ConstantUniforms(1.0))
            with pytest.raises(SimulationError):
                Counts.from_samples(drawn, 2)

    def test_bottom_uniform_lands_on_first_outcome_with_mass(self):
        table = OutcomeTable(np.array([0.0, 0.0, 0.5, 0.5]), 2)
        assert table.draw(3, _ConstantUniforms(0.0)).tolist() == [2] * 3

    def test_masked_draw_is_unmasked_draw_xor_mask(self):
        rng = np.random.default_rng(10)
        p = _random_distribution(rng, 6)
        table = OutcomeTable(p, 6)
        for mask in (1, 0b101010, 63):
            plain = table.draw(5000, np.random.default_rng(11))
            masked = table.masked(mask).draw(5000, np.random.default_rng(11))
            assert np.array_equal(masked, plain ^ mask)
        assert table.masked(0b11).masked(0b110).mask == 0b101
        assert table.mask == 0
        assert table.masked(5).cdf is table.cdf

    def test_unmasked_draws_come_out_sorted(self):
        table = OutcomeTable(_random_distribution(np.random.default_rng(12), 5), 5)
        drawn = table.draw(2000, np.random.default_rng(13))
        assert np.all(np.diff(drawn) >= 0)

    def test_zero_shots(self):
        p = np.array([0.25, 0.75])
        assert sample_counts(p, 0, 1, seed=1).total_shots == 0
        model = NoiseModel.uniform(1, readout_error=0.1)
        assert noisy_counts(p, 0.5, model, 0, 1, seed=1).total_shots == 0
        assert len(noisy_counts(p, 0.5, model, 0, 1, seed=1)) == 0

    def test_table_is_read_only(self):
        table = OutcomeTable(np.array([0.5, 0.5]), 1)
        with pytest.raises(ValueError):
            table.cdf[0] = 1.0

    def test_validation_errors(self):
        model = NoiseModel.uniform(2)
        with pytest.raises(SimulationError):
            OutcomeTable(np.ones(3), 2)  # wrong shape
        with pytest.raises(SimulationError):
            noisy_counts(np.ones(3), 0.5, model, 10, 2)
        with pytest.raises(SimulationError):
            noisy_counts(np.array([-0.5, 1.5, 0.0, 0.0]), 0.5, model, 10, 2)
        for zero in (np.zeros(4), np.array([0.0, -1e-12, 0.0, 0.0])):
            with pytest.raises(SimulationError):
                sample_counts(zero, 10, 2)
            with pytest.raises(SimulationError):
                noisy_counts(zero, 0.5, model, 10, 2)
        for bad in (np.array([np.nan, 1.0, 0.0, 0.0]),
                    np.array([np.inf, 1.0, 0.0, 0.0])):
            with pytest.raises(SimulationError):
                sample_counts(bad, 10, 2)
        p = np.full(4, 0.25)
        for fidelity in (-0.1, 1.5):
            with pytest.raises(SimulationError):
                noisy_counts(p, fidelity, model, 10, 2)
        with pytest.raises(SimulationError):
            noisy_counts(p, 0.5, model, 10, 2,
                         flip_probabilities=np.zeros(3))
        with pytest.raises(SimulationError):
            sample_counts(p, -1, 2)
        with pytest.raises(SimulationError):
            noisy_counts(p, 0.5, model, -1, 2)
        with pytest.raises(SimulationError):
            sample_counts(OutcomeTable(p, 2), 10, 3)  # table width mismatch
        with pytest.raises(SimulationError):
            OutcomeTable(p, 2).masked(4)


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

    @pytest.mark.parametrize("wires", [[0], [0, 1, 2, 0]], ids=["short", "long"])
    def test_noisy_counts_measured_wires_length_checked(self, wires):
        # A short list used to leave the unlisted qubits without readout
        # error; a long one failed later with an unrelated error.
        model = NoiseModel.uniform(3, readout_error=0.5)
        with pytest.raises(SimulationError, match="measured_wires"):
            noisy_counts(np.eye(8)[0], 1.0, model, 4000, 3,
                         measured_wires=wires, seed=1)

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


@settings(max_examples=25, deadline=None)
@given(hamiltonian=hamiltonian_strategy(max_qubits=5), seed=st.integers(0, 1000))
def test_expectation_from_counts_matches_per_outcome_sum(hamiltonian, seed):
    """Property: the one-pass empirical expectation equals the per-outcome
    sum of ``count * C(spins)``, up to float summation order."""
    n = hamiltonian.num_qubits
    counts = sample_counts(np.ones(1 << n), 300, n, seed=seed)
    reference = sum(
        count * hamiltonian.evaluate([1 - 2 * (key >> q & 1) for q in range(n)])
        for key, count in counts.items()
    ) / counts.total_shots
    value = expectation_from_counts(hamiltonian, counts)
    assert value == pytest.approx(reference, rel=1e-12, abs=1e-12)
