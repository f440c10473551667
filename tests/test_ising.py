"""Tests for repro.ising: Hamiltonians, freezing (Table 2), symmetry,
classical solvers, QUBO conversion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import FreezeError, HamiltonianError
from repro.graphs.generators import barabasi_albert_graph, star_graph
from repro.ising import (
    IsingHamiltonian,
    brute_force_minimum,
    count_ground_states,
    decode_spins,
    energy_table,
    freeze_qubit,
    freeze_qubits,
    frozen_assignments,
    has_spin_flip_symmetry,
    ising_to_qubo,
    qubo_to_ising,
    simulated_annealing,
    verify_spin_flip_symmetry,
)
from tests.conftest import hamiltonian_strategy, spins_strategy


class TestHamiltonianConstruction:
    def test_basic_evaluation(self):
        h = IsingHamiltonian(2, linear=[1.0, -1.0], quadratic={(0, 1): 2.0}, offset=0.5)
        assert h.evaluate((1, 1)) == pytest.approx(1 - 1 + 2 + 0.5)
        assert h.evaluate((-1, 1)) == pytest.approx(-1 - 1 - 2 + 0.5)

    def test_sparse_linear_mapping(self):
        h = IsingHamiltonian(4, linear={2: 3.0})
        assert h.linear_coefficient(2) == 3.0
        assert h.linear_coefficient(0) == 0.0

    def test_linear_length_mismatch(self):
        with pytest.raises(HamiltonianError):
            IsingHamiltonian(3, linear=[1.0, 2.0])

    def test_quadratic_key_normalised(self):
        h = IsingHamiltonian(3, quadratic={(2, 0): 1.5})
        assert h.quadratic_coefficient(0, 2) == 1.5
        assert (0, 2) in h.quadratic

    def test_duplicate_pair_rejected(self):
        with pytest.raises(HamiltonianError):
            IsingHamiltonian(3, quadratic={(0, 1): 1.0, (1, 0): 2.0})

    def test_diagonal_rejected(self):
        with pytest.raises(HamiltonianError):
            IsingHamiltonian(3, quadratic={(1, 1): 1.0})

    def test_zero_coupling_dropped(self):
        h = IsingHamiltonian(3, quadratic={(0, 1): 0.0})
        assert h.num_terms == 0

    def test_out_of_range_qubit(self):
        with pytest.raises(HamiltonianError):
            IsingHamiltonian(2, quadratic={(0, 2): 1.0})

    def test_degree_and_neighbors(self):
        h = IsingHamiltonian(4, quadratic={(0, 1): 1, (0, 2): 1, (2, 3): 1})
        assert h.degree(0) == 2
        assert h.neighbors(0) == (1, 2)
        assert h.neighbors(3) == (2,)

    def test_evaluate_rejects_bad_spins(self):
        h = IsingHamiltonian(2, quadratic={(0, 1): 1.0})
        with pytest.raises(HamiltonianError):
            h.evaluate((1, 0))
        with pytest.raises(HamiltonianError):
            h.evaluate((1, 1, 1))

    def test_evaluate_many_matches_single(self, rng):
        h = IsingHamiltonian(
            5,
            linear=rng.normal(size=5),
            quadratic={(0, 1): 1.0, (2, 4): -2.0, (1, 3): 0.5},
            offset=1.25,
        )
        batch = rng.choice((-1.0, 1.0), size=(20, 5))
        vectorised = h.evaluate_many(batch)
        for row, value in zip(batch, vectorised):
            assert value == pytest.approx(h.evaluate(tuple(int(s) for s in row)))

    def test_energy_landscape_size_guard(self):
        h = IsingHamiltonian(27)
        with pytest.raises(HamiltonianError):
            h.energy_landscape()

    @pytest.mark.parametrize("trial", range(5))
    def test_energy_landscape_matches_reference_sign_matrix(self, trial):
        """The O(2^n) bit-doubling recurrence agrees with the per-term
        sign-matrix sum it replaced, to 1e-12 on random coefficients."""
        rng = np.random.default_rng(200 + trial)
        n = int(rng.integers(2, 11))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = rng.random(len(pairs)) < 0.5
        quadratic = {
            pair: float(rng.normal())
            for pair, kept in zip(pairs, keep)
            if kept
        }
        h = IsingHamiltonian(
            n,
            linear=rng.normal(size=n),
            quadratic=quadratic,
            offset=float(rng.normal()),
        )
        landscape = h.energy_landscape()
        # Reference: evaluate every basis state directly.
        states = np.arange(2**n)
        spins = 1.0 - 2.0 * (
            (states[:, None] >> np.arange(n)[None, :]) & 1
        )
        reference = h.evaluate_many(spins)
        np.testing.assert_allclose(landscape, reference, atol=1e-12, rtol=0)

    def test_energy_landscape_exact_on_integer_coefficients(self):
        """Integer-coefficient instances (the benchmarks) stay bit-exact."""
        h = IsingHamiltonian(
            6,
            linear=[1, -2, 0, 3, -1, 2],
            quadratic={(0, 1): 1.0, (1, 3): -2.0, (2, 5): 1.0, (4, 5): 3.0},
            offset=2.0,
        )
        landscape = h.energy_landscape()
        states = np.arange(2**6)
        spins = 1.0 - 2.0 * ((states[:, None] >> np.arange(6)[None, :]) & 1)
        assert (landscape == h.evaluate_many(spins)).all()

    def test_from_graph_uses_weights(self):
        graph = star_graph(4)
        h = IsingHamiltonian.from_graph(graph)
        assert h.num_terms == 3
        assert h.has_zero_linear()

    def test_from_graph_random_pm1(self):
        graph = barabasi_albert_graph(10, 1, seed=0)
        h = IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=1)
        assert all(abs(j) == 1.0 for j in h.quadratic.values())

    def test_from_graph_unknown_mode(self):
        with pytest.raises(HamiltonianError):
            IsingHamiltonian.from_graph(star_graph(3), weights="bogus")

    def test_scaled(self):
        h = IsingHamiltonian(2, linear=[1, 0], quadratic={(0, 1): 2.0}, offset=3.0)
        doubled = h.scaled(2.0)
        assert doubled.offset == 6.0
        assert doubled.quadratic_coefficient(0, 1) == 4.0
        assert doubled.linear_coefficient(0) == 2.0

    def test_dict_roundtrip(self):
        h = IsingHamiltonian(3, linear=[0, 1, -1], quadratic={(0, 2): -1.0}, offset=0.5)
        assert IsingHamiltonian.from_dict(h.to_dict()) == h

    def test_to_graph_roundtrip_edges(self):
        h = IsingHamiltonian(4, quadratic={(0, 1): 1.0, (2, 3): -1.0})
        graph = h.to_graph()
        assert graph.num_edges == 2
        assert graph.weight(2, 3) == -1.0


class TestFreezing:
    def test_paper_table2_coefficients(self):
        """Freezing updates follow Table 2 exactly."""
        h = IsingHamiltonian(
            3, linear=[0.5, 0.0, 0.0], quadratic={(0, 1): 2.0, (1, 2): -1.0}, offset=1.0
        )
        # Freeze qubit 1 to +1: h0 += J01; h2 += J12; offset += h1 (= 0).
        sub, spec = freeze_qubits(h, [1], [1])
        assert sub.num_qubits == 2
        assert sub.linear_coefficient(0) == pytest.approx(0.5 + 2.0)
        assert sub.linear_coefficient(1) == pytest.approx(-1.0)
        assert sub.offset == pytest.approx(1.0)
        assert sub.num_terms == 0
        assert spec.kept_qubits == (0, 2)

    def test_freeze_minus_one(self):
        h = IsingHamiltonian(2, linear=[0.0, 3.0], quadratic={(0, 1): 2.0})
        sub = freeze_qubit(h, 1, -1)
        assert sub.linear_coefficient(0) == pytest.approx(-2.0)
        assert sub.offset == pytest.approx(-3.0)

    def test_freeze_both_endpoints_constant_absorbed(self):
        h = IsingHamiltonian(3, quadratic={(0, 1): 2.0, (1, 2): 1.0})
        sub, __ = freeze_qubits(h, [0, 1], [1, -1])
        assert sub.num_qubits == 1
        assert sub.offset == pytest.approx(2.0 * 1 * -1)
        assert sub.linear_coefficient(0) == pytest.approx(-1.0)

    def test_freeze_duplicate_rejected(self):
        h = IsingHamiltonian(3, quadratic={(0, 1): 1.0})
        with pytest.raises(FreezeError):
            freeze_qubits(h, [0, 0], [1, 1])

    def test_freeze_bad_value_rejected(self):
        h = IsingHamiltonian(2, quadratic={(0, 1): 1.0})
        with pytest.raises(FreezeError):
            freeze_qubit(h, 0, 0)

    def test_freeze_length_mismatch(self):
        h = IsingHamiltonian(2)
        with pytest.raises(FreezeError):
            freeze_qubits(h, [0], [1, -1])

    def test_frozen_assignments_order(self):
        assignments = frozen_assignments(2)
        assert list(assignments) == [(1, 1), (1, -1), (-1, 1), (-1, -1)]

    def test_frozen_assignments_negative_rejected(self):
        with pytest.raises(FreezeError):
            frozen_assignments(-1)

    def test_frozen_assignments_lazy_indexing(self):
        # The sequence is O(1) memory: len/indexing work far beyond any
        # materializable enumeration.
        assignments = frozen_assignments(50)
        assert len(assignments) == 2**50
        assert assignments[0] == (1,) * 50
        assert assignments[-1] == (-1,) * 50
        assert assignments[1] == (1,) * 49 + (-1,)
        assert assignments.index_of(assignments[3_000_000_007]) == 3_000_000_007
        with pytest.raises(IndexError):
            assignments[2**50]

    def test_frozen_assignments_guard_threshold(self):
        from repro.ising.freeze import MAX_FROZEN_QUBITS

        frozen_assignments(MAX_FROZEN_QUBITS)  # at the guard: fine
        with pytest.raises(FreezeError):
            frozen_assignments(MAX_FROZEN_QUBITS + 1)

    def test_sub_index_matches_linear_scan(self):
        # Regression pin for the sub-index lookup: identical answers to
        # the historical tuple.index scan, including the error cases.
        h = IsingHamiltonian(97, quadratic={(0, 96): 1.0})
        __, spec = freeze_qubits(h, [5, 41, 90], [1, -1, 1])
        for original in range(97):
            if original in (5, 41, 90):
                with pytest.raises(FreezeError):
                    spec.sub_index(original)
            else:
                assert spec.sub_index(original) == spec.kept_qubits.index(original)
        with pytest.raises(FreezeError):
            spec.sub_index(97)

    def test_decode_roundtrip(self):
        h = IsingHamiltonian(5, quadratic={(0, 4): 1.0, (1, 3): 1.0})
        sub, spec = freeze_qubits(h, [4, 1], [-1, 1])
        full = decode_spins(spec, [-1, 1], [1, -1, 1])
        assert full == (1, 1, -1, 1, -1)

    def test_decode_validates_lengths(self):
        h = IsingHamiltonian(3, quadratic={(0, 1): 1.0})
        __, spec = freeze_qubits(h, [0], [1])
        with pytest.raises(FreezeError):
            decode_spins(spec, [1, 1], [1, 1])
        with pytest.raises(FreezeError):
            decode_spins(spec, [1], [1])

    def test_sub_index_of_frozen_raises(self):
        h = IsingHamiltonian(3)
        __, spec = freeze_qubits(h, [1], [1])
        assert spec.sub_index(2) == 1
        with pytest.raises(FreezeError):
            spec.sub_index(1)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), hamiltonian=hamiltonian_strategy(max_qubits=6))
    def test_freeze_preserves_cost_property(self, data, hamiltonian):
        """THE core invariant (Eqs. 2-3): the sub-problem cost at any point
        equals the parent cost at the decoded point."""
        n = hamiltonian.num_qubits
        if n < 2:
            return
        m = data.draw(st.integers(min_value=1, max_value=n - 1))
        qubits = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=m,
                max_size=m,
                unique=True,
            )
        )
        values = data.draw(st.tuples(*([st.sampled_from((-1, 1))] * m)))
        sub, spec = freeze_qubits(hamiltonian, qubits, list(values))
        sub_point = data.draw(spins_strategy(sub.num_qubits))
        full_point = decode_spins(spec, values, sub_point)
        assert sub.evaluate(sub_point) == pytest.approx(
            hamiltonian.evaluate(full_point), abs=1e-9
        )

    def test_union_of_subspaces_covers_parent(self, paper_fig5_hamiltonian):
        """Paper Fig. 5: the two sub-problem tables together enumerate the
        parent's full state space with identical costs."""
        h = paper_fig5_hamiltonian
        parent = {spins: cost for spins, cost in energy_table(h)}
        seen = {}
        for value in (1, -1):
            sub, spec = freeze_qubits(h, [3], [value])
            for sub_spins, cost in energy_table(sub):
                full = decode_spins(spec, [value], sub_spins)
                seen[full] = cost
        assert seen == pytest.approx(parent)


class TestSymmetry:
    def test_zero_linear_is_symmetric(self, paper_fig5_hamiltonian):
        assert has_spin_flip_symmetry(paper_fig5_hamiltonian)
        assert verify_spin_flip_symmetry(paper_fig5_hamiltonian, seed=0)

    def test_nonzero_linear_not_symmetric(self):
        h = IsingHamiltonian(2, linear=[1.0, 0.0], quadratic={(0, 1): 1.0})
        assert not has_spin_flip_symmetry(h)

    def test_offset_does_not_break_symmetry(self):
        h = IsingHamiltonian(2, quadratic={(0, 1): 1.0}, offset=5.0)
        assert has_spin_flip_symmetry(h)
        assert verify_spin_flip_symmetry(h, seed=1)

    def test_ground_state_count_even_under_symmetry(self):
        """Paper Sec. 3.7.2: symmetric landscapes have an even number of
        global minima."""
        graph = barabasi_albert_graph(8, 1, seed=10)
        h = IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=11)
        assert count_ground_states(h) % 2 == 0

    @settings(max_examples=40, deadline=None)
    @given(hamiltonian=hamiltonian_strategy(max_qubits=6), data=st.data())
    def test_symmetry_theorem_property(self, hamiltonian, data):
        """C(z) == C(-z) whenever h == 0 (the paper's theorem)."""
        n = hamiltonian.num_qubits
        zeroed = IsingHamiltonian(
            n, quadratic=hamiltonian.quadratic, offset=hamiltonian.offset
        )
        point = data.draw(spins_strategy(n))
        flipped = tuple(-s for s in point)
        assert zeroed.evaluate(point) == pytest.approx(zeroed.evaluate(flipped))

    def test_mirror_subproblem_relation(self, small_ba_hamiltonian):
        """H_sub^{-a}(z) == H_sub^{+a}(-z) for symmetric parents."""
        h = small_ba_hamiltonian
        hotspot = h.to_graph().max_degree_node()
        plus = freeze_qubit(h, hotspot, 1)
        minus = freeze_qubit(h, hotspot, -1)
        rng = np.random.default_rng(3)
        for __ in range(20):
            z = tuple(int(s) for s in rng.choice((-1, 1), size=plus.num_qubits))
            flipped = tuple(-s for s in z)
            assert minus.evaluate(z) == pytest.approx(plus.evaluate(flipped))


class TestBruteForce:
    def test_known_minimum(self):
        # Antiferromagnetic pair: min at opposite spins, value -1.
        h = IsingHamiltonian(2, quadratic={(0, 1): 1.0})
        result = brute_force_minimum(h)
        assert result.value == -1.0
        assert result.spins[0] != result.spins[1]
        assert result.maximum == 1.0

    def test_zero_qubit_rejected(self):
        with pytest.raises(HamiltonianError):
            brute_force_minimum(IsingHamiltonian(0))

    def test_energy_table_complete(self):
        h = IsingHamiltonian(3, quadratic={(0, 1): 1.0})
        table = energy_table(h)
        assert len(table) == 8
        assert all(len(spins) == 3 for spins, __ in table)

    def test_minimum_consistent_with_table(self, small_ba_hamiltonian):
        result = brute_force_minimum(small_ba_hamiltonian)
        table_min = min(cost for __, cost in energy_table(small_ba_hamiltonian))
        assert result.value == pytest.approx(table_min)


class TestAnnealer:
    def test_finds_exact_optimum_small(self, small_ba_hamiltonian):
        exact = brute_force_minimum(small_ba_hamiltonian).value
        result = simulated_annealing(small_ba_hamiltonian, seed=0)
        assert result.value == pytest.approx(exact)

    def test_respects_restart_and_sweep_counts(self):
        h = IsingHamiltonian(4, quadratic={(0, 1): 1.0, (2, 3): -1.0})
        result = simulated_annealing(h, num_sweeps=10, num_restarts=2, seed=1)
        assert result.num_sweeps == 10
        assert result.num_restarts == 2

    def test_invalid_temperatures_rejected(self):
        h = IsingHamiltonian(2, quadratic={(0, 1): 1.0})
        with pytest.raises(HamiltonianError):
            simulated_annealing(h, initial_temperature=0.1, final_temperature=1.0)

    def test_zero_qubits_rejected(self):
        with pytest.raises(HamiltonianError):
            simulated_annealing(IsingHamiltonian(0))

    def test_spins_evaluate_to_reported_value(self):
        graph = barabasi_albert_graph(15, 2, seed=4)
        h = IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=5)
        result = simulated_annealing(h, seed=6)
        assert h.evaluate(result.spins) == pytest.approx(result.value)


class TestQubo:
    def test_simple_qubo_minimum_matches(self):
        # min x0 + x1 - 3 x0 x1 over binaries is -1 at (1, 1).
        q = np.array([[1.0, -1.5], [-1.5, 1.0]])
        h = qubo_to_ising(q)
        result = brute_force_minimum(h)
        assert result.value == pytest.approx(-1.0)
        assert result.spins == (-1, -1)  # spin -1 == bit 1

    def test_rejects_non_square(self):
        with pytest.raises(HamiltonianError):
            qubo_to_ising(np.zeros((2, 3)))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_qubo_ising_value_equivalence(self, data):
        """QUBO value at x equals Ising value at z = 1 - 2x, for all x."""
        n = data.draw(st.integers(min_value=1, max_value=5))
        q = np.asarray(
            data.draw(
                st.lists(
                    st.lists(
                        st.floats(-2, 2, allow_nan=False, allow_infinity=False),
                        min_size=n,
                        max_size=n,
                    ),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        bits = np.asarray(data.draw(st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n)))
        h = qubo_to_ising(q, constant=0.5)
        qubo_value = float(bits @ ((q + q.T) / 2.0) @ bits) + 0.5
        spins = tuple(1 - 2 * int(b) for b in bits)
        assert h.evaluate(spins) == pytest.approx(qubo_value, abs=1e-9)

    def test_ising_to_qubo_roundtrip(self, small_ba_hamiltonian):
        q, constant = ising_to_qubo(small_ba_hamiltonian)
        back = qubo_to_ising(q, constant)
        rng = np.random.default_rng(8)
        for __ in range(10):
            z = tuple(int(s) for s in rng.choice((-1, 1), size=back.num_qubits))
            assert back.evaluate(z) == pytest.approx(small_ba_hamiltonian.evaluate(z))
