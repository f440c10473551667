"""Tests for repro.core: hotspots, partitioning, costs, and the solver.

The integration tests here check the paper's *claims*, not just plumbing:
sub-circuits are smaller and higher-fidelity, symmetry pruning halves the
quantum cost without losing the optimum, decoded outcomes live in the right
sub-space, and FQ's ARG beats the baseline's.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    FrozenQubitsSolver,
    SolverConfig,
    partition_problem,
    quantum_cost,
    recommend_num_frozen,
    select_hotspots,
)
from repro.core.costs import cost_curve
from repro.core.hotspots import dropped_edges
from repro.core.partition import executed_subproblems, linear_support_union
from repro.core.solver import run_qaoa_instance
from repro.devices import get_backend
from repro.exceptions import SolverError
from repro.graphs.generators import barabasi_albert_graph, star_graph
from repro.ising import IsingHamiltonian, brute_force_minimum, freeze_qubits
from repro.qaoa import approximation_ratio_gap
from repro.utils.bitstrings import bits_to_spins, int_to_bits

FAST = SolverConfig(shots=1024, grid_resolution=8, maxiter=30)


def _substituted(h, frozen, values):
    """Table 2 term by term, in the parent's coupling order."""
    kept = [q for q in range(h.num_qubits) if q not in frozen]
    index = {q: i for i, q in enumerate(kept)}
    value = dict(zip(frozen, values))
    parent = h.linear
    linear = {index[q]: float(parent[q]) for q in kept if parent[q] != 0.0}
    offset = h.offset
    for q in frozen:
        offset += value[q] * parent[q]
    quadratic = {}
    for (i, j), coupling in h.quadratic.items():
        if i in value and j in value:
            offset += value[i] * value[j] * coupling
        elif i in value or j in value:
            free, fixed = (j, i) if i in value else (i, j)
            linear[index[free]] = (
                linear.get(index[free], 0.0) + value[fixed] * coupling
            )
        else:
            quadratic[(index[i], index[j])] = coupling
    return IsingHamiltonian(len(kept), linear, quadratic, offset)


class TestHotspots:
    def test_degree_policy_picks_star_center(self):
        h = IsingHamiltonian.from_graph(star_graph(8))
        assert select_hotspots(h, 1) == [0]

    def test_sequential_selection_discounts_chosen(self):
        # Two hubs sharing all leaves: after picking one, the other's
        # residual degree should still make it the second pick.
        quadratic = {}
        for leaf in range(2, 8):
            quadratic[(0, leaf)] = 1.0
            quadratic[(1, leaf)] = 1.0
        quadratic[(0, 1)] = 1.0
        h = IsingHamiltonian(8, quadratic=quadratic)
        assert select_hotspots(h, 2) == [0, 1]

    def test_weighted_policy(self):
        h = IsingHamiltonian(
            3, quadratic={(0, 1): 0.1, (0, 2): 0.1, (1, 2): 5.0}
        )
        # Degree ties everywhere; node 1 and 2 carry the heavy edge.
        assert select_hotspots(h, 1, policy="weighted")[0] in (1, 2)

    def test_random_policy_deterministic_by_seed(self):
        h = IsingHamiltonian.from_graph(barabasi_albert_graph(12, 1, seed=1))
        a = select_hotspots(h, 3, policy="random", seed=7)
        b = select_hotspots(h, 3, policy="random", seed=7)
        assert a == b
        assert len(set(a)) == 3

    def test_swap_aware_requires_device(self):
        h = IsingHamiltonian.from_graph(star_graph(4))
        with pytest.raises(SolverError):
            select_hotspots(h, 1, policy="swap_aware")

    def test_swap_aware_runs_with_device(self):
        h = IsingHamiltonian.from_graph(barabasi_albert_graph(10, 1, seed=2))
        selected = select_hotspots(
            h, 2, policy="swap_aware", device=get_backend("montreal")
        )
        assert len(selected) == 2

    def test_unknown_policy(self):
        h = IsingHamiltonian.from_graph(star_graph(4))
        with pytest.raises(SolverError):
            select_hotspots(h, 1, policy="bogus")

    def test_bad_m_rejected(self):
        h = IsingHamiltonian.from_graph(star_graph(4))
        with pytest.raises(SolverError):
            select_hotspots(h, 5)

    def test_dropped_edges_counts_incident_terms(self):
        h = IsingHamiltonian.from_graph(star_graph(6))
        assert dropped_edges(h, [0]) == 5
        assert dropped_edges(h, [1]) == 1

    def test_hotspot_maximises_dropped_edges(self):
        """Sec. 3.5's rationale: the degree policy drops at least as many
        edges as any single alternative node."""
        graph = barabasi_albert_graph(14, 2, seed=3)
        h = IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=4)
        chosen = select_hotspots(h, 1)[0]
        best = max(dropped_edges(h, [q]) for q in range(h.num_qubits))
        assert dropped_edges(h, [chosen]) == best


class TestPartition:
    def test_partition_counts_and_pruning(self, small_ba_hamiltonian):
        parts = partition_problem(small_ba_hamiltonian, [0, 1])
        assert len(parts) == 4
        executed = executed_subproblems(parts)
        assert len(executed) == 2  # symmetric parent => half pruned
        mirrors = [sp for sp in parts if sp.is_mirror]
        assert all(parts[sp.mirror_of].assignment == tuple(-v for v in sp.assignment)
                   for sp in mirrors)

    def test_pruning_disabled(self, small_ba_hamiltonian):
        parts = partition_problem(
            small_ba_hamiltonian, [0, 1], prune_symmetric=False
        )
        assert len(executed_subproblems(parts)) == 4

    def test_asymmetric_parent_not_pruned(self):
        h = IsingHamiltonian(3, linear=[1.0, 0, 0], quadratic={(0, 1): 1.0})
        parts = partition_problem(h, [0])
        assert len(executed_subproblems(parts)) == 2

    def test_cannot_freeze_everything(self):
        h = IsingHamiltonian(2, quadratic={(0, 1): 1.0})
        with pytest.raises(SolverError):
            partition_problem(h, [0, 1])

    def test_subproblem_sizes(self, small_ba_hamiltonian):
        parts = partition_problem(small_ba_hamiltonian, [2])
        assert all(
            sp.hamiltonian.num_qubits == small_ba_hamiltonian.num_qubits - 1
            for sp in parts
        )

    def test_linear_support_union_covers_neighbors(self, small_ba_hamiltonian):
        hotspot = select_hotspots(small_ba_hamiltonian, 1)[0]
        parts = partition_problem(small_ba_hamiltonian, [hotspot])
        support = linear_support_union(parts)
        neighbors = small_ba_hamiltonian.neighbors(hotspot)
        expected = sorted(
            parts[0].spec.sub_index(q) for q in neighbors
        )
        assert support == expected

    def test_siblings_share_one_spec_and_coupling_table(self):
        rng = np.random.default_rng(8)
        for seed in range(4):
            graph = barabasi_albert_graph(16, 3, seed=seed)
            h = IsingHamiltonian(
                16,
                linear=rng.normal(size=16),
                quadratic={(u, v): float(rng.normal())
                           for u, v, _ in graph.edges()},
                offset=float(rng.normal()),
            )
            frozen = select_hotspots(h, 3)
            assert any(
                (min(a, b), max(a, b)) in h.quadratic
                for a in frozen for b in frozen if a != b
            )
            parts = partition_problem(h, frozen)
            assert len({id(sp.spec) for sp in parts}) == 1
            assert len({id(sp.hamiltonian._pairs) for sp in parts}) == 1
            assert len({id(sp.hamiltonian._couplings) for sp in parts}) == 1
            for sp in parts:
                alone, spec = freeze_qubits(h, frozen, sp.assignment)
                assert spec == sp.spec
                assert sp.hamiltonian == alone
                assert (sp.hamiltonian.linear.tobytes()
                        == alone.linear.tobytes())
                assert sp.hamiltonian.offset.hex() == alone.offset.hex()
                assert sp.hamiltonian.content_text() == _substituted(
                    h, frozen, sp.assignment
                ).content_text()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_partition_preserves_global_minimum(self, data):
        """Min over sub-problem minima equals the parent minimum — the
        exactness guarantee of Sec. 3.6, including with pruning + mirrors."""
        n = data.draw(st.integers(min_value=3, max_value=7))
        seed = data.draw(st.integers(min_value=0, max_value=10_000))
        graph = barabasi_albert_graph(n, 1, seed=seed)
        h = IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=seed + 1)
        m = data.draw(st.integers(min_value=1, max_value=min(2, n - 1)))
        hotspots = select_hotspots(h, m)
        parts = partition_problem(h, hotspots)
        best = np.inf
        for sp in parts:
            if sp.is_mirror:
                continue
            best = min(best, brute_force_minimum(sp.hamiltonian).value)
        assert best == pytest.approx(brute_force_minimum(h).value)


class TestCosts:
    def test_quantum_cost_table(self):
        assert quantum_cost(0) == 1
        assert quantum_cost(1) == 1          # pruned: mirror is free
        assert quantum_cost(2) == 2
        assert quantum_cost(10) == 512
        assert quantum_cost(2, pruned=False) == 4

    def test_quantum_cost_negative(self):
        with pytest.raises(SolverError):
            quantum_cost(-1)

    def test_cost_curve_monotone_cx(self, small_ba_hamiltonian):
        curve = cost_curve(
            small_ba_hamiltonian, get_backend("montreal"), max_frozen=3
        )
        cx = [report.cx_count for report in curve]
        assert all(a >= b for a, b in zip(cx, cx[1:]))
        assert curve[0].num_circuits == 1
        assert curve[3].num_circuits == 4

    def test_recommend_num_frozen_respects_budget(self):
        graph = barabasi_albert_graph(12, 1, seed=6)
        h = IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=7)
        m = recommend_num_frozen(
            h, get_backend("montreal"), budget_circuits=1, max_frozen=4
        )
        assert m <= 1  # budget of one circuit allows at most m=1 (pruned)

    def test_recommend_num_frozen_on_star(self):
        """On a star, freezing the hub removes every edge — the advisor
        must recommend at least m=1."""
        h = IsingHamiltonian.from_graph(star_graph(10))
        m = recommend_num_frozen(h, get_backend("montreal"), budget_circuits=8)
        assert m >= 1


class TestSolver:
    def test_fq_beats_baseline_arg(self, small_ba_hamiltonian):
        """The paper's headline claim at small scale."""
        device = get_backend("montreal")
        baseline = run_qaoa_instance(
            small_ba_hamiltonian, device=device, config=FAST, seed=0
        )
        baseline_arg = approximation_ratio_gap(
            baseline.ev_ideal, baseline.ev_noisy
        )
        solver = FrozenQubitsSolver(num_frozen=1, config=FAST, seed=0)
        result = solver.solve(small_ba_hamiltonian, device=device)
        fq_arg = approximation_ratio_gap(result.ev_ideal, result.ev_noisy)
        assert fq_arg < baseline_arg

    def test_quantum_cost_matches_pruning(self, small_ba_hamiltonian):
        result1 = FrozenQubitsSolver(num_frozen=1, config=FAST, seed=1).solve(
            small_ba_hamiltonian
        )
        assert result1.num_circuits_executed == 1
        result2 = FrozenQubitsSolver(num_frozen=2, config=FAST, seed=1).solve(
            small_ba_hamiltonian
        )
        assert result2.num_circuits_executed == 2
        assert result2.edited_circuits == 0  # no device => no template

    def test_template_editing_used_with_device(self, small_ba_hamiltonian):
        device = get_backend("montreal")
        result = FrozenQubitsSolver(num_frozen=2, config=FAST, seed=2).solve(
            small_ba_hamiltonian, device=device
        )
        assert result.template is not None
        assert result.edited_circuits == 1  # second sibling edited, not compiled

    def test_finds_global_optimum_ideal(self, small_ba_hamiltonian):
        result = FrozenQubitsSolver(num_frozen=1, config=FAST, seed=3).solve(
            small_ba_hamiltonian
        )
        exact = brute_force_minimum(small_ba_hamiltonian).value
        assert result.best_value == pytest.approx(exact)

    def test_decoded_outcomes_respect_frozen_bits(self, small_ba_hamiltonian):
        """Every decoded outcome of a sub-problem has the frozen qubits at
        exactly the substituted values (mirrors: the flipped values)."""
        solver = FrozenQubitsSolver(num_frozen=2, config=FAST, seed=4)
        result = solver.solve(small_ba_hamiltonian, device=get_backend("montreal"))
        n = small_ba_hamiltonian.num_qubits
        for outcome in result.outcomes:
            sp = outcome.subproblem
            assert outcome.decoded_counts is not None
            for key in outcome.decoded_counts:
                spins = bits_to_spins(int_to_bits(key, n))
                for qubit, value in zip(sp.spec.frozen_qubits, sp.assignment):
                    assert spins[qubit] == value

    def test_mirror_ev_equals_twin(self, small_ba_hamiltonian):
        result = FrozenQubitsSolver(num_frozen=1, config=FAST, seed=5).solve(
            small_ba_hamiltonian
        )
        assert len(result.outcomes) == 2
        executed, mirror = result.outcomes
        if executed.subproblem.is_mirror:
            executed, mirror = mirror, executed
        assert mirror.ev_ideal == executed.ev_ideal
        assert mirror.best_value == pytest.approx(executed.best_value)

    def test_combined_counts_cover_both_subspaces(self, small_ba_hamiltonian):
        result = FrozenQubitsSolver(num_frozen=1, config=FAST, seed=6).solve(
            small_ba_hamiltonian, device=get_backend("montreal")
        )
        combined = result.combined_counts
        hotspot = result.frozen_qubits[0]
        n = small_ba_hamiltonian.num_qubits
        values = set()
        for key in combined:
            spins = bits_to_spins(int_to_bits(key, n))
            values.add(spins[hotspot])
        assert values == {-1, 1}

    def test_combined_counts_equal_pairwise_merge(self, small_ba_hamiltonian):
        result = FrozenQubitsSolver(num_frozen=2, config=FAST, seed=6).solve(
            small_ba_hamiltonian, device=get_backend("montreal")
        )
        sources = sorted(o.source for o in result.outcomes)
        assert sources == ["mirror", "mirror", "quantum", "quantum"]
        pairwise = result.outcomes[0].decoded_counts
        for outcome in result.outcomes[1:]:
            pairwise = pairwise.merge(outcome.decoded_counts)
        combined = result.combined_counts
        assert combined == pairwise
        assert combined.keys_array().tolist() == pairwise.keys_array().tolist()
        assert combined.total_shots == 4 * FAST.shots

    def test_m_zero_is_plain_qaoa(self, small_ba_hamiltonian):
        result = FrozenQubitsSolver(num_frozen=0, config=FAST, seed=7).solve(
            small_ba_hamiltonian
        )
        assert result.num_circuits_executed == 1
        assert result.frozen_qubits == []
        assert len(result.outcomes) == 1

    def test_sub_circuit_fidelity_exceeds_baseline(self, small_ba_hamiltonian):
        device = get_backend("montreal")
        baseline = run_qaoa_instance(
            small_ba_hamiltonian, device=device, config=FAST, seed=8
        )
        result = FrozenQubitsSolver(num_frozen=1, config=FAST, seed=8).solve(
            small_ba_hamiltonian, device=device
        )
        executed = [o for o in result.outcomes if o.run is not None]
        assert executed[0].run.context.fidelity > baseline.context.fidelity

    def test_negative_m_rejected(self):
        with pytest.raises(SolverError):
            FrozenQubitsSolver(num_frozen=-1)

    def test_large_problem_falls_back_to_annealing(self):
        """Instances over the sampling cap still produce a solution."""
        graph = barabasi_albert_graph(30, 1, seed=9)
        h = IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=10)
        config = SolverConfig(
            shots=256, grid_resolution=6, maxiter=20, max_sampled_qubits=10
        )
        result = FrozenQubitsSolver(num_frozen=1, config=config, seed=11).solve(h)
        assert result.outcomes[0].decoded_counts is None
        assert len(result.best_spins) == 30
        assert h.evaluate(result.best_spins) == pytest.approx(result.best_value)

    def test_asymmetric_problem_runs_all_subproblems(self):
        h = IsingHamiltonian(
            5,
            linear=[0.5, 0, 0, 0, 0],
            quadratic={(0, 1): 1.0, (0, 2): -1.0, (0, 3): 1.0, (3, 4): 1.0},
        )
        result = FrozenQubitsSolver(num_frozen=1, config=FAST, seed=12).solve(h)
        assert result.num_circuits_executed == 2
