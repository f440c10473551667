"""Tests for recursive multi-level freezing (repro.recursive)."""

import math

import numpy as np
import pytest

from repro.cache import SolveCache
from repro.core.partition import partition_problem
from repro.core.solver import SolverConfig
from repro.exceptions import RecursiveError
from repro.graphs import barabasi_albert_graph
from repro.ising.bruteforce import brute_force_minimum
from repro.ising.freeze import decode_spins, freeze_qubits
from repro.ising.hamiltonian import IsingHamiltonian, random_pm1_hamiltonian
from repro.ising.symmetry import connected_components
from repro.planning import ExecutionBudget
from repro.recursive import (
    RecursiveConfig,
    component_hamiltonians,
    plan_tree,
    solve_recursive,
)


def powerlaw_instance(num_nodes, seed):
    graph = barabasi_albert_graph(num_nodes, attachment=1, seed=seed)
    return random_pm1_hamiltonian(graph, seed=seed)


class TestRecursiveConfig:
    def test_defaults_valid(self):
        cfg = RecursiveConfig()
        assert cfg.max_leaf_qubits == 14
        assert cfg.max_frozen_per_level == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_leaf_qubits": 0},
            {"max_frozen_per_level": 0},
            {"max_children": 0},
            {"max_depth": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(RecursiveError):
            RecursiveConfig(**kwargs)


class TestComponents:
    def test_components_partition_the_qubits(self):
        h = powerlaw_instance(30, seed=4)
        sub, _spec = freeze_qubits(h, [0, 1], [1, 1])
        components = connected_components(sub)
        seen = sorted(q for component in components for q in component)
        assert seen == list(range(sub.num_qubits))

    def test_component_values_sum_to_parent(self):
        # The parent offset rides component 0 only, so evaluating each
        # component at the restriction of any full assignment must sum to
        # the parent's value exactly (integer couplings -> exact floats).
        h = powerlaw_instance(24, seed=9)
        sub, _spec = freeze_qubits(h, [0], [1])
        components = connected_components(sub)
        assert len(components) > 1
        subs = component_hamiltonians(sub, components)
        rng = np.random.default_rng(3)
        for _ in range(10):
            spins = rng.choice([-1, 1], size=sub.num_qubits)
            total = sum(
                s.evaluate([spins[q] for q in qubits])
                for s, qubits in zip(subs, components)
            )
            assert total == sub.evaluate(spins)


class TestTwoLevelFreezeDecode:
    """Satellite 4: multi-level freeze -> decode -> evaluate is exact."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_two_level_decode_reproduces_energy_exactly(self, seed):
        h = powerlaw_instance(18, seed=seed)
        rng = np.random.default_rng(seed + 100)
        for outer in partition_problem(h, [0, 1], prune_symmetric=False):
            inner_hotspots = [0, 1]
            for inner in partition_problem(
                outer.hamiltonian, inner_hotspots, prune_symmetric=False
            ):
                sub_spins = tuple(
                    rng.choice([-1, 1])
                    for _ in range(inner.hamiltonian.num_qubits)
                )
                # Compose the decode level by level: leaf frame -> outer
                # cell frame -> the original instance's frame.
                mid = decode_spins(inner.spec, inner.assignment, sub_spins)
                full = decode_spins(outer.spec, outer.assignment, mid)
                # Offsets accumulate through both freezes, so the leaf
                # evaluation already IS the full-instance energy — ±1
                # couplings make the floats exact, hence strict equality.
                assert inner.hamiltonian.evaluate(sub_spins) == h.evaluate(full)

    def test_three_level_decode_with_fields(self):
        # Linear terms exercise the offset bookkeeping (h_k terms fold
        # into the offset; neighbour fields shift).
        h = IsingHamiltonian(
            8,
            linear={0: 2.0, 1: -1.0, 3: 1.0, 6: -3.0},
            quadratic={(0, 1): 1.0, (1, 2): -1.0, (2, 3): 1.0,
                       (3, 4): -1.0, (4, 5): 1.0, (5, 6): -1.0,
                       (6, 7): 1.0, (0, 7): -1.0},
            offset=5.0,
        )
        rng = np.random.default_rng(17)
        for a in partition_problem(h, [0], prune_symmetric=False):
            for b in partition_problem(a.hamiltonian, [0], prune_symmetric=False):
                for c in partition_problem(
                    b.hamiltonian, [0], prune_symmetric=False
                ):
                    sub = tuple(
                        rng.choice([-1, 1])
                        for _ in range(c.hamiltonian.num_qubits)
                    )
                    full = decode_spins(
                        a.spec, a.assignment,
                        decode_spins(
                            b.spec, b.assignment,
                            decode_spins(c.spec, c.assignment, sub),
                        ),
                    )
                    assert c.hamiltonian.evaluate(sub) == h.evaluate(full)


class TestPlanTree:
    def test_plan_is_validated_and_deterministic(self):
        h = powerlaw_instance(60, seed=2)
        cfg = RecursiveConfig(max_leaf_qubits=8)
        tree_a = plan_tree(h, config=cfg, seed=5)
        tree_b = plan_tree(h, config=cfg, seed=5)
        tree_a.validate_partition()
        assert [n.path for n in tree_a.nodes()] == [
            n.path for n in tree_b.nodes()
        ]
        assert [n.kind for n in tree_a.nodes()] == [
            n.kind for n in tree_b.nodes()
        ]
        assert tree_a.stats == tree_b.stats

    def test_budget_caps_quantum_leaves(self):
        h = powerlaw_instance(120, seed=6)
        budget = ExecutionBudget(max_circuits=4)
        tree = plan_tree(
            h, config=RecursiveConfig(max_leaf_qubits=6), budget=budget,
            seed=1,
        )
        assert tree.budget_cap == 4
        assert len(tree.leaves()) <= 4
        assert tree.classical_nodes()  # the cut frontier is covered
        for node in tree.classical_nodes():
            assert node.fallback_seed is not None

    def test_max_children_triage_demotes_to_classical(self):
        h = powerlaw_instance(40, seed=8)
        cfg = RecursiveConfig(
            max_leaf_qubits=8, max_frozen_per_level=2, max_children=1,
            split_components=False,
        )
        tree = plan_tree(h, config=cfg, seed=3)
        triaged = [
            n for n in tree.classical_nodes() if n.rank is not None
        ]
        assert triaged  # m=2 -> 2 non-mirror cells, only 1 recurses
        for node in triaged:
            assert node.rank.probe_spins is not None

    def test_describe_renders_every_kind(self):
        h = powerlaw_instance(60, seed=2)
        tree = plan_tree(h, config=RecursiveConfig(max_leaf_qubits=8), seed=5)
        text = tree.describe(max_lines=500)
        assert "freeze @r" in text
        assert "split @" in text
        assert "leaf @" in text


class TestSolveRecursive:
    def test_small_instance_matches_brute_force(self):
        h = powerlaw_instance(12, seed=5)
        result = solve_recursive(
            h, recursive_config=RecursiveConfig(max_leaf_qubits=6), seed=5
        )
        exact = brute_force_minimum(h)
        assert result.best_value == exact.value
        assert h.evaluate(result.best_spins) == result.best_value

    def test_best_value_is_exactly_evaluate_of_best_spins(self):
        h = powerlaw_instance(80, seed=11)
        result = solve_recursive(
            h, recursive_config=RecursiveConfig(max_leaf_qubits=8), seed=11
        )
        assert h.evaluate(result.best_spins) == result.best_value
        assert len(result.best_spins) == h.num_qubits
        assert set(result.best_spins) <= {-1, 1}

    def test_unbudgeted_solve_has_finite_expectations(self):
        h = powerlaw_instance(40, seed=3)
        result = solve_recursive(
            h, recursive_config=RecursiveConfig(max_leaf_qubits=8), seed=3
        )
        assert result.num_classical_nodes == 0
        assert math.isfinite(result.ev_ideal)
        assert math.isfinite(result.ev_noisy)

    def test_dedup_collapses_identical_components(self):
        # Two disconnected copies of the same 5-cycle: their leaves are
        # relabelings of each other, so one executes and one adopts.
        quadratic = {}
        for base in (0, 5):
            for k in range(5):
                i, j = base + k, base + (k + 1) % 5
                quadratic[(min(i, j), max(i, j))] = 1.0
        h = IsingHamiltonian(10, quadratic=quadratic)
        result = solve_recursive(
            h, recursive_config=RecursiveConfig(max_leaf_qubits=6), seed=2
        )
        assert result.num_leaves == 2
        assert result.num_circuits_executed == 1
        assert result.num_deduplicated_leaves == 1
        assert result.dedup_sources  # adopter -> executed twin
        assert h.evaluate(result.best_spins) == result.best_value
        assert result.best_value == brute_force_minimum(h).value

    def test_closed_nodes_are_exact(self):
        # Edgeless instance: the whole tree is one closed node, solved in
        # closed form — no circuits, exact value = offset - sum |h|.
        h = IsingHamiltonian(
            6, linear={0: 2.0, 1: -1.5, 2: 0.5, 4: -3.0}, offset=1.25
        )
        result = solve_recursive(h, seed=0)
        assert result.num_leaves == 0
        assert result.num_circuits_executed == 0
        assert result.best_value == 1.25 - (2.0 + 1.5 + 0.5 + 3.0)
        assert result.ev_ideal == result.best_value
        assert result.ev_noisy == result.best_value

    def test_budgeted_solve_still_partitions_exactly(self):
        h = powerlaw_instance(200, seed=13)
        budget = ExecutionBudget(max_circuits=6)
        result = solve_recursive(
            h,
            recursive_config=RecursiveConfig(max_leaf_qubits=10),
            budget=budget,
            seed=13,
        )
        result.tree.validate_partition()
        assert result.num_leaves <= 6
        assert result.num_classical_nodes > 0
        assert h.evaluate(result.best_spins) == result.best_value
        # Classical coverage carries no circuit, so the mixture EV at the
        # root is honestly NaN rather than a partial-coverage average.
        assert math.isnan(result.ev_ideal)

    def test_same_seed_is_deterministic(self):
        h = powerlaw_instance(60, seed=21)
        kwargs = dict(
            recursive_config=RecursiveConfig(max_leaf_qubits=8), seed=21
        )
        a = solve_recursive(h, **kwargs)
        b = solve_recursive(h, **kwargs)
        assert a.best_spins == b.best_spins
        assert a.best_value == b.best_value
        assert a.ev_ideal == b.ev_ideal

    def test_cache_does_not_change_the_result(self):
        h = powerlaw_instance(40, seed=31)
        cfg = RecursiveConfig(max_leaf_qubits=8)
        cold = solve_recursive(h, recursive_config=cfg, seed=31)
        cache = SolveCache()
        warm1 = solve_recursive(h, recursive_config=cfg, seed=31, cache=cache)
        warm2 = solve_recursive(h, recursive_config=cfg, seed=31, cache=cache)
        assert warm1.best_spins == cold.best_spins
        assert warm2.best_spins == cold.best_spins
        assert warm1.best_value == cold.best_value == warm2.best_value
        assert warm2.cache_stats is not None

    def test_thousand_variable_instance_end_to_end(self):
        # The acceptance scenario: a 1000-variable power-law instance,
        # two to three orders of magnitude beyond the single-level reach,
        # solved under an execution budget with the state-space partition
        # verified structurally and the decode round-trip exact.
        h = powerlaw_instance(1000, seed=7)
        budget = ExecutionBudget(max_circuits=32)
        result = solve_recursive(
            h,
            config=SolverConfig(shots=256),
            recursive_config=RecursiveConfig(max_leaf_qubits=12),
            budget=budget,
            seed=7,
        )
        result.tree.validate_partition()
        assert result.num_leaves <= 32
        assert h.evaluate(result.best_spins) == result.best_value
        # The instance is a tree with ±1 couplings and no fields, so the
        # ground state is -num_edges; the recursive heuristic should land
        # within a few percent of it.
        num_edges = len(h.quadratic)
        assert result.best_value <= -0.97 * num_edges

