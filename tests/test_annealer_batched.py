"""Property and regression tests for the batched multi-replica annealer.

Covers the engine's four core contracts:

* **bookkeeping** — the incrementally-maintained energies match
  ``evaluate_many`` after every sweep;
* **validity** — batched best energies can never beat the brute-force
  minimum, and reported spins always evaluate to the reported value;
* **reproducibility** — seeded runs are deterministic, and an instance's
  result is independent of batch composition, on batches mixing many
  topologies as on sibling fan-outs (the property the batch-aware cache
  memo relies on; a slow Hypothesis property draws random mixed batches);
* **quality parity** — the batched engine matches the per-spin scalar
  Metropolis oracle (``tests/scalar_annealer.py``) on mean best energy
  within noise on seeded power-law instances.

Plus the cache-layer integration (per-sibling hits, payload round-trips),
the solver surfacing (fallback provenance, unified sampling-cap caching),
and the fingerprint-keyed distance-matrix memo.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.process_pool import ProcessPoolBackend
from repro.backend.serial import SerialBackend
from repro.baselines.classical import c_min_many, solve_classically_many
from repro.cache.memo import (
    cached_anneal_many,
    cached_simulated_annealing,
    memoized_distance_matrix,
)
from repro.cache.store import SolveCache
from repro.core.partition import executed_subproblems, partition_problem
from repro.core.solver import FrozenQubitsSolver, SolverConfig
from repro.devices.coupling import CouplingMap
from repro.devices.ibm import get_backend
from repro.exceptions import HamiltonianError
from repro.graphs.generators import barabasi_albert_graph
from repro.ising.annealer import AnnealResult, simulated_annealing
from repro.ising.annealer_batched import AnnealStructure, anneal_many
from repro.ising.bruteforce import brute_force_minimum
from repro.ising.hamiltonian import IsingHamiltonian
from repro.planning.budget import ExecutionBudget
from repro.planning.pruning import rank_assignments
from tests.scalar_annealer import _simulated_annealing_scalar


def _powerlaw(n: int, attachment: int, seed: int) -> IsingHamiltonian:
    graph = barabasi_albert_graph(n, attachment=attachment, seed=seed)
    return IsingHamiltonian.from_graph(
        graph, weights="random_pm1", seed=seed + 1
    )


def _sibling_cells(n: int = 12, m: int = 2, seed: int = 3):
    parts = partition_problem(
        _powerlaw(n, 2, seed), list(range(m)), prune_symmetric=False
    )
    return [sp.hamiltonian for sp in executed_subproblems(parts)]


def _gaussian(num_qubits: int, edges, seed: int) -> IsingHamiltonian:
    """Gaussian couplings, fields and offset on the given edges."""
    rng = np.random.default_rng(seed)
    return IsingHamiltonian(
        num_qubits,
        linear=rng.normal(size=num_qubits),
        quadratic={(u, v): float(rng.normal()) for u, v in edges},
        offset=float(rng.normal()),
    )


def _mixed_batch() -> list[IsingHamiltonian]:
    """30 instances over 15 topologies of 1 to 60 spins.

    A 1-spin and an edge-free instance, chains, BA attachments 1-3 with
    +-1 and Gaussian weights on each graph (repeated topologies), and one
    sibling fan-out; the Gaussian instances and the siblings carry
    nonzero ``h``, and the Gaussian ones nonzero offsets.
    """
    batch = [
        IsingHamiltonian(1, linear=[0.7], offset=-0.25),
        IsingHamiltonian(
            6, linear=[1.0, -2.0, 0.0, 0.5, -0.5, 0.25], offset=2.0
        ),
    ]
    for n in (2, 7, 23):
        chain = [(i, i + 1) for i in range(n - 1)]
        batch.append(
            IsingHamiltonian(n, quadratic={edge: -1.0 for edge in chain})
        )
        batch.append(_gaussian(n, chain, seed=n))
    for attachment in (1, 2, 3):
        for n in (5, 18, 60):
            seed = 10 * attachment + n
            batch.append(_powerlaw(n, attachment, seed))
            graph = barabasi_albert_graph(n, attachment=attachment, seed=seed)
            batch.append(
                _gaussian(n, [(u, v) for u, v, _ in graph.edges()], seed)
            )
    batch.extend(_sibling_cells(n=14, m=2, seed=7))
    return batch


class TestStructure:
    def test_color_classes_are_conflict_free(self):
        h = _powerlaw(40, 3, seed=9)
        structure = AnnealStructure.for_hamiltonian(h)
        quadratic = set(h.quadratic.keys())
        for block in structure.blocks:
            sites = set(int(s) for s in block.sites)
            for i in sites:
                for j in sites:
                    assert (min(i, j), max(i, j)) not in quadratic or i == j

    def test_every_site_in_exactly_one_block(self):
        h = _powerlaw(25, 2, seed=4)
        structure = AnnealStructure.for_hamiltonian(h)
        seen = np.concatenate([block.sites for block in structure.blocks])
        assert sorted(seen.tolist()) == list(range(25))

    def test_structure_memoized_across_siblings(self):
        cells = _sibling_cells()
        structures = {id(AnnealStructure.for_hamiltonian(h)) for h in cells}
        # Siblings share one coupling graph => one shared structure.
        assert len(structures) == 1

    def test_mismatched_support_rejected(self):
        h = _powerlaw(8, 1, seed=5)
        other = IsingHamiltonian(8, quadratic={(0, 7): 1.0, (1, 6): -1.0})
        structure = AnnealStructure.for_hamiltonian(h)
        with pytest.raises(HamiltonianError):
            structure.directed_weights([other])


class TestBookkeeping:
    def test_incremental_energy_matches_evaluate_many_every_sweep(self):
        batch = _mixed_batch()
        checked = []

        def check(sweep, spins, energies):
            assert len(spins) == len(batch)
            assert energies.shape == (len(batch), 3)
            for b, (hamiltonian, instance_spins) in enumerate(
                zip(batch, spins)
            ):
                assert instance_spins.shape == (hamiltonian.num_qubits, 3)
                reference = hamiltonian.evaluate_many(instance_spins.T)
                np.testing.assert_allclose(
                    reference, energies[b], rtol=0, atol=1e-9
                )
            checked.append(sweep)

        anneal_many(
            batch, num_sweeps=25, num_restarts=3,
            seeds=list(range(1, len(batch) + 1)), sweep_callback=check,
        )
        assert checked == list(range(25))

    def test_reported_spins_evaluate_to_reported_value(self):
        for seed in range(5):
            h = _powerlaw(20, 2, seed=seed)
            result = anneal_many(
                [h], num_sweeps=60, num_restarts=3, seeds=[seed]
            )[0]
            assert h.evaluate(result.spins) == pytest.approx(result.value)

    def test_batched_best_never_beats_brute_force(self):
        for seed in range(8):
            h = _powerlaw(10, 2, seed=seed)
            exact = brute_force_minimum(h).value
            result = anneal_many(
                [h], num_sweeps=150, num_restarts=4, seeds=[seed]
            )[0]
            assert result.value >= exact - 1e-9


class TestReproducibility:
    def test_seeded_runs_are_bit_identical(self):
        cells = _sibling_cells()
        seeds = list(range(len(cells)))
        first = anneal_many(cells, num_sweeps=40, num_restarts=2, seeds=seeds)
        second = anneal_many(cells, num_sweeps=40, num_restarts=2, seeds=seeds)
        assert first == second

    def test_result_independent_of_batch_composition(self):
        cells = _sibling_cells(n=13, m=2, seed=11)
        seeds = [21, 22, 23, 24]
        batched = anneal_many(cells, num_sweeps=35, num_restarts=3, seeds=seeds)
        solo = [
            anneal_many([h], num_sweeps=35, num_restarts=3, seeds=[s])[0]
            for h, s in zip(cells, seeds)
        ]
        assert batched == solo

    def test_scalar_facade_matches_batched_row(self):
        h = _powerlaw(15, 2, seed=13)
        assert (
            simulated_annealing(h, num_sweeps=30, num_restarts=2, seed=5)
            == anneal_many([h], num_sweeps=30, num_restarts=2, seeds=[5])[0]
        )

    def test_mixed_topology_batch_matches_solo(self):
        batch = _mixed_batch()
        topologies = {
            (h.num_qubits, tuple(sorted(h.quadratic))) for h in batch
        }
        assert len(batch) >= 30 and len(topologies) >= 10
        seeds = [100 + i for i in range(len(batch))]
        mixed = anneal_many(batch, num_sweeps=20, num_restarts=2, seeds=seeds)
        for hamiltonian, seed, result in zip(batch, seeds, mixed):
            assert result == anneal_many(
                [hamiltonian], num_sweeps=20, num_restarts=2, seeds=[seed]
            )[0]

    def test_parent_seed_spawns_deterministically(self):
        cells = _sibling_cells()
        first = anneal_many(cells, num_sweeps=20, num_restarts=2, seed=9)
        second = anneal_many(cells, num_sweeps=20, num_restarts=2, seed=9)
        assert first == second

    def test_seed_and_seeds_mutually_exclusive(self):
        h = _powerlaw(8, 1, seed=3)
        with pytest.raises(HamiltonianError):
            anneal_many([h], seeds=[1], seed=2)

    def test_seeds_length_mismatch_rejected(self):
        h = _powerlaw(8, 1, seed=3)
        with pytest.raises(HamiltonianError):
            anneal_many([h, h], seeds=[1])


@st.composite
def _anneal_instances(draw) -> IsingHamiltonian:
    """Any size 1-40, topology, weight family, fields and offset."""
    n = draw(st.integers(min_value=1, max_value=40))
    kind = draw(st.sampled_from(("edge-free", "chain", "ba", "random")))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    if kind == "chain":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "ba" and n > 1:
        attachment = min(draw(st.integers(1, 3)), n - 1)
        graph = barabasi_albert_graph(n, attachment=attachment, seed=seed)
        edges = [(u, v) for u, v, _ in graph.edges()]
    elif kind == "random":
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.2]
    else:
        edges = []
    weights = (rng.normal(size=len(edges)) if draw(st.booleans())
               else rng.choice((-1.0, 1.0), size=len(edges)))
    linear = rng.normal(size=n) if draw(st.booleans()) else np.zeros(n)
    offset = draw(st.floats(-5, 5, allow_nan=False, allow_infinity=False))
    return IsingHamiltonian(
        n, linear=linear, quadratic=dict(zip(edges, weights.tolist())),
        offset=offset,
    )


@pytest.mark.slow
class TestFlatEngineProperty:
    @settings(max_examples=100, deadline=None)
    @given(
        batch=st.lists(_anneal_instances(), min_size=1, max_size=8),
        num_sweeps=st.integers(min_value=1, max_value=30),
        num_restarts=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    def test_random_mixed_batch_matches_solo_and_evaluates(
        self, batch, num_sweeps, num_restarts, data
    ):
        seeds = data.draw(st.lists(
            st.integers(min_value=0, max_value=2**31 - 1),
            min_size=len(batch), max_size=len(batch),
        ))
        params = {"num_sweeps": num_sweeps, "num_restarts": num_restarts}
        results = anneal_many(batch, seeds=seeds, **params)
        for hamiltonian, seed, result in zip(batch, seeds, results):
            assert result == anneal_many([hamiltonian], seeds=[seed], **params)[0]
            assert abs(result.value - hamiltonian.evaluate(result.spins)) <= 1e-9


class TestValidationAndEdgeCases:
    def test_shared_validation_with_scalar_engine(self):
        h = _powerlaw(6, 1, seed=2)
        with pytest.raises(HamiltonianError):
            anneal_many([h], num_sweeps=0, seeds=[1])
        with pytest.raises(HamiltonianError):
            anneal_many([h], num_restarts=0, seeds=[1])
        with pytest.raises(HamiltonianError):
            anneal_many([h], initial_temperature=0.1, final_temperature=1.0,
                        seeds=[1])
        with pytest.raises(HamiltonianError):
            anneal_many([IsingHamiltonian(0)], seeds=[1])

    def test_empty_batch(self):
        assert anneal_many([]) == []

    def test_edge_free_hamiltonian(self):
        h = IsingHamiltonian(5, linear=[1.0, -2.0, 0.0, 0.5, -0.5], offset=2.0)
        result = anneal_many([h], num_sweeps=40, num_restarts=2, seeds=[1])[0]
        assert result.value == brute_force_minimum(h).value


class TestQualityParity:
    def test_mean_best_energy_within_noise_of_legacy(self):
        """Seeded power-law parity: same sweeps x replicas as the oracle."""
        vector_bests = []
        scalar_bests = []
        for seed in range(6):
            h = _powerlaw(24, 2, seed=100 + seed)
            vector_bests.append(
                simulated_annealing(
                    h, num_sweeps=120, num_restarts=4, seed=seed
                ).value
            )
            scalar_bests.append(
                _simulated_annealing_scalar(
                    h, num_sweeps=120, num_restarts=4,
                    initial_temperature=5.0, final_temperature=0.01,
                    seed=seed,
                ).value
            )
        vector_mean = float(np.mean(vector_bests))
        scalar_mean = float(np.mean(scalar_bests))
        # Parity within noise: the batched engine may not be meaningfully
        # worse than the scalar loop at equal budget.
        tolerance = 0.05 * abs(scalar_mean) + 1e-9
        assert vector_mean <= scalar_mean + tolerance


class TestAnnealResultProvenance:
    def test_replica_fields_populated_on_both_engines(self):
        h = _powerlaw(10, 1, seed=6)
        for result in (
            simulated_annealing(h, num_sweeps=25, num_restarts=3, seed=8),
            _simulated_annealing_scalar(
                h, num_sweeps=25, num_restarts=3, initial_temperature=5.0,
                final_temperature=0.01, seed=8,
            ),
        ):
            assert result.num_replicas == 3
            assert len(result.restart_values) == 3
            assert min(result.restart_values) == pytest.approx(result.value)

    def test_restart_stats_nan_safe(self):
        empty = AnnealResult(value=1.0, spins=(1,), num_sweeps=1, num_restarts=1)
        stats = empty.restart_stats
        assert all(np.isnan(v) for v in stats.values())
        mixed = AnnealResult(
            value=-2.0, spins=(1,), num_sweeps=1, num_restarts=3,
            num_replicas=3, restart_values=(-2.0, float("nan"), -1.0),
        )
        stats = mixed.restart_stats
        assert stats["min"] == -2.0
        assert stats["max"] == -1.0
        assert stats["mean"] == pytest.approx(-1.5)


class TestCacheIntegration:
    def test_cached_anneal_many_answers_hits_individually(self):
        cells = _sibling_cells(n=12, m=3, seed=17)
        seeds = list(range(30, 30 + len(cells)))
        cache = SolveCache()
        cold = cached_anneal_many(
            cells, num_sweeps=25, num_restarts=2, seeds=seeds, cache=cache
        )
        stats = cache.stats_snapshot()["anneal"]
        assert stats["stores"] == len(cells)
        # Warm a strict subset: the memo must answer the hits and anneal
        # only the misses — bit-identically to the cold full batch.
        subset = cells[:2] + [cells[-1]]
        subset_seeds = seeds[:2] + [seeds[-1]]
        warm = cached_anneal_many(
            subset, num_sweeps=25, num_restarts=2, seeds=subset_seeds,
            cache=cache,
        )
        assert warm == [cold[0], cold[1], cold[-1]]
        stats = cache.stats_snapshot()["anneal"]
        assert stats["memory_hits"] == 3
        assert stats["stores"] == len(cells)

    def test_cached_anneal_many_mixed_hit_miss_bit_identical(self):
        cells = _sibling_cells(n=11, m=2, seed=19)
        seeds = [51, 52, 53, 54]
        uncached = anneal_many(cells, num_sweeps=20, num_restarts=2, seeds=seeds)
        cache = SolveCache()
        # Pre-warm only sibling 1: the other three anneal as a smaller
        # batch, which must not change their results.
        cached_anneal_many(
            [cells[1]], num_sweeps=20, num_restarts=2, seeds=[seeds[1]],
            cache=cache,
        )
        mixed = cached_anneal_many(
            cells, num_sweeps=20, num_restarts=2, seeds=seeds, cache=cache
        )
        assert mixed == uncached

    def test_cached_single_call_matches_batch_memo(self):
        h = _powerlaw(9, 1, seed=23)
        cache = SolveCache()
        single = cached_simulated_annealing(
            h, num_sweeps=15, num_restarts=2, seed=77, cache=cache
        )
        hit = cached_anneal_many(
            [h], num_sweeps=15, num_restarts=2, seeds=[77], cache=cache
        )[0]
        assert hit == single
        assert cache.stats_snapshot()["anneal"]["memory_hits"] == 1

    def test_disk_payload_round_trips_provenance(self, tmp_path):
        h = _powerlaw(9, 1, seed=27)
        disk = SolveCache(cache_dir=str(tmp_path))
        stored = cached_simulated_annealing(
            h, num_sweeps=12, num_restarts=3, seed=5, cache=disk
        )
        rehydrated = SolveCache(cache_dir=str(tmp_path))
        replay = cached_simulated_annealing(
            h, num_sweeps=12, num_restarts=3, seed=5, cache=rehydrated
        )
        assert replay == stored
        assert replay.num_replicas == 3
        assert replay.restart_values == stored.restart_values
        assert rehydrated.stats_snapshot()["anneal"]["disk_hits"] == 1

    def test_batch_memo_rejects_seed_length_mismatch(self):
        # Regression: the cached path must validate like the uncached one
        # instead of silently truncating the batch.
        h = _powerlaw(8, 1, seed=2)
        with pytest.raises(HamiltonianError):
            cached_anneal_many([h, h], seeds=[1], cache=SolveCache())

    def test_generator_seeds_bypass_batch_memo(self):
        h = _powerlaw(9, 1, seed=29)
        cache = SolveCache()
        cached_anneal_many(
            [h], num_sweeps=10, seeds=[np.random.default_rng(3)], cache=cache
        )
        assert "anneal" not in cache.stats_snapshot()


class TestSolverIntegration:
    def test_rank_assignments_vectorized_matches_probe_contract(self):
        parts = executed_subproblems(
            partition_problem(_powerlaw(14, 2, seed=31), [0, 1, 2])
        )
        ranks = rank_assignments(parts, seed=7)
        assert sorted(r.index for r in ranks) == sorted(sp.index for sp in parts)
        probes = [r.probe_value for r in ranks]
        assert probes == sorted(probes)
        for rank in ranks:
            assert rank.lower_bound <= rank.probe_value + 1e-9
        # Deterministic, and bit-identical to the per-cell engine calls.
        assert ranks == rank_assignments(parts, seed=7)

    def test_budget_fallback_carries_replica_provenance(self):
        problem = _powerlaw(10, 2, seed=37)
        solver = FrozenQubitsSolver(
            num_frozen=3,
            config=SolverConfig(grid_resolution=3, maxiter=4, shots=128),
            seed=41,
            budget=ExecutionBudget(max_circuits=1),
            warm_start=False,
        )
        result = solver.solve(problem)
        classical = [o for o in result.outcomes if o.source == "classical"]
        assert classical
        for outcome in classical:
            assert outcome.fallback is not None
            assert outcome.fallback.num_replicas == outcome.fallback.num_restarts
        provenance = result.fallback_provenance
        assert set(provenance) == {o.subproblem.index for o in classical}
        for record in provenance.values():
            assert record["num_replicas"] >= 1
            assert np.isfinite(record["mean"])

    def test_budgeted_solve_deterministic_and_cache_consistent(self):
        problem = _powerlaw(11, 2, seed=43)
        cache = SolveCache()

        def solve():
            return FrozenQubitsSolver(
                num_frozen=3,
                config=SolverConfig(grid_resolution=3, maxiter=4, shots=128),
                seed=47,
                budget=ExecutionBudget(max_circuits=1),
                warm_start=False,
                cache=cache,
            ).solve(problem)

        cold, warm = solve(), solve()
        assert cold.best_spins == warm.best_spins
        assert cold.best_value == warm.best_value
        assert [o.best_spins for o in cold.outcomes] == [
            o.best_spins for o in warm.outcomes
        ]
        # Probes + fallbacks answered from cache on the warm pass.
        assert cache.stats_snapshot()["anneal"]["memory_hits"] > 0

    def test_sampling_cap_fallback_cached_via_session_default(self):
        """Satellite regression: solver.py's over-the-cap fallback routes
        through cached_simulated_annealing like every other call site."""
        from repro.cache import set_default_cache

        problem = _powerlaw(24, 1, seed=53)
        config = SolverConfig(
            grid_resolution=3, maxiter=4, shots=64, max_sampled_qubits=8
        )
        cache = SolveCache()
        set_default_cache(cache)
        try:
            def solve():
                return FrozenQubitsSolver(
                    num_frozen=1, config=config, seed=59, cache=False
                ).solve(problem)

            cold = solve()
            assert cache.stats_snapshot()["anneal"]["stores"] > 0
            warm = solve()
            assert cache.stats_snapshot()["anneal"]["memory_hits"] > 0
            assert warm.best_spins == cold.best_spins
            assert warm.best_value == cold.best_value
        finally:
            set_default_cache(None)

    def test_sampling_cap_fallback_matches_across_backends(self):
        """The over-the-cap fallback draws its seed from the job's own
        stream, so worker processes reproduce the serial answer."""
        problem = _powerlaw(22, 1, seed=61)
        config = SolverConfig(
            grid_resolution=3, maxiter=4, shots=64, max_sampled_qubits=8
        )

        def solve(backend):
            return FrozenQubitsSolver(
                num_frozen=2, config=config, seed=67
            ).solve(problem, backend=backend)

        serial = solve(SerialBackend())
        pooled = solve(ProcessPoolBackend(max_workers=2))
        # Two 20-qubit jobs: the pool forks, so the fallback runs in workers.
        assert sum(o.run is not None for o in serial.outcomes) == 2
        assert serial.best_spins == pooled.best_spins
        assert serial.best_value == pooled.best_value
        assert [o.best_spins for o in serial.outcomes] == [
            o.best_spins for o in pooled.outcomes
        ]


class TestClassicalBatchFacade:
    def test_solve_classically_many_matches_singles(self):
        hams = [_powerlaw(9, 1, seed=s) for s in (71, 72, 73)]
        batch = solve_classically_many(hams, method="anneal", seed=5)
        # Child seeds spawn in batch order; replay them one by one.
        from repro.utils.rng import spawn_seeds

        seeds = spawn_seeds(5, len(hams))
        singles = [
            solve_classically_many([h], method="anneal", seeds=[s])[0]
            for h, s in zip(hams, seeds)
        ]
        assert batch == singles

    def test_auto_dispatch_mixes_exact_and_anneal(self):
        small = _powerlaw(6, 1, seed=81)
        large = _powerlaw(25, 1, seed=82)
        results = solve_classically_many(
            [small, large], method="auto", seed=3, exact_threshold=10
        )
        assert results[0].method == "exact" and results[0].exact
        assert results[1].method == "anneal" and not results[1].exact

    def test_c_min_many_exact_below_threshold(self):
        hams = [_powerlaw(8, 1, seed=s) for s in (91, 92)]
        values = c_min_many(hams, exact_threshold=10)
        for h, value in zip(hams, values):
            assert value == brute_force_minimum(h).value

    def test_seeds_length_mismatch_rejected(self):
        from repro.exceptions import SolverError

        with pytest.raises(SolverError):
            solve_classically_many(
                [_powerlaw(6, 1, seed=1)], seeds=[1, 2]
            )


class TestDistanceMatrixMemo:
    def test_two_equal_maps_share_one_matrix(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]
        first = CouplingMap(4, edges)
        second = CouplingMap(4, edges)
        assert first.distance_matrix() is second.distance_matrix()

    def test_two_routes_on_same_device_share_one_matrix(self):
        """Satellite regression: route() twice on equal devices => one
        all-pairs BFS result, fingerprint-shared."""
        device = get_backend("montreal")
        rebuilt = CouplingMap(
            device.coupling.num_qubits, device.coupling.edges()
        )
        assert memoized_distance_matrix(device.coupling) is (
            memoized_distance_matrix(rebuilt)
        )

    def test_memoized_matrix_is_read_only_and_correct(self):
        coupling = CouplingMap(3, [(0, 1), (1, 2)])
        distances = coupling.distance_matrix()
        assert not distances.flags.writeable
        assert distances[0, 2] == 2
        assert distances[0, 0] == 0

    def test_distinct_topologies_get_distinct_matrices(self):
        a = CouplingMap(3, [(0, 1), (1, 2)])
        b = CouplingMap(3, [(0, 1), (1, 2), (0, 2)])
        assert a.distance_matrix() is not b.distance_matrix()
        assert b.distance_matrix()[0, 2] == 1
