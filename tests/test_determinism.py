"""End-to-end determinism regression: one seed, one result — everywhere.

The solver's contract (ISSUE 3 satellite): with the same seed, a
``FrozenQubitsResult`` is bit-identical across

* execution backends (serial vs process-pool at p=1),
* caching modes (off vs cold cache vs warm cache vs disk-warmed cache),
* dedup/fallback paths (budget-pruned cells, warm starts off).

"Bit-identical" is checked on every scientific field: spins, values,
expectations (exact float equality, no tolerances), decoded per-outcome
histograms, and executed-circuit accounting. Cache bookkeeping fields
(``cache_stats``, ``num_optimizer_evaluations``, ``num_deduplicated``) are
deliberately excluded — skipping redundant optimizer work is the cache's
entire point.
"""

from __future__ import annotations

import pytest

from repro.backend import ProcessPoolBackend, SerialBackend
from repro.cache import SolveCache
from repro.core import FrozenQubitsSolver, SolverConfig, solve_many
from repro.core.solver import FrozenQubitsResult
from repro.devices import get_backend
from repro.graphs.generators import barabasi_albert_graph
from repro.ising.hamiltonian import IsingHamiltonian
from repro.planning import ExecutionBudget


@pytest.fixture
def problem() -> IsingHamiltonian:
    graph = barabasi_albert_graph(8, attachment=2, seed=31)
    return IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=32)


CONFIG = SolverConfig(grid_resolution=3, maxiter=4, shots=256)


def result_signature(result: FrozenQubitsResult) -> tuple:
    """Every scientific field of a result, exactly (no tolerances)."""
    outcomes = tuple(
        (
            outcome.subproblem.index,
            outcome.source,
            outcome.best_spins,
            outcome.best_value,
            outcome.ev_ideal if outcome.ev_ideal == outcome.ev_ideal else "nan",
            outcome.ev_noisy if outcome.ev_noisy == outcome.ev_noisy else "nan",
            tuple(sorted(outcome.decoded_counts.items()))
            if outcome.decoded_counts is not None
            else None,
        )
        for outcome in result.outcomes
    )
    return (
        tuple(result.frozen_qubits),
        result.best_spins,
        result.best_value,
        result.ev_ideal,
        result.ev_noisy,
        result.num_circuits_executed,
        result.skipped_assignments,
        result.edited_circuits,
        outcomes,
    )


def solve(problem, *, backend="serial", cache=False, device=True, **kwargs):
    solver = FrozenQubitsSolver(
        num_frozen=2, config=CONFIG, seed=77, cache=cache, **kwargs
    )
    return solver.solve(
        problem, get_backend("montreal") if device else None, backend=backend
    )


def test_backends_bit_identical_with_and_without_cache(problem):
    reference = result_signature(solve(problem))
    assert result_signature(
        solve(problem, backend=ProcessPoolBackend(max_workers=2))
    ) == reference
    cache = SolveCache()
    assert result_signature(solve(problem, cache=cache)) == reference
    # Warm cache, different backend: params/transpiles now come from the
    # store and only sampling runs — still bit-identical.
    assert result_signature(
        solve(problem, backend=ProcessPoolBackend(max_workers=2), cache=cache)
    ) == reference


def test_disk_warmed_cache_bit_identical(problem, tmp_path):
    reference = result_signature(solve(problem))
    writer = SolveCache(cache_dir=str(tmp_path))
    assert result_signature(solve(problem, cache=writer)) == reference
    # A brand-new process would see only the artifact directory: model that
    # with a fresh cache instance over the same dir (memory tier empty).
    reader = SolveCache(cache_dir=str(tmp_path))
    warmed = solve(problem, cache=reader)
    assert result_signature(warmed) == reference
    stats = reader.stats_snapshot()
    assert stats["params"]["disk_hits"] > 0
    assert stats["transpiled"]["disk_hits"] == 1


def test_budgeted_solve_with_classical_fallback_bit_identical(problem):
    budget = ExecutionBudget(max_circuits=1)
    reference = result_signature(solve(problem, budget=budget))
    assert reference[6] != ()  # the budget really pruned something
    cache = SolveCache()
    assert result_signature(solve(problem, budget=budget, cache=cache)) == reference
    warmed = solve(problem, budget=budget, cache=cache)
    assert result_signature(warmed) == reference
    # Probe + fallback anneals replayed from the store on the warm pass.
    assert cache.stats_snapshot()["anneal"]["memory_hits"] > 0


def test_asymmetric_parent_dedups_identical_siblings_bit_identically():
    """A hub with h-only couplings makes sibling cells collide exactly."""
    # Qubit 0 is the sole hotspot; freezing it leaves siblings differing
    # only through 0's couplings — with J(0,*) = 0 they are *identical*,
    # so the sibling must adopt its twin's training, with the cache on or
    # off, without changing any bit.
    problem = IsingHamiltonian(
        5,
        linear={1: 0.5, 2: -1.0},
        quadratic={(1, 2): 1.0, (2, 3): -1.0, (3, 4): 1.0, (1, 4): 1.0},
    )
    # Pin the frozen qubit to the uncoupled one via an explicit plan.
    from repro.planning import FreezePlan

    plan = FreezePlan(num_frozen=1, hotspots=(0,), prune_symmetric=False)
    def run(cache):
        solver = FrozenQubitsSolver(
            plan=plan, config=CONFIG, seed=55, cache=cache, warm_start=False
        )
        return solver.solve(problem, get_backend("montreal"))

    reference = run(False)
    deduped = run(SolveCache())
    assert deduped.num_deduplicated == 1
    assert reference.num_deduplicated == 1
    assert result_signature(deduped) == result_signature(reference)
    # The dedup dependency (params_from) schedules identically on the
    # process pool: the adopting job runs a level after its trainer.
    solver = FrozenQubitsSolver(
        plan=plan, config=CONFIG, seed=55, cache=SolveCache(),
        warm_start=False,
    )
    result = solver.solve(
        problem, get_backend("montreal"),
        backend=ProcessPoolBackend(max_workers=2),
    )
    assert result.num_deduplicated == 1
    assert result_signature(result) == result_signature(reference)


def test_solve_many_batch_cache_bit_identical(problem):
    graph = barabasi_albert_graph(7, attachment=1, seed=41)
    second = IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=42)
    problems = [problem, second, problem]  # duplicate instance in-batch
    device = get_backend("montreal")
    kwargs = dict(
        num_frozen=1, device=device, config=CONFIG, seed=99,
        backend=SerialBackend(),
    )
    reference = [result_signature(r) for r in solve_many(problems, **kwargs)]
    cache = SolveCache()
    cached = solve_many(problems, cache=cache, **kwargs)
    assert [result_signature(r) for r in cached] == reference
    # The duplicated problem's template compiled once...
    assert cached[0].cache_stats["transpiled"]["memory_hits"] >= 1
    # ...and its siblings trained once: cross-problem in-batch dedup
    # linked every job of the repeated instance to the first occurrence.
    assert cached[2].num_deduplicated == cached[2].num_circuits_executed
    assert cached[0].num_deduplicated == 0
    warmed = solve_many(problems, cache=cache, **kwargs)
    assert [result_signature(r) for r in warmed] == reference
    assert warmed[0].cache_stats["params"]["memory_hits"] > 0


def _proxy_problem() -> IsingHamiltonian:
    # At m = 3, class trainers sp0 and sp1 plan the same canonical proxy.
    # With warm starts on, sp0 trains it fresh and sp1 from sp0's optimum,
    # so their two proxy optimums differ. At m = 4 two pairs of class
    # trainers plan a shared proxy each.
    graph = barabasi_albert_graph(14, attachment=2, seed=105)
    return IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=205)


def _proxy_solver(num_frozen, num_layers, warm_start, cache=False):
    config = SolverConfig(
        num_layers=num_layers,
        proxy_training=True,
        grid_resolution=4,
        maxiter=10,
        shots=256,
    )
    return FrozenQubitsSolver(
        num_frozen=num_frozen,
        prune_symmetric=False,
        config=config,
        seed=1,
        warm_start=warm_start,
        cache=cache,
    )


def test_cached_warm_started_proxy_solve_equals_uncached():
    """At p = 2 the cache holds no trained parameters, so a cached proxy
    solve must train exactly what the uncached one trains — including the
    warm-started class trainers, whatever an earlier solve stored."""
    problem = _proxy_problem()
    device = get_backend("montreal")
    reference = result_signature(
        _proxy_solver(3, 2, warm_start=True).solve(problem, device)
    )
    cache = SolveCache()
    for _ in range(2):
        cached = _proxy_solver(3, 2, warm_start=True, cache=cache)
        assert result_signature(cached.solve(problem, device)) == reference


def test_every_job_carrying_a_proxy_trains_it():
    """Proxy outcomes are shared by landscape class only: each class
    trainer with a proxy plan runs its own proxy optimization, even when
    another trainer's proxy is the same canonical instance."""
    problem = _proxy_problem()
    device = get_backend("montreal")
    solver = _proxy_solver(4, 1, warm_start=False)
    prepared = solver.prepare_jobs(problem, device)
    carrying = sum(1 for job in prepared.jobs if job.proxy is not None)
    assert carrying == 8
    assert solver.solve(problem, device).num_proxy_trained == carrying
