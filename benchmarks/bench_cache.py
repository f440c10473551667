"""Solve-cache wall-clock gate on a repeated 16-sibling sweep.

The sweep-style experiments (Figs. 9-18) re-solve the same instances over
and over — regenerating a figure, adding a trial column, re-running after
an unrelated code change. Each re-solve re-transpiles the master template
and re-trains every sibling from scratch; with the content-addressed cache
all of that collapses to sampling on fresh seeds.

This bench runs the same 16-sibling fan-out (m=4, pruning off, device
noise model) ``repeats`` times, cache-off vs cache-on, and gates:

* cache-on total wall-clock beats cache-off by >= 2x, and
* every repeat's scientific output is **bit-identical** between the two
  modes (the cache may only skip work, never change a result).

The instance is a BA(m=3) graph: on a BA tree the siblings fall into one
or two landscape classes that train once per solve with or without the
cache, so the cache would have almost no training left to skip.
"""

import time

from benchmarks.conftest import emit_bench_json, scale
from repro.cache import SolveCache
from repro.core import FrozenQubitsSolver, SolverConfig
from repro.devices import get_backend
from repro.experiments import render_table
from repro.graphs.generators import barabasi_albert_graph
from repro.ising.hamiltonian import IsingHamiltonian

NUM_SIBLINGS = 16  # m=4, symmetry pruning off => 2**4 executed cells


def _problem(num_qubits):
    graph = barabasi_albert_graph(num_qubits, 3, seed=7)
    return IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=8)


def _solve(problem, device, config, cache):
    solver = FrozenQubitsSolver(
        num_frozen=4,
        prune_symmetric=False,
        config=config,
        seed=13,
        cache=cache,
    )
    return solver.solve(problem, device)


def _signature(result):
    """Every scientific field, bitwise (see tests/test_determinism.py)."""
    return (
        tuple(result.frozen_qubits),
        result.best_spins,
        result.best_value,
        result.ev_ideal,
        result.ev_noisy,
        result.num_circuits_executed,
        tuple(
            (
                o.subproblem.index,
                o.source,
                o.best_spins,
                o.best_value,
                o.ev_ideal,
                o.ev_noisy,
                tuple(sorted(o.decoded_counts.items()))
                if o.decoded_counts is not None
                else None,
            )
            for o in result.outcomes
        ),
    )


def test_cache_speedup_on_repeated_sweep(benchmark):
    num_qubits = scale(12, 16)
    repeats = scale(8, 10)
    config = SolverConfig(
        grid_resolution=scale(12, 12), maxiter=scale(25, 30), shots=1024
    )
    device = get_backend("montreal")
    problem = _problem(num_qubits)

    # Warm the interpreter/JIT-ish costs once so neither mode pays them.
    _solve(problem, device, config, cache=False)

    started = time.perf_counter()
    uncached = [
        _solve(problem, device, config, cache=False) for _ in range(repeats)
    ]
    uncached_s = time.perf_counter() - started

    cache = SolveCache()
    started = time.perf_counter()
    cached = [
        _solve(problem, device, config, cache=cache) for _ in range(repeats)
    ]
    cached_s = time.perf_counter() - started

    speedup = uncached_s / cached_s
    stats = cache.stats_snapshot()
    rows = [
        {
            "mode": "cache-off",
            "repeats": repeats,
            "siblings": NUM_SIBLINGS,
            "total_ms": uncached_s * 1000.0,
            "per_solve_ms": uncached_s * 1000.0 / repeats,
        },
        {
            "mode": "cache-on",
            "repeats": repeats,
            "siblings": NUM_SIBLINGS,
            "total_ms": cached_s * 1000.0,
            "per_solve_ms": cached_s * 1000.0 / repeats,
        },
    ]
    # Anchor the pytest-benchmark record to one warm-cache solve.
    benchmark.pedantic(
        lambda: _solve(problem, device, config, cache=cache),
        rounds=3,
        iterations=1,
    )
    print()
    print(render_table(rows, title="Repeated 16-sibling sweep wall-clock"))
    emit_bench_json(
        "cache",
        {
            "num_qubits": num_qubits,
            "repeats": repeats,
            "siblings": NUM_SIBLINGS,
            "speedup": speedup,
            "uncached_seconds": uncached_s,
            "cached_seconds": cached_s,
        },
    )
    print(
        f"speedup: {speedup:.2f}x | params hits: "
        f"{stats['params']['memory_hits']} | transpile hits: "
        f"{stats['transpiled']['memory_hits']}"
    )

    # Equal work: both modes executed the full 16-circuit fan-out.
    assert all(r.num_circuits_executed == NUM_SIBLINGS for r in uncached)
    assert all(r.num_circuits_executed == NUM_SIBLINGS for r in cached)
    # Bit-identity gate: the cache may never change a result.
    for off, on in zip(uncached, cached):
        assert _signature(off) == _signature(on)
    # Reuse really happened: repeats 2..R trained nothing and compiled
    # nothing (one params hit per class trainer — the siblings that did
    # not adopt a class trainer's parameters — and 1 transpile hit per
    # warm repeat).
    trainers = NUM_SIBLINGS - cached[0].num_deduplicated
    assert stats["params"]["memory_hits"] >= trainers * (repeats - 1)
    assert stats["transpiled"]["memory_hits"] >= repeats - 1
    # The acceptance bar: >= 2x wall-clock on the repeated sweep.
    assert speedup >= 2.0, f"cache speedup {speedup:.2f}x < 2x"
