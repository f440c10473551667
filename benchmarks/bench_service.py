"""Perf gates for the resilient solve service frontend.

Two promises make :class:`~repro.service.SolveService` safe to put in
front of the solve pipeline by default, and this bench holds both:

* **Coalescing works at fan-in scale** — 64 concurrent duplicates of
  one request must ride at most **2** training runs (deterministically
  one: submission never yields to the loop, so the burst is fully
  enqueued before the first dispatch), and every fanned-out response
  must be bit-identical to a direct ``solver.solve()``.
* **The frontend is effectively free for singletons** — a lone request
  through the service (queue hop, worker thread, control plumbing,
  bookkeeping) must cost at most **5%** over calling the solver
  directly. Measured with single solves interleaved (direct, service,
  direct, ...) so machine drift is not billed to one mode, and compared
  by median, which a heavy upper tail moves less than the minimum.

The emitted ``coalescing_ratio`` (requests per training run, 64.0) and
``single_request_speedup`` (direct / serviced median, ~1.0) feed
``compare_bench.py`` so CI catches a future coalescing break or a
creeping frontend tax.
"""

import asyncio
import statistics
import time

from benchmarks.conftest import emit_bench_json, scale
from repro.backend import SerialBackend
from repro.core import FrozenQubitsSolver, SolverConfig
from repro.experiments import render_table
from repro.graphs.generators import barabasi_albert_graph
from repro.ising.hamiltonian import IsingHamiltonian
from repro.service import (
    ServiceConfig,
    SolveRequest,
    SolveService,
    default_execute,
)

#: Concurrent identical requests in the fan-in burst.
DUPLICATES = 64

#: Training runs the burst may cost (the acceptance bar; in practice 1).
MAX_DISPATCHES = 2

#: Single-request frontend overhead budget vs a direct solve.
MAX_OVERHEAD = 0.05

NUM_FROZEN = 4
SEED = 13


def _problem(num_qubits):
    graph = barabasi_albert_graph(num_qubits, 1, seed=7)
    return IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=8)


def _solver_options(config):
    return {"prune_symmetric": False, "config": config}


def _solve_direct(problem, config, backend):
    solver = FrozenQubitsSolver(
        num_frozen=NUM_FROZEN, seed=SEED, **_solver_options(config)
    )
    return solver.solve(problem, backend=backend)


def _request(problem, config, backend):
    return SolveRequest(
        hamiltonian=problem,
        num_frozen=NUM_FROZEN,
        seed=SEED,
        backend=backend,
        solver_options=_solver_options(config),
    )


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
            )
            for o in result.outcomes
        ),
    )


async def _burst(problem, config, backend, dispatches):
    """Submit DUPLICATES identical requests at once; return results+stats."""

    def counting_execute(request, control):
        dispatches.append(request.request_id)
        return default_execute(request, control)

    async with SolveService(
        ServiceConfig(max_concurrency=4), execute=counting_execute
    ) as service:
        futures = [
            await service.submit(_request(problem, config, backend))
            for _ in range(DUPLICATES)
        ]
        results = await asyncio.gather(*futures)
        stats = service.stats()
    return results, stats


async def _interleaved_singles(problem, config, backend, solves):
    """Paired per-solve wall-clocks: direct vs through the service.

    Each round times both modes back to back (alternating which goes
    first, so within-round drift cancels instead of being billed to one
    mode). The overhead estimator downstream is the *median of the
    paired differences* over the median direct time: pairing subtracts
    the common-mode noise — thermal throttling, a noisy neighbour in
    the container — that a ratio of independent medians would keep.
    """
    direct_timings, serviced_timings = [], []
    direct = serviced = None
    async with SolveService(ServiceConfig(max_concurrency=1)) as service:

        async def one_serviced():
            result = await service.solve(
                problem,
                num_frozen=NUM_FROZEN,
                seed=SEED,
                backend=backend,
                solver_options=_solver_options(config),
            )
            return result.raise_for_status()

        # Warm the service path once (to_thread pool spin-up etc.) so the
        # measured overhead is steady-state, not first-call costs.
        await one_serviced()
        for round_index in range(solves):
            if round_index % 2 == 0:
                started = time.perf_counter()
                direct = _solve_direct(problem, config, backend)
                direct_timings.append(time.perf_counter() - started)
                started = time.perf_counter()
                serviced = await one_serviced()
                serviced_timings.append(time.perf_counter() - started)
            else:
                started = time.perf_counter()
                serviced = await one_serviced()
                serviced_timings.append(time.perf_counter() - started)
                started = time.perf_counter()
                direct = _solve_direct(problem, config, backend)
                direct_timings.append(time.perf_counter() - started)
    paired_deltas = [
        s - d for s, d in zip(serviced_timings, direct_timings)
    ]
    return (
        statistics.median(direct_timings),
        statistics.median(paired_deltas),
        direct,
        serviced,
    )


def test_service_coalescing_and_singleton_overhead(benchmark):
    num_qubits = scale(12, 16)
    solves = scale(30, 40)
    config = SolverConfig(
        grid_resolution=scale(12, 12), maxiter=scale(25, 30), shots=1024
    )
    backend = SerialBackend()
    problem = _problem(num_qubits)

    # Warm the interpreter/JIT-ish costs once so no mode pays them.
    reference = _solve_direct(problem, config, backend)

    # --- gate 1: single-request frontend overhead ---------------------
    direct_s, delta_s, direct, serviced = asyncio.run(
        _interleaved_singles(problem, config, backend, solves)
    )
    serviced_s = direct_s + delta_s
    overhead = delta_s / direct_s
    speedup = direct_s / serviced_s

    # --- gate 2: 64-duplicate fan-in burst ----------------------------
    dispatches: list = []
    started = time.perf_counter()
    results, stats = asyncio.run(_burst(problem, config, backend, dispatches))
    burst_s = time.perf_counter() - started
    coalescing_ratio = DUPLICATES / max(1, len(dispatches))

    rows = [
        {
            "mode": "direct",
            "solves": solves,
            "median_solve_ms": direct_s * 1000.0,
        },
        {
            "mode": "serviced",
            "solves": solves,
            "median_solve_ms": serviced_s * 1000.0,
        },
        {
            "mode": f"burst x{DUPLICATES}",
            "solves": len(dispatches),
            "median_solve_ms": burst_s * 1000.0,
        },
    ]
    # Anchor the pytest-benchmark record to one serviced solve.
    benchmark.pedantic(
        lambda: asyncio.run(
            _interleaved_singles(problem, config, backend, 1)
        ),
        rounds=3,
        iterations=1,
    )
    print()
    print(render_table(rows, title="Solve-service frontend wall-clock"))
    emit_bench_json(
        "service",
        {
            "num_qubits": num_qubits,
            "solves": solves,
            "duplicates": DUPLICATES,
            "training_runs": len(dispatches),
            "coalescing_ratio": coalescing_ratio,
            "single_request_speedup": speedup,
            "overhead_fraction": overhead,
            "direct_median_solve_seconds": direct_s,
            "serviced_median_solve_seconds": serviced_s,
            "burst_wall_seconds": burst_s,
        },
    )
    print(
        f"singleton overhead: {overhead * 100.0:+.2f}% "
        f"(speedup field: {speedup:.4f}x); burst: {DUPLICATES} requests "
        f"-> {len(dispatches)} training run(s)"
    )

    # The burst cost at most MAX_DISPATCHES training runs...
    assert len(dispatches) <= MAX_DISPATCHES, (
        f"{len(dispatches)} training runs for {DUPLICATES} duplicates "
        f"(expected <= {MAX_DISPATCHES})"
    )
    assert stats["dispatches"] == len(dispatches)
    assert stats["coalesced"] == DUPLICATES - stats["admitted"]
    # ...and every fanned-out response is bit-identical to a direct solve.
    reference_signature = _signature(reference)
    assert all(r.status == "ok" for r in results)
    assert all(
        _signature(r.value) == reference_signature for r in results
    )
    # The frontend never changes the answer on the singleton path either.
    assert _signature(direct) == reference_signature
    assert _signature(serviced) == reference_signature
    # The acceptance bar: the frontend costs <= 5% per lone request.
    assert overhead <= MAX_OVERHEAD, (
        f"service frontend overhead {overhead * 100.0:.2f}% > "
        f"{MAX_OVERHEAD * 100.0:.0f}%"
    )
