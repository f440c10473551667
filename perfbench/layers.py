"""Per-layer metrics of a traced run, from spans, counters and results.

``.s`` is inclusive seconds summed over calls, ``.self_s`` the same minus
the time child spans cover, ``.calls`` an exact call count. Layers are
named after the ``src/repro/`` modules they time; ``loadgen`` is the
benchmark's own request generator and ``trace`` the tracer itself.
"""

from __future__ import annotations

import statistics

from spans import Tracer
from workloads import percentile


def _hit_ratio(stats: dict, kind: str) -> float:
    bucket = stats.get(kind, {})
    hits = bucket.get("memory_hits", 0) + bucket.get("disk_hits", 0)
    lookups = hits + bucket.get("misses", 0)
    return hits / lookups if lookups else 0.0


def _merged_cache_stats(record) -> dict:
    """Cache counter deltas of the timed window, summed over every cache."""
    merged: dict = {}
    deltas = record.extra.get("cache_stats") or [
        op.info.get("cache_stats") for op in record.ops
    ]
    for delta in deltas:
        for kind, bucket in (delta or {}).items():
            into = merged.setdefault(kind, {})
            for event, value in bucket.items():
                into[event] = into.get(event, 0) + value
    return merged


def _service_timings(events: list) -> tuple[list, list]:
    """Queue waits (admitted -> started) and dispatch walls (started ->
    the leader's finish), from the public event stream."""
    admitted, started, finished = {}, {}, {}
    for event in events:
        kind = type(event).__name__
        if kind == "RequestAdmitted":
            admitted[event.request_id] = event.timestamp
        elif kind == "RequestStarted":
            started[event.request_id] = event.timestamp
        elif kind == "RequestFinished":
            finished[event.request_id] = event.timestamp
    waits = [started[r] - admitted[r] for r in started if r in admitted]
    dispatches = [finished[r] - started[r] for r in started if r in finished]
    return waits, dispatches


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, record, workload) -> dict:
    s, calls = tracer.inclusive, tracer.calls
    counts = tracer.counts
    optimizations = tracer.results.get("qaoa.optimize_qaoa", [])
    job_results = [job for batch in tracer.results.get("backend.run", [])
                   for job in batch]
    metrics = {
        "sim.qaoa_value_and_grad.s": s("sim.qaoa_value_and_grad"),
        "sim.qaoa_value_and_grad.calls": calls("sim.qaoa_value_and_grad"),
        "sim.amplitudes_touched": counts.get("sim.amplitudes_touched", 0),
        "sim.qaoa_probabilities.s": s("sim.qaoa_probabilities"),
        "sim.qaoa_probabilities.calls": calls("sim.qaoa_probabilities"),
        "sim.noisy_counts.s": s("sim.noisy_counts"),
        "qaoa.optimize_qaoa.s": s("qaoa.optimize_qaoa"),
        "qaoa.optimize_qaoa.self_s": tracer.self_time("qaoa.optimize_qaoa"),
        "qaoa.objective_evals": sum(o.num_evaluations for o in optimizations),
        "qaoa.gradient_evals": sum(
            o.num_gradient_evaluations for o in optimizations
        ),
        "backend.run.s": s("backend.run"),
        "backend.train_job.s": s("backend.train_job"),
        "backend.finish.s": s("backend.finish"),
        "backend.overhead_s": s("backend.run") - s("backend.train_job")
        - s("backend.finish"),
        "backend.jobs": len(job_results),
        "backend.retries": sum(max(0, job.attempts - 1) for job in job_results),
        "backend.failed_jobs": sum(1 for job in job_results if job.failed),
        "core.prepare_jobs.s": s("core.prepare_jobs"),
        "core.finalize.s": s("core.finalize"),
        "transpile.transpile.s": s("transpile.transpile"),
        "transpile.transpile.calls": calls("transpile.transpile"),
        "ising.anneal_many.s": s("ising.anneal_many"),
        "ising.anneal_many.calls": calls("ising.anneal_many"),
        "ising.anneal_many.instances": counts.get(
            "ising.anneal_many.instances", 0
        ),
        "ising.energy_landscape.calls": counts.get(
            "ising.energy_landscape.calls", 0
        ),
        "planning.rank_assignments.s": s("planning.rank_assignments"),
        "recursive.plan_tree.s": s("recursive.plan_tree"),
        "recursive.solve_recursive.self_s": tracer.self_time(
            "recursive.solve_recursive"
        ),
        "cache.canonical_ising_key.s": s("cache.canonical_ising_key"),
        "cache.canonical_ising_key.calls": calls("cache.canonical_ising_key"),
        "service.submit.s": s("service.submit"),
    }
    leaves = sum(op.info.get("num_leaves", 0) for op in record.ops)
    deduplicated = sum(op.info.get("num_deduplicated_leaves", 0)
                       for op in record.ops)
    metrics["recursive.dedup_ratio"] = deduplicated / leaves if leaves else 0.0

    cache_stats = _merged_cache_stats(record)
    metrics["cache.params.hit_ratio"] = _hit_ratio(cache_stats, "params")
    metrics["cache.transpiled.hit_ratio"] = _hit_ratio(cache_stats,
                                                        "transpiled")

    extra = record.extra
    waits, dispatch_walls = _service_timings(extra.get("events", []))
    stats = extra.get("stats", {})
    dispatches = stats.get("dispatches", 0)
    metrics.update({
        "loadgen.lag_p95_s": (percentile(extra["lags"], 95)
                              if extra.get("lags") else 0.0),
        "service.queue_wait_s_p50": _median(waits),
        "service.dispatch_s_p50": _median(dispatch_walls),
        "service.dispatches": dispatches,
        "service.coalescing_ratio": (
            (stats.get("admitted", 0) + stats.get("coalesced", 0)) / dispatches
            if dispatches else 0.0
        ),
        "service.shed": stats.get("shed", 0),
        "trace.uncovered_frac": (
            tracer.uncovered(record.started, record.ended)
            / (record.ended - record.started)
        ),
    })
    return metrics
