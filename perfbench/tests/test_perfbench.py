"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q

Each workload runs through the real command line with ``--params``
shrinking it, so every run is a fresh process like the benchmark's own.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import Span, Tracer, covered_length, self_times

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "sweep_p1": {"nodes": 8, "num_frozen": 2, "circuits_per_solve": 4,
                 "warmup_nodes": 8, "entries": 2, "trace_ops": 2},
    "sweep_p2": {"nodes": 8, "num_frozen": 2, "circuits_per_solve": 4,
                 "warmup_nodes": 6, "entries": 2, "trace_ops": 2},
    "recursive_1000": {"nodes": 60, "max_leaf_qubits": 8, "max_circuits": 6,
                       "warmup_nodes": 30, "entries": 2, "trace_ops": 2},
    "service_zipf": {"pool_size": 4, "min_nodes": 6, "max_nodes": 8,
                     "rate_rps": 12.0, "warmup_nodes": 6},
}
SECONDS = "0.5"

# Counts that repeat exactly for a seed. Closed loops run a fixed number
# of solves, so all their counts do. Under the open loop, whether a repeat
# request is coalesced or answered from cache depends on arrival timing,
# so the service's sampling, dispatch and cache-hit counts do not; the
# work that happens once per distinct request or instance does.
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
SERVICE_EXACT = ["cache.canonical_ising_key.calls", "qaoa.objective_evals",
                 "qaoa.gradient_evals", "ising.energy_landscape.calls"]


def run_cli(workload, trace, cwd=ROOT, seed=3):
    command = [sys.executable, str(PERFBENCH / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", SECONDS, "--trace", str(trace),
               "--params", json.dumps(TINY[workload])]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(completed):
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def assert_declared(result, stdout, section):
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == declared
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in stdout.splitlines()), name


@pytest.mark.parametrize("workload", sorted(TINY))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    completed = run_cli(workload, trace=0)
    result = result_of(completed)
    assert_declared(result, completed.stdout, "end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert "host.calib_s" in completed.stdout


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_prints_every_layer_metric_and_counts_repeat(workload):
    first, second = run_cli(workload, trace=1), run_cli(workload, trace=1)
    results = [result_of(first), result_of(second)]
    assert_declared(results[0], first.stdout, "per_layer")
    exact = SERVICE_EXACT if workload == "service_zipf" else COUNTS
    for name in exact:
        values = [r["metrics"][name]["value"] for r in results]
        assert values[0] == values[1], name
    assert results[0]["metrics"]["backend.jobs"]["value"] > 0


def tiny_run(name):
    import workloads

    workload = workloads.make(name, 3, TINY[name])
    workload.setup()
    record = workload.run(float(SECONDS), max_ops=1)
    return workload, record, workload.references(record)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_checks_trip_on_tampered_best_spins(workload):
    workload, record, refs = tiny_run(workload)
    assert workload.check(record, refs) == []
    op = next(op for op in record.ops if op.ok)
    flips = ([s if j != i else -s for j, s in enumerate(op.best_spins)]
             for i in range(len(op.best_spins)))
    op.best_spins = tuple(next(
        spins for spins in flips
        if op.instance.evaluate(spins) != op.best_value
    ))
    errors = workload.check(record, refs)
    assert any("best_value != H(best_spins)" in e for e in errors), errors


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span("root", 0.0, 10.0, -1, "op0"),
        Span("a", 1.0, 4.0, 0, "op0"),
        Span("b", 3.0, 6.0, 0, "op0"),  # overlaps a (another thread)
        Span("a.child", 2.0, 3.0, 1, "op0"),
        Span("late", 12.0, 14.0, -1, "op1"),
    ]
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0, 2.0]
    tracer = Tracer()
    tracer.spans = spans
    assert tracer.self_time("root") == 5.0
    assert tracer.inclusive("a") == 3.0 and tracer.calls("a") == 1
    assert tracer.uncovered(0.0, 20.0) == 8.0
    assert covered_length([(5.0, 25.0)], 0.0, 20.0) == 15.0


def test_bare_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_p1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert not completed.stdout.strip()
