"""The repository's end-to-end benchmark, with a traced per-layer mode.

    python3 perfbench/run.py --workload sweep_p1 --seed 1 --seconds 20 --trace 0

Run from the repository root (the program is imported from ``src/``). The
untraced run (``--trace 0``) measures the workload for ``--seconds`` and
prints every end-to-end metric; the traced run (``--trace 1``) wraps the
public calls of each layer (see ``spans.py``), runs a fixed number of
operations so every count repeats exactly for a seed, and prints the
per-layer metrics. Both check the program's outputs and exit non-zero when
a check fails. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Workloads and their parameters are in ``workloads.json``; metric names,
units and bounds are in ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import os
import time


def _process_age() -> float:
    """Seconds since this process started, from Linux ``/proc`` (10 ms)."""
    with open("/proc/self/stat") as stat:
        # Field 22 (starttime, in clock ticks after boot); the command name
        # in field 2 may hold spaces, so count from its closing paren.
        start_ticks = int(stat.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as uptime:
        now = float(uptime.read().split()[0])
    return now - start_ticks / os.sysconf("SC_CLK_TCK")


# Process start -> this line, plus a fine clock from here on.
_AGE_AT_TOP = _process_age()
_TOP = time.perf_counter()

# One BLAS thread: with OpenBLAS's default pool, the service's two solve
# threads each spin a BLAS pool on the same two cores, which more than
# doubled its CPU time and made its latency tail erratic. Must be set
# before numpy is first imported.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DETAIL_PREFIX = "perfbench-detail "
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 150


def setup_elapsed() -> float:
    return _AGE_AT_TOP + (time.perf_counter() - _TOP)


def host_calibration(reps: int = 7) -> float:
    """Median seconds of a fixed GEMM plus one elementwise pass."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 512))
    b = rng.standard_normal((512, 512))
    x = rng.standard_normal(1 << 21)
    timings = []
    for _ in range(reps):
        began = time.perf_counter()
        product = a @ b
        y = np.exp(x * 0.5)
        timings.append(time.perf_counter() - began)
    del product, y
    return statistics.median(timings)


def _child(args, *extra: str) -> list[str]:
    """Run this script again for the same workload and seed; stdout lines."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), *extra]
    if args.params is not None:
        command += ["--params", args.params]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=PROBE_TIMEOUT_S)
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"child run {' '.join(extra)} failed with exit "
                           f"code {completed.returncode}")
    return completed.stdout.splitlines()


def setup_probe_seconds(args) -> list[float]:
    """Set-up time of fresh processes doing exactly this run's set-up."""
    return [json.loads(_child(args, "--setup-probe")[-1])["setup_s"]
            for _ in range(SETUP_PROBES)]


def _emit(correct: bool, record, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(record.attempted),
        "failed": int(record.failed),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def _declared_units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _measure(workload, args, tracer=None):
    """Timed run, reference values and checks (references after timing)."""
    record = workload.run(args.seconds, max_ops=args.ops, tracer=tracer)
    refs = workload.references(record)
    errors = workload.check(record, refs)
    if not record.ops:
        errors.append("no operation completed")
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    return record, refs, errors


def untraced(args, workload) -> int:
    workload.setup()
    setup_s = setup_elapsed()
    record, refs, errors = _measure(workload, args)
    if args.detail:
        print(DETAIL_PREFIX + json.dumps({
            "signatures": {str(op.index): op.signature for op in record.ops},
            "walls": {str(op.index): op.wall for op in record.ops},
            "cpu_s": record.cpu_s,
        }))
        return 1 if errors else 0
    metrics = {"setup_s": statistics.median(
        [setup_s, *setup_probe_seconds(args)]
    )}
    metrics.update(workload.end_to_end(record, refs))
    metrics["peak_rss_mb"] = record.peak_rss_mb
    print(f"  samples: {len(record.ops)} operations over "
          f"{len({op.info.get('key', op.index) for op in record.ops})} "
          "distinct inputs")
    print(f"  {'host.calib_s':<40} {host_calibration():>16.6g} s "
          "(host speed; not part of any metric)")
    units = _declared_units("end_to_end")
    _emit(not errors, record, {name: metrics[name] for name in units}, units)
    return 1 if errors else 0


def _reference(args, ops) -> dict:
    """Signatures, walls and CPU time of an untraced child doing the same
    operations as the traced run."""
    extra = ["--trace", "0", "--detail"]
    if ops is not None:
        extra += ["--ops", str(ops)]
    return json.loads(next(
        line[len(DETAIL_PREFIX):] for line in _child(args, *extra)
        if line.startswith(DETAIL_PREFIX)
    ))


def _cost(detail: dict, indices, open_loop: bool) -> float:
    if open_loop:  # same schedule, same offered work: compare CPU time
        return detail["cpu_s"]
    return sum(detail["walls"][str(index)] for index in indices)


def traced(args, workload) -> int:
    from layers import layer_metrics
    from spans import Tracer, instrument

    ops = args.ops if args.ops is not None else workload.params.get("trace_ops")
    # Untraced references of the same operations, one before and one after
    # the traced pass, so a steady drift in host speed cancels out of the
    # overhead estimate.
    references = [_reference(args, ops)]
    workload.setup()
    args.ops = ops
    tracer = Tracer()
    with instrument(tracer):
        record, refs, errors = _measure(workload, args, tracer)
    references.append(_reference(args, ops))

    # The traced run must reproduce the untraced results bit for bit.
    common = [op for op in record.ops
              if all(str(op.index) in r["signatures"] for r in references)]
    for op in common:
        if any(op.signature != r["signatures"][str(op.index)]
               for r in references):
            errors.append(f"op{op.index}: traced result differs from the "
                          "untraced run")
            print(f"CHECK FAILED: {errors[-1]}", file=sys.stderr)
    open_loop = hasattr(workload, "schedule")
    indices = [op.index for op in common]
    traced_cost = (record.cpu_s if open_loop
                   else sum(op.wall for op in common))
    untraced_cost = statistics.fmean(
        _cost(r, indices, open_loop) for r in references
    )
    metrics = layer_metrics(tracer, record, workload)
    metrics["host.calib_s"] = host_calibration()
    metrics["trace.overhead_frac"] = traced_cost / untraced_cost - 1.0
    units = _declared_units("per_layer")
    _emit(not errors, record, {name: metrics[name] for name in units}, units)
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many closed-loop operations")
    parser.add_argument("--params", default=None, metavar="JSON",
                        help="override workload parameters (small sizes "
                        "for the benchmark's own tests)")
    parser.add_argument("--detail", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no program under {SRC} to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.PARAMS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(workloads.PARAMS)}")
    overrides = json.loads(args.params) if args.params is not None else None
    workload = workloads.make(args.workload, args.seed, overrides)
    if args.setup_probe:
        workload.setup()
        print(json.dumps({"setup_s": setup_elapsed()}))
        return 0
    if args.trace:
        return traced(args, workload)
    return untraced(args, workload)


if __name__ == "__main__":
    sys.exit(main())
