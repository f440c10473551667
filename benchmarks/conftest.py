"""Shared knobs for the benchmark harness.

Every bench runs at a CI-friendly scale by default and at the paper's scale
with ``REPRO_FULL=1``. Each bench prints the regenerated data table so the
run doubles as the paper-figure reproduction record.

Perf-gating benches additionally emit a machine-readable record via
:func:`emit_bench_json` — one ``BENCH_<name>.json`` per bench under
``bench_artifacts/`` with the measured speedups, wall-clocks, the commit,
and a timestamp — which CI uploads as the perf-smoke artifact. Collected
across commits these files form the repo's perf trajectory.
"""

from __future__ import annotations

import json
import os
import subprocess
import time

import pytest

FULL = os.environ.get("REPRO_FULL", "0") == "1"

#: Where perf benches drop their machine-readable records (repo-root
#: relative; override with REPRO_BENCH_DIR).
ARTIFACT_DIR = os.environ.get(
    "REPRO_BENCH_DIR",
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "bench_artifacts"),
)


def scale(quick, full):
    """Pick the quick or full-scale value of a knob."""
    return full if FULL else quick


def _current_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def emit_bench_json(name: str, payload: dict) -> str:
    """Write one bench's machine-readable record and return its path.

    Args:
        name: Bench identifier; the file becomes ``BENCH_<name>.json``.
        payload: Bench-specific fields — by convention at least a
            ``speedup`` (or a dict of them) and the wall-clocks it came
            from. ``commit``, ``timestamp_utc``, ``full_scale`` and the
            bench name are stamped automatically.
    """
    record = {
        "bench": name,
        "commit": _current_commit(),
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "full_scale": FULL,
        **payload,
    }
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    path = os.path.join(ARTIFACT_DIR, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"perf record written: {path}")
    return path


@pytest.fixture(scope="session")
def repro_scale():
    return {"full": FULL}
