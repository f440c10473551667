"""Experiment harness: workload suites, per-figure data builders, reporting.

Each ``figure_NN`` function in :mod:`repro.experiments.figures` regenerates
the data series behind one figure of the paper; the benchmark files under
``benchmarks/`` are thin wrappers that call them and print the rows. All
builders accept size/seed knobs so CI-scale runs stay fast and
``REPRO_FULL=1`` runs match the paper's scales.
"""

from repro.experiments.reporting import render_table, rows_to_csv
from repro.experiments.workloads import (
    WorkloadInstance,
    ba_suite,
    regular_suite,
    sk_suite,
)

__all__ = [
    "WorkloadInstance",
    "ba_suite",
    "regular_suite",
    "render_table",
    "rows_to_csv",
    "sk_suite",
]
