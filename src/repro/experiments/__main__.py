"""Regenerate every figure's data from the command line.

    python -m repro.experiments            # quick scale, print tables
    python -m repro.experiments --csv out/ # also dump one CSV per figure
    REPRO_FULL=1 python -m repro.experiments  # paper-scale sweeps

Runs every ``figure_NN`` builder in order and renders the tables that the
paper plots.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.backend import BACKEND_REGISTRY, ProcessPoolBackend, set_default_backend
from repro.cache import (
    cache_from_dir,
    get_default_cache,
    set_default_cache,
    summarize_stats,
)
from repro.experiments import figures, render_table, rows_to_csv
from repro.experiments.tables import table3_comparison
from repro.planning import (
    ExecutionBudget,
    PlanningDefaults,
    get_default_planning,
    set_default_planning,
)

#: (name, callable, quick kwargs, full kwargs)
_FIGURES = [
    ("fig01_powerlaw", figures.figure_01_powerlaw,
     {"num_airports": 400}, {"num_airports": 1300}),
    ("fig03_swap_blowup", figures.figure_03_swap_blowup,
     {"sizes": (4, 8, 12, 16, 20)}, {"sizes": (10, 20, 40, 60, 80, 100)}),
    ("fig07_cnot_depth", figures.figure_07_cnot_depth,
     {"sizes": (8, 12, 16), "trials": 2},
     {"sizes": (4, 8, 12, 16, 20, 24), "trials": 5}),
    ("fig08_arg_powerlaw", figures.figure_08_arg_powerlaw,
     {"sizes": (8, 12, 16), "trials": 2},
     {"sizes": (4, 8, 12, 16, 20, 24), "trials": 5}),
    ("fig09_tradeoff", figures.figure_09_tradeoff,
     {"num_qubits": 12, "max_frozen": 4, "attachments": (1,)},
     {"num_qubits": 20, "max_frozen": 7, "attachments": (1, 2, 3)}),
    ("fig10_arg_dense", figures.figure_10_arg_dense,
     {"sizes": (8, 12), "trials": 2},
     {"sizes": (4, 8, 12, 16, 20, 24), "trials": 4}),
    ("fig11_arg_regular_sk", figures.figure_11_arg_regular_sk,
     {"regular_sizes": (8, 12), "sk_sizes": (6, 8), "trials": 2},
     {"regular_sizes": (4, 8, 12, 16, 20, 24), "sk_sizes": (4, 6, 8, 10, 12),
      "trials": 4}),
    ("fig12_landscape", figures.figure_12_landscape,
     {"num_qubits": 12, "resolution": 16}, {"num_qubits": 20, "resolution": 50}),
    ("fig13_machines", figures.figure_13_machines,
     {"sizes": (8, 12), "trials": 1}, {"sizes": (8, 12, 16, 20), "trials": 3}),
    ("fig14_cnot_reduction", figures.figure_14_cnot_reduction,
     {"num_qubits": 120, "max_frozen": 6}, {"num_qubits": 500, "max_frozen": 10}),
    ("fig15_relative_cx_depth", figures.figure_15_relative_cx_depth,
     {"num_qubits": 100, "max_frozen": 6, "attachments": (1, 2)},
     {"num_qubits": 500, "max_frozen": 10, "attachments": (1, 2, 3)}),
    ("fig16_eps", figures.figure_16_eps,
     {"num_qubits": 100, "max_frozen": 6, "attachments": (1, 2)},
     {"num_qubits": 500, "max_frozen": 10, "attachments": (1, 2, 3)}),
    ("fig17_compile_time", figures.figure_17_compile_time,
     {"num_qubits": 100, "max_frozen": 6}, {"num_qubits": 500, "max_frozen": 10}),
    ("fig18_runtime", figures.figure_18_runtime, {}, {}),
    ("table3_cutqc", table3_comparison, {}, {}),
]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the data behind every paper figure.",
    )
    parser.add_argument(
        "--csv", metavar="DIR", default=None,
        help="also write one CSV per figure into DIR",
    )
    parser.add_argument(
        "--only", metavar="NAME", default=None,
        help="run a single figure by name prefix (e.g. fig08)",
    )
    parser.add_argument(
        "--backend", choices=sorted(BACKEND_REGISTRY), default=None,
        help="execution backend for every solve in the run "
        "(default: serial)",
    )
    parser.add_argument(
        "--workers", type=int, metavar="N", default=None,
        help="worker-process count for --backend process",
    )
    parser.add_argument(
        "--budget", type=int, metavar="K", default=None,
        help="cap every solve at K executed circuits; fan-out cells beyond "
        "the top-K are covered by the classical fallback",
    )
    parser.add_argument(
        "--plan", action="store_true",
        help="let the FreezePlanner choose m per instance (adaptive "
        "freezing) instead of each figure's fixed num_frozen",
    )
    parser.add_argument(
        "--warm-start", action="store_true",
        help="seed sibling sub-problem optimizers from one trained "
        "representative per solve",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help="enable the content-addressed solve cache for every solve in "
        "the run (memory-only unless --cache-dir is given); results are "
        "bit-identical to an uncached run with the same seeds",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persist cache artifacts (transpiled templates, trained "
        "parameters, classical sub-solutions) under DIR; implies --cache",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="force caching off for the run (overrides any session "
        "default; conflicts with --cache/--cache-dir)",
    )
    args = parser.parse_args(argv)
    if args.workers is not None and args.backend != "process":
        parser.error("--workers requires --backend process")
    if args.budget is not None and args.budget < 1:
        parser.error("--budget must be >= 1")
    if args.backend == "process" and args.workers is not None:
        set_default_backend(ProcessPoolBackend(max_workers=args.workers))
    elif args.backend is not None:
        set_default_backend(args.backend)
    planning_flags = args.budget is not None or args.plan or args.warm_start
    previous_planning = get_default_planning()
    if planning_flags:
        set_default_planning(
            PlanningDefaults(
                budget=(
                    ExecutionBudget(max_circuits=args.budget)
                    if args.budget is not None
                    else None
                ),
                warm_start=args.warm_start,
                adaptive=args.plan,
            )
        )
    if args.no_cache and (args.cache or args.cache_dir):
        parser.error("--no-cache conflicts with --cache/--cache-dir")
    cache_flags = args.cache or args.cache_dir is not None or args.no_cache
    previous_cache = get_default_cache()
    if args.no_cache:
        set_default_cache(None)
    elif args.cache or args.cache_dir is not None:
        set_default_cache(cache_from_dir(args.cache_dir))
    full = os.environ.get("REPRO_FULL", "0") == "1"
    if args.csv:
        os.makedirs(args.csv, exist_ok=True)
    try:
        for name, builder, quick_kwargs, full_kwargs in _FIGURES:
            if args.only and not name.startswith(args.only):
                continue
            kwargs = full_kwargs if full else quick_kwargs
            started = time.perf_counter()
            rows = builder(**kwargs)
            elapsed = time.perf_counter() - started
            print(render_table(rows, title=f"{name}  ({elapsed:.1f}s)"))
            if args.csv:
                rows_to_csv(rows, os.path.join(args.csv, f"{name}.csv"))
        active_cache = get_default_cache()
        if active_cache is not None:
            print(summarize_stats(active_cache.stats_snapshot()))
    finally:
        # The defaults are process-global; restore whatever an embedding
        # caller (test, notebook) had installed before this run.
        if planning_flags:
            set_default_planning(previous_planning)
        if cache_flags:
            set_default_cache(previous_cache)
    return 0


if __name__ == "__main__":
    sys.exit(main())
