"""Data-series builders for every figure of the paper's evaluation.

Each ``figure_NN`` function reproduces the quantities plotted in the
corresponding figure and returns plain dict rows. Sizes and seed counts
are parameters so quick runs and full paper-scale runs share one code path.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.eps import OPTIMISTIC_ERROR_MODEL, expected_probability_of_success
from repro.analysis.metrics import geometric_mean
from repro.analysis.runtime import (
    EXECUTION_MODELS,
    WorkloadTiming,
    overall_runtime_hours,
)
from repro.baselines.classical import c_min_many
from repro.baselines.qaoa_baseline import BaselineQAOA
from repro.cache import get_default_cache
from repro.core.batch import solve_many
from repro.core.costs import quantum_cost
from repro.core.hotspots import select_hotspots
from repro.core.partition import executed_subproblems, partition_problem
from repro.core.solver import FrozenQubitsSolver, SolverConfig
from repro.devices.ibm import get_backend, grid_device, list_backends
from repro.graphs.generators import airport_network, barabasi_albert_graph, sk_graph
from repro.graphs.powerlaw import degree_stats, fit_powerlaw_exponent, hotspot_ratio
from repro.ising.hamiltonian import IsingHamiltonian
from repro.qaoa.circuits import build_qaoa_template
from repro.qaoa.executor import batch_objective, make_context
from repro.qaoa.objective import approximation_ratio_gap
from repro.qaoa.optimizer import landscape_scan
from repro.transpile.compiler import TranspileOptions, edit_template, transpile
from repro.experiments.workloads import WorkloadInstance, ba_suite, regular_suite, sk_suite
from repro.utils.rng import spawn_seeds

if TYPE_CHECKING:
    from repro.backend.base import ExecutionBackend


# ---------------------------------------------------------------------------
# Fig. 1(b): power-law degree distribution of an airport-style network
# ---------------------------------------------------------------------------
def figure_01_powerlaw(num_airports: int = 1300, seed: int = 7) -> list[dict]:
    """Hotspot statistics of a synthetic airport network (paper Fig. 1(b))."""
    graph = airport_network(num_airports=num_airports, seed=seed)
    stats = degree_stats(graph)
    return [
        {
            "num_airports": graph.num_nodes,
            "num_routes": graph.num_edges,
            "mean_degree": stats.mean,
            "max_degree": stats.maximum,
            "top10_over_mean": hotspot_ratio(graph, top_k=10),
            "powerlaw_exponent": fit_powerlaw_exponent(graph),
        }
    ]


# ---------------------------------------------------------------------------
# Fig. 3: pre/post-compilation CX blow-up of fully-connected QAOA on a grid
# ---------------------------------------------------------------------------
def figure_03_swap_blowup(
    sizes: Sequence[int] = (4, 8, 12, 16, 20),
    seed: int = 11,
) -> list[dict]:
    """CX counts of SK-model QAOA before and after compiling to a grid."""
    rows = []
    for index, size in enumerate(sizes):
        graph = sk_graph(size)
        hamiltonian = IsingHamiltonian.from_graph(
            graph, weights="random_pm1", seed=seed + index
        )
        side = max(2, math.ceil(math.sqrt(size)))
        device = grid_device(side, side)
        template = build_qaoa_template(hamiltonian)
        compiled = transpile(template.circuit, device)
        rows.append(
            {
                "num_qubits": size,
                "pre_cx": compiled.pre_cx_count,
                "post_cx": compiled.cx_count,
                "blowup": compiled.cx_count / max(compiled.pre_cx_count, 1),
                "swaps": compiled.swap_count,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 7: CX count and depth, baseline vs FQ(m=1,2)
# ---------------------------------------------------------------------------
def _subcircuit_metrics(
    hamiltonian: IsingHamiltonian,
    device,
    num_frozen: int,
    options: "TranspileOptions | None" = None,
) -> tuple[int, int]:
    """(cx_count, depth) of the executed FrozenQubits sub-circuit."""
    if num_frozen == 0:
        target = hamiltonian
    else:
        hotspots = select_hotspots(hamiltonian, num_frozen)
        parts = partition_problem(hamiltonian, hotspots)
        target = executed_subproblems(parts)[0].hamiltonian
    template = build_qaoa_template(target)
    compiled = transpile(template.circuit, device, options)
    return compiled.cx_count, compiled.depth


def figure_07_cnot_depth(
    sizes: Sequence[int] = (4, 8, 12, 16, 20, 24),
    trials: int = 3,
    backend: str = "montreal",
    seed: int = 23,
) -> list[dict]:
    """Post-compilation CX and depth for baseline and FQ(m=1,2) on BA(d=1)."""
    device = get_backend(backend)
    suite = ba_suite(sizes=sizes, attachment=1, trials=trials, seed=seed)
    rows = []
    for size in sizes:
        group = [w for w in suite if w.num_qubits == size]
        metrics = {m: ([], []) for m in (0, 1, 2)}
        for workload in group:
            for m in (0, 1, 2):
                if m >= workload.num_qubits:
                    continue
                cx, depth = _subcircuit_metrics(workload.hamiltonian, device, m)
                metrics[m][0].append(cx)
                metrics[m][1].append(depth)
        rows.append(
            {
                "num_qubits": size,
                "baseline_cx": float(np.mean(metrics[0][0])),
                "fq1_cx": float(np.mean(metrics[1][0])),
                "fq2_cx": float(np.mean(metrics[2][0])),
                "baseline_depth": float(np.mean(metrics[0][1])),
                "fq1_depth": float(np.mean(metrics[1][1])),
                "fq2_depth": float(np.mean(metrics[2][1])),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figs. 8, 10, 11: Approximation Ratio Gap sweeps
# ---------------------------------------------------------------------------
def _arg_of_workload(
    workload: WorkloadInstance,
    device,
    num_frozen: int,
    config: SolverConfig,
    seed: int,
    execution_backend: "ExecutionBackend | str | None" = None,
) -> "float | None":
    """ARG of one workload under baseline (m=0) or FrozenQubits (m>=1)."""
    if num_frozen >= workload.num_qubits:
        return None
    if num_frozen == 0:
        result = BaselineQAOA(config=config, seed=seed).solve(
            workload.hamiltonian, device=device, backend=execution_backend
        )
        ev_ideal, ev_noisy = result.ev_ideal, result.ev_noisy
    else:
        solver = FrozenQubitsSolver(num_frozen=num_frozen, config=config, seed=seed)
        solved = solver.solve(
            workload.hamiltonian, device=device, backend=execution_backend
        )
        ev_ideal, ev_noisy = solved.ev_ideal, solved.ev_noisy
    return _arg_from_result(ev_ideal, ev_noisy)


def _arg_from_result(ev_ideal: float, ev_noisy: float) -> "float | None":
    """ARG of a solved instance, or ``None`` when the ratio is undefined."""
    if abs(ev_ideal) < 1e-9:
        return None
    return approximation_ratio_gap(ev_ideal, ev_noisy)


def arg_sweep(
    suite: list[WorkloadInstance],
    backend: str = "montreal",
    frozen_values: Sequence[int] = (0, 1, 2),
    config: "SolverConfig | None" = None,
    seed: int = 5,
    execution_backend: "ExecutionBackend | str | None" = None,
) -> list[dict]:
    """Mean ARG per size for each m in ``frozen_values`` over a suite.

    The per-(size, m) instance group is submitted through
    :func:`repro.core.solve_many` in one backend call, so a parallel
    ``execution_backend`` sees the whole fan-out at once.
    """
    device = get_backend(backend)
    cfg = config or SolverConfig(shots=2048, grid_resolution=10, maxiter=40)
    sizes = sorted({w.num_qubits for w in suite})
    seeds = spawn_seeds(seed, len(suite) * len(frozen_values))
    rows = []
    cursor = 0
    for size in sizes:
        group = [w for w in suite if w.num_qubits == size]
        row: dict = {"num_qubits": size}
        for m in frozen_values:
            values: list[float] = []
            usable = [w for w in group if m < w.num_qubits]
            group_seeds = []
            for workload in group:
                if m < workload.num_qubits:
                    group_seeds.append(seeds[cursor])
                cursor = (cursor + 1) % len(seeds)
            if m == 0 and usable:
                # One submission for the whole baseline group too, so a
                # parallel backend sees all full-size jobs at once.
                from repro.backend import JobSpec, resolve_backend

                specs = [
                    JobSpec(
                        job_id=f"baseline/{workload.name}",
                        hamiltonian=workload.hamiltonian,
                        config=cfg,
                        seed=workload_seed,
                        device=device,
                    )
                    for workload, workload_seed in zip(usable, group_seeds)
                ]
                for job in resolve_backend(execution_backend).run(specs):
                    arg = _arg_from_result(job.run.ev_ideal, job.run.ev_noisy)
                    if arg is not None:
                        values.append(arg)
            elif usable:
                solved = solve_many(
                    usable,
                    num_frozen=m,
                    device=device,
                    backend=execution_backend,
                    config=cfg,
                    seeds=group_seeds,
                )
                for result in solved:
                    arg = _arg_from_result(result.ev_ideal, result.ev_noisy)
                    if arg is not None:
                        values.append(arg)
            label = "baseline_arg" if m == 0 else f"fq{m}_arg"
            row[label] = float(np.mean(values)) if values else float("nan")
        rows.append(row)
    return rows


def figure_08_arg_powerlaw(
    sizes: Sequence[int] = (4, 8, 12, 16, 20, 24),
    trials: int = 3,
    backend: str = "montreal",
    seed: int = 31,
    execution_backend: "ExecutionBackend | str | None" = None,
) -> list[dict]:
    """ARG of BA(d=1) QAOA: baseline vs FQ(m=1,2) (paper Fig. 8)."""
    suite = ba_suite(sizes=sizes, attachment=1, trials=trials, seed=seed)
    return arg_sweep(
        suite, backend=backend, seed=seed, execution_backend=execution_backend
    )


def figure_10_arg_dense(
    sizes: Sequence[int] = (4, 8, 12, 16, 20, 24),
    trials: int = 2,
    backend: str = "montreal",
    seed: int = 37,
    execution_backend: "ExecutionBackend | str | None" = None,
) -> list[dict]:
    """ARG on denser BA graphs, d_BA = 2 and 3 (paper Fig. 10)."""
    rows = []
    for attachment in (2, 3):
        usable = [s for s in sizes if s > attachment]
        suite = ba_suite(
            sizes=usable, attachment=attachment, trials=trials, seed=seed
        )
        for row in arg_sweep(
            suite,
            backend=backend,
            seed=seed + attachment,
            execution_backend=execution_backend,
        ):
            row["d_ba"] = attachment
            rows.append(row)
    return rows


def figure_11_arg_regular_sk(
    regular_sizes: Sequence[int] = (4, 8, 12, 16, 20, 24),
    sk_sizes: Sequence[int] = (4, 6, 8, 10, 12),
    trials: int = 2,
    backend: str = "montreal",
    seed: int = 41,
    execution_backend: "ExecutionBackend | str | None" = None,
) -> list[dict]:
    """ARG on 3-regular and SK graphs (paper Fig. 11)."""
    rows = []
    for row in arg_sweep(
        regular_suite(sizes=regular_sizes, trials=trials, seed=seed),
        backend=backend,
        seed=seed,
        execution_backend=execution_backend,
    ):
        row["family"] = "3reg"
        rows.append(row)
    for row in arg_sweep(
        sk_suite(sizes=sk_sizes, trials=trials, seed=seed + 1),
        backend=backend,
        seed=seed + 1,
        execution_backend=execution_backend,
    ):
        row["family"] = "sk"
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Fig. 9: fidelity-cost trade-off
# ---------------------------------------------------------------------------
def figure_09_tradeoff(
    num_qubits: int = 16,
    max_frozen: int = 7,
    attachments: Sequence[int] = (1, 2, 3),
    backend: str = "montreal",
    seed: int = 43,
) -> list[dict]:
    """Relative ARG / CX / depth vs quantum cost for m = 0..max (Fig. 9)."""
    device = get_backend(backend)
    cfg = SolverConfig(shots=1024, grid_resolution=8, maxiter=30)
    rows = []
    for attachment in attachments:
        graph = barabasi_albert_graph(num_qubits, attachment, seed=seed + attachment)
        hamiltonian = IsingHamiltonian.from_graph(
            graph, weights="random_pm1", seed=seed
        )
        base_arg = None
        base_cx = base_depth = None
        for m in range(0, max_frozen + 1):
            if m >= num_qubits - 1:
                break
            cx, depth = _subcircuit_metrics(hamiltonian, device, m)
            if m == 0:
                result = BaselineQAOA(config=cfg, seed=seed).solve(
                    hamiltonian, device=device
                )
                arg = result.arg
                base_arg, base_cx, base_depth = arg, cx, depth
            else:
                solver = FrozenQubitsSolver(num_frozen=m, config=cfg, seed=seed)
                solved = solver.solve(hamiltonian, device=device)
                arg = approximation_ratio_gap(solved.ev_ideal, solved.ev_noisy)
            rows.append(
                {
                    "d_ba": attachment,
                    "num_frozen": m,
                    "quantum_cost": 2**m,
                    "relative_arg": arg / base_arg if base_arg else float("nan"),
                    "relative_cx": cx / base_cx if base_cx else float("nan"),
                    "relative_depth": depth / base_depth if base_depth else float("nan"),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Fig. 12: optimizer landscape sharpness
# ---------------------------------------------------------------------------
def figure_12_landscape(
    num_qubits: int = 12,
    resolution: int = 20,
    backend: str = "auckland",
    seed: int = 47,
) -> list[dict]:
    """(gamma, beta) AR landscapes: baseline vs FQ(m=1,2) (paper Fig. 12).

    Reports landscape sharpness (noise flattens the baseline landscape) and
    the best grid AR for each configuration.
    """
    device = get_backend(backend)
    graph = barabasi_albert_graph(num_qubits, 1, seed=seed)
    hamiltonian = IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=seed)
    rows = []
    targets: list[tuple[str, IsingHamiltonian]] = [("baseline", hamiltonian)]
    for m in (1, 2):
        hotspots = select_hotspots(hamiltonian, m)
        parts = partition_problem(hamiltonian, hotspots)
        targets.append((f"fq{m}", executed_subproblems(parts)[0].hamiltonian))
    # One batched submission covers every target's C_min (exact at these
    # sizes; annealed estimates would batch the same way at Sec.-6 scale).
    c_mins = c_min_many(
        [target for __, target in targets], cache=get_default_cache()
    )
    for (label, target), c_min in zip(targets, c_mins):
        context = make_context(target, num_layers=1, device=device)
        # One batched kernel call evaluates the whole resolution**2 grid.
        scan = landscape_scan(
            batch_objective(context, noisy=True), resolution=resolution
        )
        best_gamma, best_beta, best_value = scan.best
        # Landscape contrast in AR units: noise scales the whole landscape
        # toward flat, so the std of AR values measures the paper's "blur"
        # (bigger = sharper gradients = easier training).
        ar_contrast = (
            float(np.std(scan.values / abs(c_min))) if c_min != 0 else float("nan")
        )
        rows.append(
            {
                "which": label,
                "num_qubits": target.num_qubits,
                "fidelity": context.fidelity,
                "ar_contrast": ar_contrast,
                "best_ar": best_value / c_min if c_min != 0 else float("nan"),
                "best_gamma": best_gamma,
                "best_beta": best_beta,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 13: ARG improvement across the eight IBMQ machines
# ---------------------------------------------------------------------------
def figure_13_machines(
    sizes: Sequence[int] = (8, 12, 16),
    trials: int = 2,
    seed: int = 53,
) -> list[dict]:
    """Gmean ARG improvement of FQ(m=1,2) per machine (paper Fig. 13)."""
    cfg = SolverConfig(shots=1024, grid_resolution=8, maxiter=30)
    suite = ba_suite(sizes=sizes, attachment=1, trials=trials, seed=seed)
    rows = []
    all_f1: list[float] = []
    all_f2: list[float] = []
    for backend in list_backends():
        device = get_backend(backend)
        factors1: list[float] = []
        factors2: list[float] = []
        for workload in suite:
            base = _arg_of_workload(workload, device, 0, cfg, seed)
            fq1 = _arg_of_workload(workload, device, 1, cfg, seed)
            fq2 = _arg_of_workload(workload, device, 2, cfg, seed)
            if base and fq1 and fq1 > 0:
                factors1.append(base / fq1)
            if base and fq2 and fq2 > 0:
                factors2.append(base / fq2)
        row = {
            "backend": backend,
            "fq1_improvement": geometric_mean(factors1) if factors1 else float("nan"),
            "fq2_improvement": geometric_mean(factors2) if factors2 else float("nan"),
        }
        all_f1.extend(factors1)
        all_f2.extend(factors2)
        rows.append(row)
    rows.append(
        {
            "backend": "GMEAN",
            "fq1_improvement": geometric_mean(all_f1) if all_f1 else float("nan"),
            "fq2_improvement": geometric_mean(all_f2) if all_f2 else float("nan"),
        }
    )
    return rows


# ---------------------------------------------------------------------------
# Figs. 14-17: practical-scale (Sec. 6) transpiler studies
# ---------------------------------------------------------------------------
def practical_scale_series(
    num_qubits: int = 200,
    max_frozen: int = 10,
    attachment: int = 1,
    grid_side: "int | None" = None,
    seed: int = 59,
) -> list[dict]:
    """Shared Sec.-6 sweep: transpile baseline and FQ sub-circuits, m=1..max.

    Returns one row per m with CX/SWAP/depth/EPS/compile-time data; the
    figure_14/15/16/17 functions slice it.
    """
    if grid_side is None:
        grid_side = max(3, math.ceil(math.sqrt(num_qubits * 1.3)))
    device = grid_device(grid_side, grid_side)
    graph = barabasi_albert_graph(num_qubits, attachment, seed=seed)
    hamiltonian = IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=seed)

    template = build_qaoa_template(hamiltonian)
    baseline = transpile(template.circuit, device)
    baseline_eps_log = expected_probability_of_success(
        baseline.circuit, OPTIMISTIC_ERROR_MODEL, log_space=True
    )
    hotspots = select_hotspots(hamiltonian, max_frozen)
    rows = [
        {
            "num_frozen": 0,
            "d_ba": attachment,
            "num_circuits": 1,
            "pre_cx": baseline.pre_cx_count,
            "cx": baseline.cx_count,
            "swaps": baseline.swap_count,
            "depth": baseline.depth,
            "relative_cx": 1.0,
            "relative_depth": 1.0,
            "edge_reduction_frac": 0.0,
            "swap_reduction_frac": 0.0,
            "total_reduction_frac": 0.0,
            "relative_eps_log10": 0.0,
            "compile_seconds": baseline.compile_seconds,
            "relative_compile_time": 1.0,
            "edit_seconds_one": 0.0,
        }
    ]
    for m in range(1, max_frozen + 1):
        parts = partition_problem(hamiltonian, hotspots[:m])
        executed = executed_subproblems(parts)
        sub = executed[0].hamiltonian
        support = sorted(
            {q for sp in parts for q, h in enumerate(sp.hamiltonian.linear) if h}
        )
        sub_template = build_qaoa_template(sub, linear_support=support)
        compiled = transpile(sub_template.circuit, device)
        eps_log = expected_probability_of_success(
            compiled.circuit, OPTIMISTIC_ERROR_MODEL, log_space=True
        )
        updates = {
            f"lin:{q}": executed[-1].hamiltonian.linear_coefficient(q)
            for q in support
        }
        started = time.perf_counter()
        edit_template(compiled, updates)
        edit_seconds = time.perf_counter() - started
        edge_drop = baseline.pre_cx_count - compiled.pre_cx_count
        swap_drop = 3 * (baseline.swap_count - compiled.swap_count)
        total_drop = baseline.cx_count - compiled.cx_count
        rows.append(
            {
                "num_frozen": m,
                "d_ba": attachment,
                "num_circuits": quantum_cost(m),
                "pre_cx": compiled.pre_cx_count,
                "cx": compiled.cx_count,
                "swaps": compiled.swap_count,
                "depth": compiled.depth,
                "relative_cx": compiled.cx_count / max(baseline.cx_count, 1),
                "relative_depth": compiled.depth / max(baseline.depth, 1),
                "edge_reduction_frac": edge_drop / max(baseline.cx_count, 1),
                "swap_reduction_frac": swap_drop / max(baseline.cx_count, 1),
                "total_reduction_frac": total_drop / max(baseline.cx_count, 1),
                "relative_eps_log10": eps_log - baseline_eps_log,
                "compile_seconds": compiled.compile_seconds,
                "relative_compile_time": compiled.compile_seconds
                / max(baseline.compile_seconds, 1e-12),
                "edit_seconds_one": edit_seconds,
            }
        )
    return rows


def figure_14_cnot_reduction(
    num_qubits: int = 200, max_frozen: int = 10, seed: int = 59
) -> list[dict]:
    """Edge vs SWAP vs total CX reduction, BA d=1 (paper Fig. 14)."""
    rows = practical_scale_series(num_qubits, max_frozen, attachment=1, seed=seed)
    out = []
    for row in rows[1:]:
        swap_share = (
            row["swap_reduction_frac"] / row["total_reduction_frac"]
            if row["total_reduction_frac"]
            else float("nan")
        )
        out.append(
            {
                "num_frozen": row["num_frozen"],
                "edge_reduction_frac": row["edge_reduction_frac"],
                "swap_reduction_frac": row["swap_reduction_frac"],
                "total_reduction_frac": row["total_reduction_frac"],
                "swap_share_of_reduction": swap_share,
            }
        )
    return out


def figure_15_relative_cx_depth(
    num_qubits: int = 200,
    max_frozen: int = 10,
    attachments: Sequence[int] = (1, 2, 3),
    seed: int = 61,
) -> list[dict]:
    """Relative CX count and depth vs m for d_BA = 1, 2, 3 (paper Fig. 15)."""
    rows = []
    for attachment in attachments:
        series = practical_scale_series(
            num_qubits, max_frozen, attachment=attachment, seed=seed
        )
        for row in series[1:]:
            rows.append(
                {
                    "d_ba": attachment,
                    "num_frozen": row["num_frozen"],
                    "relative_cx": row["relative_cx"],
                    "relative_depth": row["relative_depth"],
                }
            )
    return rows


def figure_16_eps(
    num_qubits: int = 200,
    max_frozen: int = 10,
    attachments: Sequence[int] = (1, 2, 3),
    seed: int = 67,
) -> list[dict]:
    """Relative EPS (log10) vs m for d_BA = 1, 2, 3 (paper Fig. 16)."""
    rows = []
    for attachment in attachments:
        series = practical_scale_series(
            num_qubits, max_frozen, attachment=attachment, seed=seed
        )
        for row in series[1:]:
            rows.append(
                {
                    "d_ba": attachment,
                    "num_frozen": row["num_frozen"],
                    "relative_eps_log10": row["relative_eps_log10"],
                    "relative_eps": 10.0 ** min(row["relative_eps_log10"], 300.0),
                }
            )
    return rows


def figure_17_compile_time(
    num_qubits: int = 200, max_frozen: int = 10, seed: int = 71
) -> list[dict]:
    """Relative compile time and template-editing time (paper Fig. 17)."""
    series = practical_scale_series(num_qubits, max_frozen, attachment=1, seed=seed)
    baseline_compile = series[0]["compile_seconds"]
    rows = []
    for row in series[1:]:
        circuits = row["num_circuits"]
        sequential = row["edit_seconds_one"] * circuits
        parallel = row["edit_seconds_one"]
        rows.append(
            {
                "num_frozen": row["num_frozen"],
                "relative_compile_time": row["relative_compile_time"],
                "edit_relative_sequential": sequential / max(baseline_compile, 1e-12),
                "edit_relative_parallel": parallel / max(baseline_compile, 1e-12),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 18: end-to-end runtime under the four execution models
# ---------------------------------------------------------------------------
def figure_18_runtime(timing: "WorkloadTiming | None" = None) -> list[dict]:
    """Overall runtime for baseline and FQ(m=1,2,10) (paper Fig. 18)."""
    t = timing or WorkloadTiming()
    rows = []
    for key, model in EXECUTION_MODELS.items():
        row = {"execution_model": model.name}
        for label, circuits in (
            ("baseline_h", 1),
            ("fq1_h", quantum_cost(1)),
            ("fq2_h", quantum_cost(2)),
            ("fq10_h", quantum_cost(10)),
        ):
            row[label] = overall_runtime_hours(circuits, model, t)
        rows.append(row)
    return rows
