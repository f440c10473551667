"""Vectorized evaluation engine wall-clock gates.

The training hot loop funnels every optimizer step, grid seed, and Fig. 12
landscape point through the expectation evaluator. This bench gates the
batched analytic / fused diagonal engine against the legacy scalar path
(pinned via ``vectorized=False`` / ``SolverConfig(vectorized_evaluation=
False)``) on the two workloads that matter:

* a 50x50 p=1 landscape scan (2,500 points) — one batched kernel call vs
  2,500 Python closed-form evaluations: **>= 5x** required;
* an end-to-end device-mode 16-sibling FrozenQubits sweep (m=4, pruning
  off) — grid seeding, warm-start acceptance and Nelder-Mead refinement
  all flowing through the engine: **>= 2x** required;
* the diagonal-spectrum construction (``energy_landscape``) feeding the
  fused kernels: the O(2^n) bit-doubling recurrence vs the
  |terms| x 2^n sign-matrix pass it replaced — agreement to <= 1e-12
  required, speedup reported.

Both gates also require the engines to *agree*: landscape values to
<= 1e-12, and the sweep's scientific output (expectations to <= 1e-12,
sampled counts / decoded spins exactly — sampling consumes identical RNG
draws either way, and the trained parameters land on the same optimum).

The sweep instance is a BA(m=3) graph: on a BA tree the 16 siblings fall
into one or two landscape classes that train once each, so the sweep
would time sampling rather than the evaluation engine.
"""

import time

import numpy as np

from benchmarks.conftest import emit_bench_json, scale
from repro.core import FrozenQubitsSolver, SolverConfig
from repro.devices import get_backend
from repro.experiments import render_table
from repro.graphs.generators import barabasi_albert_graph
from repro.ising.hamiltonian import IsingHamiltonian
from repro.qaoa import (
    batch_objective,
    evaluate_noisy,
    landscape_scan,
    make_context,
)

EV_TOLERANCE = 1e-12


def _problem(num_qubits):
    graph = barabasi_albert_graph(num_qubits, 3, seed=17)
    return IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=18)


def _scan_seconds(context, resolution, use_batch, reps=1):
    times = []
    for __ in range(reps):
        started = time.perf_counter()
        scan = landscape_scan(
            lambda gammas, betas: evaluate_noisy(context, gammas, betas),
            resolution=resolution,
            evaluate_batch=(
                batch_objective(context, noisy=True) if use_batch else None
            ),
        )
        times.append(time.perf_counter() - started)
    return scan, float(np.median(times))


def _sweep(problem, device, vectorized, reps=1):
    # A finer 16-point seeding grid: the p=1 seeding scan is the hot loop
    # the engine vectorizes, and quality-oriented runs seed finer.
    # The optimizer is held fixed at legacy Nelder-Mead so the two arms
    # differ only in the evaluation engine under test.
    config = SolverConfig(
        grid_resolution=16,
        maxiter=30,
        shots=1024,
        vectorized_evaluation=vectorized,
        analytic_gradients=False,
    )
    solver = FrozenQubitsSolver(
        num_frozen=4, prune_symmetric=False, config=config, seed=13
    )
    times = []
    for __ in range(reps):
        started = time.perf_counter()
        result = solver.solve(problem, device)
        times.append(time.perf_counter() - started)
    return result, float(np.median(times))


def _sweep_signature(result):
    """Everything but the expectations, compared exactly."""
    return (
        tuple(result.frozen_qubits),
        result.best_spins,
        result.best_value,
        result.num_circuits_executed,
        tuple(
            (
                o.subproblem.index,
                o.source,
                o.best_spins,
                tuple(sorted(o.decoded_counts.items()))
                if o.decoded_counts is not None
                else None,
            )
            for o in result.outcomes
        ),
    )


def _sign_matrix_landscape(hamiltonian):
    """The replaced spectrum construction: one sign vector per term."""
    n = hamiltonian.num_qubits
    states = np.arange(2**n)
    spins = 1.0 - 2.0 * ((states[:, None] >> np.arange(n)[None, :]) & 1)
    landscape = np.full(2**n, hamiltonian.offset)
    landscape += spins @ hamiltonian.linear
    for (i, j), coupling in hamiltonian.quadratic.items():
        landscape += coupling * spins[:, i] * spins[:, j]
    return landscape


def _spectrum_seconds(fn, make_arg, reps):
    """Median seconds of ``fn(make_arg())``, argument built off-clock.

    ``energy_landscape`` memoizes per instance, so each rep must run
    against a *fresh* instance to time the construction, not a memo hit.
    """
    times = []
    for __ in range(reps):
        arg = make_arg()
        started = time.perf_counter()
        value = fn(arg)
        times.append(time.perf_counter() - started)
    return value, float(np.median(times))


def test_eval_engine_speedup(benchmark):
    num_qubits = scale(14, 18)
    resolution = 50
    device = get_backend("montreal")
    problem = _problem(num_qubits)

    # --- Gate 1: 50x50 p=1 landscape scan -----------------------------
    vec_context = make_context(problem, num_layers=1, device=device)
    scalar_context = make_context(
        problem, num_layers=1, device=device, vectorized=False
    )
    # Warm both paths once so neither pays first-touch costs.
    _scan_seconds(vec_context, 8, use_batch=True)
    _scan_seconds(scalar_context, 8, use_batch=False)
    reps = scale(3, 5)
    vec_scan, vec_scan_s = _scan_seconds(
        vec_context, resolution, use_batch=True, reps=reps
    )
    scalar_scan, scalar_scan_s = _scan_seconds(
        scalar_context, resolution, use_batch=False, reps=reps
    )
    scan_speedup = scalar_scan_s / vec_scan_s
    scan_error = float(np.max(np.abs(vec_scan.values - scalar_scan.values)))

    # --- Gate 2: end-to-end device-mode 16-sibling sweep --------------
    _sweep(problem, device, vectorized=True)  # warm (spectra, templates)
    vec_result, vec_sweep_s = _sweep(problem, device, vectorized=True, reps=reps)
    scalar_result, scalar_sweep_s = _sweep(
        problem, device, vectorized=False, reps=reps
    )
    sweep_speedup = scalar_sweep_s / vec_sweep_s
    sweep_ev_error = max(
        abs(vec_result.ev_ideal - scalar_result.ev_ideal),
        abs(vec_result.ev_noisy - scalar_result.ev_noisy),
    )

    # --- Gate 3: spectrum recurrence vs sign-matrix construction ------
    def make_dense():
        return IsingHamiltonian.from_graph(
            barabasi_albert_graph(scale(16, 20), 3, seed=19),
            weights="random_pm1",
            seed=20,
        )

    dense = make_dense()
    _spectrum_seconds(lambda h: h.energy_landscape(), make_dense, reps=1)
    recurrence, recurrence_s = _spectrum_seconds(
        lambda h: h.energy_landscape(), make_dense, reps=reps
    )
    reference, sign_matrix_s = _spectrum_seconds(
        _sign_matrix_landscape, make_dense, reps=reps
    )
    spectrum_speedup = sign_matrix_s / recurrence_s
    spectrum_error = float(np.max(np.abs(recurrence - reference)))

    rows = [
        {
            "workload": "50x50 p=1 landscape scan",
            "scalar_ms": scalar_scan_s * 1000.0,
            "vectorized_ms": vec_scan_s * 1000.0,
            "speedup": scan_speedup,
            "max_abs_error": scan_error,
        },
        {
            "workload": "16-sibling device sweep",
            "scalar_ms": scalar_sweep_s * 1000.0,
            "vectorized_ms": vec_sweep_s * 1000.0,
            "speedup": sweep_speedup,
            "max_abs_error": sweep_ev_error,
        },
        {
            "workload": f"2^{dense.num_qubits} spectrum construction",
            "scalar_ms": sign_matrix_s * 1000.0,
            "vectorized_ms": recurrence_s * 1000.0,
            "speedup": spectrum_speedup,
            "max_abs_error": spectrum_error,
        },
    ]
    # Anchor the pytest-benchmark record to one vectorized sweep.
    benchmark.pedantic(
        lambda: _sweep(problem, device, vectorized=True), rounds=3, iterations=1
    )
    print()
    print(render_table(rows, title="Vectorized evaluation engine"))
    print(f"landscape speedup: {scan_speedup:.2f}x | sweep speedup: "
          f"{sweep_speedup:.2f}x | spectrum speedup: "
          f"{spectrum_speedup:.2f}x")
    emit_bench_json(
        "eval_engine",
        {
            "num_qubits": num_qubits,
            "landscape": {
                "resolution": resolution,
                "scalar_seconds": scalar_scan_s,
                "vectorized_seconds": vec_scan_s,
                "speedup": scan_speedup,
                "max_abs_error": scan_error,
            },
            "sweep": {
                "siblings": 16,
                "scalar_seconds": scalar_sweep_s,
                "vectorized_seconds": vec_sweep_s,
                "speedup": sweep_speedup,
                "max_abs_ev_error": sweep_ev_error,
            },
            "spectrum": {
                "num_qubits": dense.num_qubits,
                "num_terms": dense.num_terms,
                "sign_matrix_seconds": sign_matrix_s,
                "recurrence_seconds": recurrence_s,
                "speedup": spectrum_speedup,
                "max_abs_error": spectrum_error,
            },
        },
    )

    # Agreement first: a fast wrong engine gates nothing.
    assert scan_error <= EV_TOLERANCE, scan_error
    assert sweep_ev_error <= EV_TOLERANCE, sweep_ev_error
    assert spectrum_error <= EV_TOLERANCE, spectrum_error
    assert _sweep_signature(vec_result) == _sweep_signature(scalar_result)
    assert vec_result.num_circuits_executed == 16
    # The acceptance bars.
    assert scan_speedup >= 5.0, f"landscape speedup {scan_speedup:.2f}x < 5x"
    assert sweep_speedup >= 2.0, f"sweep speedup {sweep_speedup:.2f}x < 2x"
