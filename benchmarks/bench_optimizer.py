"""Analytic-gradient training engine gates.

PR 4 made objective *evaluation* nearly free; this bench gates the engine
that drives it. On a p=2 device-mode 16-sibling FrozenQubits sweep (m=4,
pruning off) the default training stack — closed-form p=1 seeding plus
adjoint value-and-grad refinement under L-BFGS-B — must beat the pinned
derivative-free Nelder-Mead reference (``SolverConfig(
analytic_gradients=False)``) on three axes at once:

* **>= 2x fewer objective evaluations** across the sweep (the adjoint
  pass returns all 2p derivatives for one extra statevector walk, so
  L-BFGS-B converges in tens, not hundreds, of evaluations per sibling);
* **>= 3x end-to-end wall-clock** on the full solve;
* **equal-or-better final EV** — a faster optimizer that lands on worse
  parameters gates nothing.

The gradients themselves are spot-checked against central finite
differences to <= 1e-8 on the exact sweep workload before any timing is
trusted.

The instance is a BA(m=3) graph: on a BA tree the 16 siblings fall into
one or two landscape classes that train once each, so the sweep would
time sampling rather than the training engine this bench gates.
"""

import time

import numpy as np

from benchmarks.conftest import emit_bench_json, scale
from repro.core import FrozenQubitsSolver, SolverConfig
from repro.devices import get_backend
from repro.experiments import render_table
from repro.graphs.generators import barabasi_albert_graph
from repro.ising.hamiltonian import IsingHamiltonian
from repro.qaoa import make_context, value_and_grad_objective

EV_TOLERANCE = 1e-9
FD_TOLERANCE = 1e-8


def _problem(num_qubits):
    graph = barabasi_albert_graph(num_qubits, 3, seed=17)
    return IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=18)


def _sweep(problem, device, analytic_gradients, reps=1):
    # Identical config to the gradient arm except for the engine flag, so
    # the two arms differ only in the refinement optimizer under test.
    config = SolverConfig(
        num_layers=2,
        grid_resolution=8,
        maxiter=120,
        shots=1024,
        analytic_gradients=analytic_gradients,
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


def _finite_difference_check(problem, device):
    """Max |adjoint - central FD| over all 2p params on the sweep workload."""
    context = make_context(problem, num_layers=2, device=device)
    fn = value_and_grad_objective(context, noisy=False)
    rng = np.random.default_rng(19)
    worst = 0.0
    step = 1e-6
    for __ in range(3):
        point = rng.uniform(-1.5, 1.5, 4)
        _, grad = fn(point[:2], point[2:])
        for idx in range(4):
            plus, minus = point.copy(), point.copy()
            plus[idx] += step
            minus[idx] -= step
            fd = (fn(plus[:2], plus[2:])[0] - fn(minus[:2], minus[2:])[0]) / (
                2 * step
            )
            worst = max(worst, abs(grad[idx] - fd))
    return worst


def test_optimizer_speedup(benchmark):
    num_qubits = scale(16, 18)
    device = get_backend("montreal")
    problem = _problem(num_qubits)

    fd_error = _finite_difference_check(problem, device)

    # Warm both arms once (spectra, templates, transpile cache).
    _sweep(problem, device, analytic_gradients=True)
    _sweep(problem, device, analytic_gradients=False)
    reps = scale(3, 5)
    grad_result, grad_s = _sweep(
        problem, device, analytic_gradients=True, reps=reps
    )
    nm_result, nm_s = _sweep(
        problem, device, analytic_gradients=False, reps=reps
    )

    speedup = nm_s / grad_s
    eval_ratio = (
        nm_result.num_optimizer_evaluations
        / grad_result.num_optimizer_evaluations
    )
    ev_delta = grad_result.ev_ideal - nm_result.ev_ideal

    rows = [
        {
            "arm": "nelder-mead (pinned)",
            "seconds": nm_s,
            "objective_evals": nm_result.num_optimizer_evaluations,
            "gradient_evals": nm_result.num_gradient_evaluations,
            "ev_ideal": nm_result.ev_ideal,
        },
        {
            "arm": "l-bfgs-b (default)",
            "seconds": grad_s,
            "objective_evals": grad_result.num_optimizer_evaluations,
            "gradient_evals": grad_result.num_gradient_evaluations,
            "ev_ideal": grad_result.ev_ideal,
        },
    ]
    # Anchor the pytest-benchmark record to one gradient-trained sweep.
    benchmark.pedantic(
        lambda: _sweep(problem, device, analytic_gradients=True),
        rounds=3,
        iterations=1,
    )
    print()
    print(render_table(rows, title="Analytic-gradient training engine"))
    print(
        f"wall-clock speedup: {speedup:.2f}x | evaluation ratio: "
        f"{eval_ratio:.2f}x | ev delta: {ev_delta:+.3e} | fd error: "
        f"{fd_error:.2e}"
    )
    emit_bench_json(
        "optimizer",
        {
            "num_qubits": num_qubits,
            "num_layers": 2,
            "siblings": 16,
            "nelder_mead": {
                "seconds": nm_s,
                "objective_evaluations": nm_result.num_optimizer_evaluations,
                "gradient_evaluations": nm_result.num_gradient_evaluations,
                "ev_ideal": nm_result.ev_ideal,
            },
            "lbfgs": {
                "seconds": grad_s,
                "objective_evaluations": grad_result.num_optimizer_evaluations,
                "gradient_evaluations": grad_result.num_gradient_evaluations,
                "ev_ideal": grad_result.ev_ideal,
            },
            "speedup": speedup,
            "evaluation_ratio": eval_ratio,
            "ev_delta": ev_delta,
            "fd_error": fd_error,
        },
    )

    # Correctness first: a fast wrong gradient gates nothing.
    assert fd_error <= FD_TOLERANCE, fd_error
    assert grad_result.num_gradient_evaluations > 0
    assert nm_result.num_gradient_evaluations == 0
    assert grad_result.num_circuits_executed == 16
    assert ev_delta <= EV_TOLERANCE, f"gradient arm EV worse by {ev_delta:.3e}"
    # The acceptance bars.
    assert eval_ratio >= 2.0, f"evaluation ratio {eval_ratio:.2f}x < 2x"
    assert speedup >= 3.0, f"wall-clock speedup {speedup:.2f}x < 3x"
