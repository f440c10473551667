"""Proxy-landscape training engine gates.

The Red-QAOA result (PAPERS.md) is that QAOA landscapes survive graph
sparsification — so training can run on a reduced proxy instance and the
parameters transfer. On a p=2 device-mode 16-sibling FrozenQubits sweep
(m=4, pruning off, dense BA(m=3) instance so every sub-problem clears the
proxy-size floor) the proxy path — canonical-frame sparsified training
plus one hybrid-seeded full-instance refinement — must beat the direct
path (``SolverConfig(proxy_training=False)``, the pinned default) on
three axes at once:

* **>= 2x fewer full-instance objective evaluations** across the sweep
  (proxy evaluations are accounted separately and don't count — they run
  on an instance a contraction smaller, off the hot path);
* **>= 1.5x end-to-end wall-clock** on the full solve;
* **equal-or-better final EV** — a cheaper training that lands on worse
  parameters gates nothing.

The proxy accounting is asserted alongside, as exact counts: the 16
cells form 8 landscape classes (8 adopters), and each of the 8 class
trainers carries a proxy and trains it — at the quick n = 16 and at the
full-scale n = 18 alike — so the sweep cannot silently fall back to
direct training. The transfer must also be adopted in the refinement
stage. Both arms share training through landscape classes only.
"""

import time

import numpy as np

from benchmarks.conftest import emit_bench_json, scale
from repro.core import FrozenQubitsSolver, SolverConfig
from repro.devices import get_backend
from repro.experiments import render_table
from repro.graphs.generators import barabasi_albert_graph
from repro.ising.hamiltonian import IsingHamiltonian

EV_TOLERANCE = 1e-9


def _problem(num_qubits):
    # attachment=3: freezing m=4 hotspots must leave sub-problems dense
    # enough to sparsify (a BA tree would leave near-edgeless siblings
    # and the proxy planner would opt out).
    graph = barabasi_albert_graph(num_qubits, 3, seed=17)
    return IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=18)


def _sweep(problem, device, proxy_training, reps=1):
    # Identical config to the direct arm except for the engine flag, so
    # the two arms differ only in the training path under test.
    config = SolverConfig(
        num_layers=2,
        grid_resolution=8,
        maxiter=120,
        shots=1024,
        proxy_training=proxy_training,
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


def test_reduction_speedup(benchmark):
    num_qubits = scale(16, 18)
    device = get_backend("montreal")
    problem = _problem(num_qubits)

    # Warm both arms once (spectra, templates, transpile cache).
    _sweep(problem, device, proxy_training=True)
    _sweep(problem, device, proxy_training=False)
    reps = scale(3, 5)
    proxy_result, proxy_s = _sweep(
        problem, device, proxy_training=True, reps=reps
    )
    direct_result, direct_s = _sweep(
        problem, device, proxy_training=False, reps=reps
    )

    speedup = direct_s / proxy_s
    eval_ratio = (
        direct_result.num_optimizer_evaluations
        / proxy_result.num_optimizer_evaluations
    )
    ev_delta = proxy_result.ev_ideal - direct_result.ev_ideal

    rows = [
        {
            "arm": "direct (pinned)",
            "seconds": direct_s,
            "full_evals": direct_result.num_optimizer_evaluations,
            "proxy_evals": direct_result.num_proxy_evaluations,
            "ev_ideal": direct_result.ev_ideal,
        },
        {
            "arm": "proxy (red-qaoa)",
            "seconds": proxy_s,
            "full_evals": proxy_result.num_optimizer_evaluations,
            "proxy_evals": proxy_result.num_proxy_evaluations,
            "ev_ideal": proxy_result.ev_ideal,
        },
    ]
    # Anchor the pytest-benchmark record to one proxy-trained sweep.
    benchmark.pedantic(
        lambda: _sweep(problem, device, proxy_training=True),
        rounds=3,
        iterations=1,
    )
    print()
    print(render_table(rows, title="Proxy-landscape training engine"))
    print(
        f"wall-clock speedup: {speedup:.2f}x | full-instance evaluation "
        f"ratio: {eval_ratio:.2f}x | ev delta: {ev_delta:+.3e} | proxies "
        f"trained: {proxy_result.num_proxy_trained} | transfers adopted: "
        f"{proxy_result.num_proxy_transferred}"
    )
    emit_bench_json(
        "reduction",
        {
            "num_qubits": num_qubits,
            "num_layers": 2,
            "siblings": 16,
            "direct": {
                "seconds": direct_s,
                "objective_evaluations": (
                    direct_result.num_optimizer_evaluations
                ),
                "ev_ideal": direct_result.ev_ideal,
            },
            "proxy": {
                "seconds": proxy_s,
                "objective_evaluations": (
                    proxy_result.num_optimizer_evaluations
                ),
                "proxy_evaluations": proxy_result.num_proxy_evaluations,
                "proxies_trained": proxy_result.num_proxy_trained,
                "transfers_adopted": proxy_result.num_proxy_transferred,
                "ev_ideal": proxy_result.ev_ideal,
            },
            "speedup": speedup,
            "evaluation_ratio": eval_ratio,
            "ev_delta": ev_delta,
        },
    )

    # Correctness first: the proxy arm must genuinely run the proxy path,
    # once per landscape class.
    assert proxy_result.num_deduplicated == 8
    assert proxy_result.num_proxy_trained == 8
    assert proxy_result.num_proxy_evaluations > 0
    assert proxy_result.num_proxy_transferred > 0
    assert proxy_result.num_circuits_executed == 16
    assert direct_result.num_proxy_evaluations == 0
    assert direct_result.num_proxy_trained == 0
    assert ev_delta <= EV_TOLERANCE, f"proxy arm EV worse by {ev_delta:.3e}"
    # The acceptance bars.
    assert eval_ratio >= 2.0, f"evaluation ratio {eval_ratio:.2f}x < 2x"
    assert speedup >= 1.5, f"wall-clock speedup {speedup:.2f}x < 1.5x"
