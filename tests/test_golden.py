"""Golden-file regression tests for end-to-end solve scenarios.

Instead of loose tolerances, these tests serialize the full scientific
output of a seeded solve — counts, expectations (as exact ``float.hex``
tokens), spins, accounting — and diff it against a stored fixture under
``tests/golden/``. Any refactor that changes a single sampled count or the
last bit of an expectation fails loudly with a field-level diff.

Intentional changes regenerate the fixtures:

    PYTHONPATH=src python -m pytest tests/test_golden.py --update-golden

and the fixture diff is reviewed like source.
"""

from __future__ import annotations

import json
import math
import os

import pytest

from repro.core import FrozenQubitsSolver, SolverConfig
from repro.core.solver import FrozenQubitsResult
from repro.devices import get_backend
from repro.graphs.generators import barabasi_albert_graph
from repro.ising.hamiltonian import IsingHamiltonian
from repro.planning import ExecutionBudget

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _hex(value: float) -> str:
    """Exact float token (hex); NaN spelled out (hex() rejects it)."""
    return "nan" if math.isnan(value) else float(value).hex()


def result_to_golden(result: FrozenQubitsResult) -> dict:
    """The full comparable record of a solve, with bit-exact floats."""
    return {
        "frozen_qubits": list(result.frozen_qubits),
        "best_spins": list(result.best_spins),
        "best_value": _hex(result.best_value),
        "ev_ideal": _hex(result.ev_ideal),
        "ev_noisy": _hex(result.ev_noisy),
        "num_circuits_executed": result.num_circuits_executed,
        "edited_circuits": result.edited_circuits,
        "skipped_assignments": list(result.skipped_assignments),
        "outcomes": [
            {
                "index": outcome.subproblem.index,
                "source": outcome.source,
                "assignment": list(outcome.subproblem.assignment),
                "best_spins": list(outcome.best_spins),
                "best_value": _hex(outcome.best_value),
                "ev_ideal": _hex(outcome.ev_ideal),
                "ev_noisy": _hex(outcome.ev_noisy),
                "decoded_counts": (
                    {str(k): v for k, v in sorted(outcome.decoded_counts.items())}
                    if outcome.decoded_counts is not None
                    else None
                ),
            }
            for outcome in result.outcomes
        ],
    }


def check_golden(name: str, result: FrozenQubitsResult, update: bool) -> None:
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    actual = result_to_golden(result)
    if update:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(actual, handle, indent=2, sort_keys=True)
            handle.write("\n")
        pytest.skip(f"golden fixture {name}.json rewritten")
    assert os.path.exists(path), (
        f"missing golden fixture {path}; generate it with --update-golden"
    )
    with open(path, encoding="utf-8") as handle:
        expected = json.load(handle)
    # Field-by-field first, so a mismatch names the offending key instead
    # of dumping two whole documents.
    for key in expected:
        assert actual.get(key) == expected[key], f"golden mismatch in {key!r}"
    assert actual == expected


def test_golden_frozenqubits_device_solve(update_golden):
    """Scenario 1: m=2 FrozenQubits solve on a noisy device, mirrors on.

    Also pins the training work exactly: objective evaluations and
    gradient passes, summed over the executed cells.
    """
    graph = barabasi_albert_graph(8, attachment=1, seed=21)
    problem = IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=22)
    solver = FrozenQubitsSolver(
        num_frozen=2,
        config=SolverConfig(grid_resolution=4, maxiter=6, shots=512),
        seed=2023,
    )
    result = solver.solve(problem, get_backend("montreal"))
    assert result.num_optimizer_evaluations == 24
    assert result.num_gradient_evaluations == 7
    check_golden("frozenqubits_device_m2", result, update_golden)


def test_golden_budgeted_solve_vectorized_annealer(update_golden):
    """Scenario 3: budget-capped fan-out with classical fallback coverage.

    Pins the batched annealing probes and the batched classical fallback
    bit-for-bit, and records replica provenance for every covered cell.
    """
    graph = barabasi_albert_graph(9, attachment=2, seed=23)
    problem = IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=24)
    solver = FrozenQubitsSolver(
        num_frozen=3,
        config=SolverConfig(grid_resolution=3, maxiter=4, shots=256),
        seed=2024,
        budget=ExecutionBudget(max_circuits=2),
        warm_start=False,
    )
    result = solver.solve(problem, get_backend("montreal"))
    assert result.skipped_assignments
    # Every classical cell carries its fallback's replica provenance.
    classical = [o for o in result.outcomes if o.source == "classical"]
    assert classical and all(o.fallback is not None for o in classical)
    assert set(result.fallback_provenance) == {
        o.subproblem.index for o in classical
    }
    check_golden("budgeted_fallback_m3", result, update_golden)


def test_golden_gradient_trained_p2_solve(update_golden):
    """Scenario 4: p=2 device-mode solve trained with analytic gradients.

    The default engine stack — adjoint value-and-grad kernel feeding
    L-BFGS-B refinement — on a depth-2 circuit. Pins the gradient
    training path end to end: one flipped sample or a last-bit drift in
    the converged angles fails the diff.
    """
    graph = barabasi_albert_graph(8, attachment=1, seed=21)
    problem = IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=22)
    solver = FrozenQubitsSolver(
        num_frozen=2,
        config=SolverConfig(
            num_layers=2, grid_resolution=4, maxiter=8, shots=512
        ),
        seed=2023,
    )
    result = solver.solve(problem, get_backend("montreal"))
    assert result.num_optimizer_evaluations == 49
    assert result.num_gradient_evaluations == 48
    check_golden("gradient_trained_p2_m2", result, update_golden)


def test_golden_proxy_trained_p2_solve(update_golden):
    """Scenario 5: p=2 device-mode solve on the proxy-landscape engine.

    ``proxy_training=True`` on a dense instance whose sub-problems clear
    the proxy-size floor: canonical-frame sparsified training, parameter
    transfer, and the hybrid-seeded refinement, pinned end to end. The
    dense BA(m=3) problem is required — freezing a BA tree leaves
    near-edgeless siblings and the proxy planner would opt out of every
    cell, silently degrading this fixture to the direct path.
    """
    graph = barabasi_albert_graph(12, attachment=3, seed=25)
    problem = IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=26)
    solver = FrozenQubitsSolver(
        num_frozen=2,
        config=SolverConfig(
            num_layers=2,
            grid_resolution=4,
            maxiter=30,
            shots=512,
            proxy_training=True,
        ),
        seed=2025,
    )
    result = solver.solve(problem, get_backend("montreal"))
    assert result.num_proxy_trained > 0
    assert result.num_proxy_evaluations > 0
    check_golden("proxy_trained_p2_m2", result, update_golden)
