"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.graphs.generators import barabasi_albert_graph
from repro.ising.hamiltonian import IsingHamiltonian
from repro.qaoa.analytic import qaoa1_term_expectations
from repro.qaoa.circuits import build_qaoa_template
from repro.sim.depolarizing import noisy_expectation
from repro.sim.expectation import (
    combine_term_expectations,
    expectation_from_probabilities,
    term_expectations_from_probabilities,
)
from repro.sim.statevector import probabilities


def pytest_addoption(parser):
    """Register ``--update-golden``: rewrite tests/golden/ fixtures in place.

    Golden tests compare solver output against stored JSON exactly (no
    tolerances). After an *intentional* behavior change, regenerate with
    ``PYTHONPATH=src python -m pytest tests/test_golden.py --update-golden``
    and review the fixture diff like any other code change.
    """
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json from the current solver output",
    )


@pytest.fixture
def update_golden(request) -> bool:
    """Whether this run should rewrite golden fixtures instead of diffing."""
    return bool(request.config.getoption("--update-golden"))


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for a test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_ba_hamiltonian() -> IsingHamiltonian:
    """A reproducible 8-qubit BA(d=1) Hamiltonian with ±1 couplings."""
    graph = barabasi_albert_graph(8, attachment=1, seed=42)
    return IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=43)


@pytest.fixture
def paper_fig5_hamiltonian() -> IsingHamiltonian:
    """The 4-qubit example of paper Fig. 5.

    h = 0 everywhere; J edges form the graph used in the freezing worked
    example (z3 coupled to z0, z1, z2; plus the z0-z2 edge).
    """
    return IsingHamiltonian(
        4,
        quadratic={(0, 2): 1.0, (0, 3): 1.0, (1, 3): 1.0, (2, 3): 1.0},
    )


def spins_strategy(num_qubits: int):
    """Hypothesis strategy for a ±1 spin tuple of fixed width."""
    return st.tuples(*([st.sampled_from((-1, 1))] * num_qubits))


def hamiltonian_strategy(max_qubits: int = 6):
    """Hypothesis strategy for small random Ising Hamiltonians."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_qubits))
        linear = draw(
            st.lists(
                st.floats(-2, 2, allow_nan=False, allow_infinity=False),
                min_size=n,
                max_size=n,
            )
        )
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
        quadratic = {}
        for pair in chosen:
            quadratic[pair] = draw(
                st.floats(-2, 2, allow_nan=False, allow_infinity=False).filter(
                    lambda x: x != 0.0
                )
            )
        offset = draw(st.floats(-3, 3, allow_nan=False, allow_infinity=False))
        return IsingHamiltonian(n, linear=linear, quadratic=quadratic, offset=offset)

    return build()


def reference_expectation(context, gammas, betas, noisy: bool = False) -> float:
    """A context's expectation from the independent oracles, per point.

    p = 1 goes through the per-term closed form
    (:func:`~repro.qaoa.analytic.qaoa1_term_expectations`), p >= 2 through
    the gate-level statevector of the bound template. ``noisy`` folds the
    context's fidelity and readout factors in with
    :func:`~repro.sim.depolarizing.noisy_expectation`. None of this touches
    the batched evaluation engine the tests hold to it.
    """
    hamiltonian = context.hamiltonian
    if context.num_layers == 1:
        z_values, zz_values = qaoa1_term_expectations(
            hamiltonian, gammas[0], betas[0]
        )
    else:
        template = build_qaoa_template(
            hamiltonian, num_layers=context.num_layers
        )
        probs = probabilities(template.bind(gammas, betas))
        if not noisy:
            return expectation_from_probabilities(hamiltonian, probs)
        z_values, zz_values = term_expectations_from_probabilities(
            hamiltonian, probs
        )
    if noisy:
        return noisy_expectation(
            hamiltonian,
            z_values,
            zz_values,
            fidelity=context.fidelity,
            readout=context.readout,
        )
    return combine_term_expectations(hamiltonian, z_values, zz_values)
