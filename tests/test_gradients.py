"""Tests for the analytic-gradient training engine.

Three layers of evidence:

* the adjoint-mode kernel (``qaoa_value_and_grad``) and the closed-form
  p=1 derivatives (``qaoa1_expectation_and_grad``) agree with central
  finite differences to <= 1e-8 on seeded power-law instances and on the
  h-only / J-only / isolated-qubit / noisy-weights edge cases, and the
  adjoint kernel's value and gradients are pinned bit for bit
  (``ADJOINT_PINS``) on three seeded instances at p = 1, 2, 3, and match
  the gate-level statevector and finite differences at every size from 1
  to 14 qubits;
* the two gradient paths agree with each other at p=1, and the returned
  values match the independent per-point oracles (``reference_expectation``
  in ``tests/conftest.py``: per-term closed form at p=1, gate-level
  statevector at p>=2, ``noisy_expectation`` for noise) to <= 1e-12;
* the L-BFGS-B training path converges in fewer objective evaluations at
  an equal-or-better value than a derivative-free Nelder-Mead run from the
  same multistarts, counts its gradient evaluations separately, and is
  bit-identical across the serial and process-pool execution backends.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import optimize as sciopt

from repro.core import FrozenQubitsSolver, SolverConfig
from repro.devices import get_backend
from repro.graphs.generators import barabasi_albert_graph
from repro.ising.hamiltonian import IsingHamiltonian
from repro.qaoa import (
    batch_objective,
    make_context,
    optimize_qaoa,
    qaoa1_expectation_and_grad,
    value_and_grad_objective,
)
from repro.qaoa.circuits import build_qaoa_template
from repro.qaoa.executor import evaluate_ideal
from repro.qaoa.optimizer import DEFAULT_BETA_RANGE, DEFAULT_GAMMA_RANGE
from repro.sim.qaoa_kernel import qaoa_statevector, qaoa_value_and_grad
from repro.sim.statevector import simulate_statevector
from tests.conftest import reference_expectation

FD_TOL = 1e-8
VALUE_TOL = 1e-12


def random_powerlaw_instance(
    seed: int, num_qubits: int = 7, attachment: int = 2
) -> IsingHamiltonian:
    """A seeded BA instance with ±1 couplings and mixed-sparsity h."""
    rng = np.random.default_rng(seed)
    graph = barabasi_albert_graph(num_qubits, attachment, seed=seed)
    base = IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=seed + 1)
    linear = rng.normal(size=num_qubits) * (rng.random(num_qubits) < 0.6)
    return IsingHamiltonian(
        num_qubits,
        linear=linear,
        quadratic=base.quadratic,
        offset=float(rng.normal()),
    )


EDGE_CASES = [
    # h-only: no quadratic terms at all.
    IsingHamiltonian(3, linear=[0.7, -1.2, 0.4], offset=1.5),
    # J-only: the paper's benchmark shape (h = 0 everywhere).
    IsingHamiltonian(4, quadratic={(0, 1): 1.0, (1, 2): -1.0, (2, 3): 1.0}),
    # Isolated qubits: qubit 2 carries no term, qubit 3 only a linear one.
    IsingHamiltonian(
        4, linear=[0.0, 0.5, 0.0, -0.8], quadratic={(0, 1): -1.0}, offset=-0.3
    ),
    # Single qubit.
    IsingHamiltonian(1, linear=[0.9]),
]


def central_difference(fn, gammas, betas, step=1e-6):
    """Central finite differences of ``fn(gammas, betas)`` in all 2p params."""
    gammas = np.asarray(gammas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    point = np.concatenate([gammas, betas])
    grad = np.zeros(point.size)
    p = gammas.size
    for idx in range(point.size):
        plus, minus = point.copy(), point.copy()
        plus[idx] += step
        minus[idx] -= step
        grad[idx] = (
            fn(plus[:p], plus[p:]) - fn(minus[:p], minus[p:])
        ) / (2 * step)
    return grad


def adjoint_flat(hamiltonian, gammas, betas, observable=None):
    value, grad_g, grad_b = qaoa_value_and_grad(
        hamiltonian, np.asarray(gammas), np.asarray(betas), observable=observable
    )
    return value, np.concatenate([grad_g, grad_b])


def sized_instance(num_qubits: int) -> IsingHamiltonian:
    """A seeded instance at any size from 1 qubit up."""
    if num_qubits >= 3:
        return random_powerlaw_instance(num_qubits, num_qubits=num_qubits)
    rng = np.random.default_rng(num_qubits)
    return IsingHamiltonian(
        num_qubits,
        linear=rng.normal(size=num_qubits),
        quadratic={(0, 1): -0.8} if num_qubits == 2 else {},
        offset=0.4,
    )


@pytest.mark.parametrize("num_qubits", range(1, 15))
def test_kernel_matches_gate_level_and_finite_differences(num_qubits):
    h = sized_instance(num_qubits)
    spectrum = h.energy_landscape()
    for num_layers in (1, 2, 3):
        rng = np.random.default_rng(1000 * num_qubits + num_layers)
        gammas = rng.uniform(-2, 2, num_layers)
        betas = rng.uniform(-2, 2, num_layers)
        template = build_qaoa_template(h, num_layers=num_layers)
        reference = simulate_statevector(template.bind(gammas, betas))
        fused = qaoa_statevector(h, gammas, betas)
        assert np.max(np.abs(fused - reference)) < VALUE_TOL
        value, grad = adjoint_flat(h, gammas, betas)
        assert abs(value - np.abs(reference) ** 2 @ spectrum) < VALUE_TOL
        fd = central_difference(
            lambda g, b: qaoa_value_and_grad(h, g, b)[0], gammas, betas
        )
        assert np.max(np.abs(grad - fd)) < FD_TOL


class TestAdjointKernel:
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_matches_finite_differences(self, num_layers):
        rng = np.random.default_rng(100 + num_layers)
        for seed in range(4):
            h = random_powerlaw_instance(seed)
            gammas = rng.uniform(-2, 2, num_layers)
            betas = rng.uniform(-2, 2, num_layers)
            _, grad = adjoint_flat(h, gammas, betas)
            fd = central_difference(
                lambda g, b: qaoa_value_and_grad(h, g, b)[0], gammas, betas
            )
            assert np.max(np.abs(grad - fd)) < FD_TOL

    @pytest.mark.parametrize("hamiltonian", EDGE_CASES)
    def test_edge_cases(self, hamiltonian):
        rng = np.random.default_rng(17)
        gammas = rng.uniform(-2, 2, 2)
        betas = rng.uniform(-2, 2, 2)
        _, grad = adjoint_flat(hamiltonian, gammas, betas)
        fd = central_difference(
            lambda g, b: qaoa_value_and_grad(hamiltonian, g, b)[0], gammas, betas
        )
        assert np.max(np.abs(grad - fd)) < FD_TOL

    def test_value_matches_legacy_objective(self):
        rng = np.random.default_rng(23)
        for seed in range(3):
            h = random_powerlaw_instance(seed)
            context = make_context(h, num_layers=2)
            gammas = rng.uniform(-2, 2, 2)
            betas = rng.uniform(-2, 2, 2)
            value, _ = adjoint_flat(h, gammas, betas)
            reference = reference_expectation(context, gammas, betas)
            assert abs(value - reference) < VALUE_TOL

    def test_noisy_observable_matches_finite_differences(self):
        h = random_powerlaw_instance(3, num_qubits=5)
        context = make_context(h, num_layers=2, device=get_backend("montreal"))
        assert context.fidelity < 1.0  # the scenario must exercise noise
        fn = value_and_grad_objective(context, noisy=True)
        rng = np.random.default_rng(29)
        gammas = rng.uniform(-2, 2, 2)
        betas = rng.uniform(-2, 2, 2)
        value, grad = fn(gammas, betas)
        reference = reference_expectation(context, gammas, betas, noisy=True)
        assert abs(value - reference) < VALUE_TOL
        fd = central_difference(
            lambda g, b: reference_expectation(context, g, b, noisy=True),
            gammas,
            betas,
        )
        assert np.max(np.abs(grad - fd)) < FD_TOL


class TestClosedFormP1:
    def test_matches_finite_differences(self):
        for seed in range(6):
            h = random_powerlaw_instance(seed)
            rng = np.random.default_rng(1000 + seed)
            gamma, beta = rng.uniform(-2, 2, 2)
            value, dgamma, dbeta = qaoa1_expectation_and_grad(h, gamma, beta)
            fd = central_difference(
                lambda g, b: qaoa1_expectation_and_grad(h, g[0], b[0])[0],
                [gamma],
                [beta],
            )
            assert abs(dgamma - fd[0]) < FD_TOL
            assert abs(dbeta - fd[1]) < FD_TOL

    @pytest.mark.parametrize("hamiltonian", EDGE_CASES)
    def test_edge_cases(self, hamiltonian):
        rng = np.random.default_rng(31)
        gamma, beta = rng.uniform(-2, 2, 2)
        _, dgamma, dbeta = qaoa1_expectation_and_grad(hamiltonian, gamma, beta)
        fd = central_difference(
            lambda g, b: qaoa1_expectation_and_grad(hamiltonian, g[0], b[0])[0],
            [gamma],
            [beta],
        )
        assert abs(dgamma - fd[0]) < FD_TOL
        assert abs(dbeta - fd[1]) < FD_TOL

    def test_agrees_with_adjoint_kernel(self):
        """Closed form and statevector adjoint are two derivations of one
        function — they must agree far below the FD bar."""
        rng = np.random.default_rng(37)
        for seed in range(4):
            h = random_powerlaw_instance(seed)
            gamma, beta = rng.uniform(-2, 2, 2)
            value, dgamma, dbeta = qaoa1_expectation_and_grad(h, gamma, beta)
            adj_value, adj_grad = adjoint_flat(h, [gamma], [beta])
            assert abs(value - adj_value) < 1e-10
            assert abs(dgamma - adj_grad[0]) < 1e-10
            assert abs(dbeta - adj_grad[1]) < 1e-10

    def test_gradient_at_critical_cosines(self):
        """gamma hitting cos(2*gamma*J) = 0 exactly: the leave-one-out
        products must stay finite (no division by the vanishing cosine)."""
        h = IsingHamiltonian(3, [0.5, 0.0, 0.0], {(0, 1): 1.0, (1, 2): 1.0})
        gamma = np.pi / 4  # cos(2*gamma*1.0) == 0
        value, dgamma, dbeta = qaoa1_expectation_and_grad(h, gamma, 0.3)
        assert np.isfinite(value) and np.isfinite(dgamma) and np.isfinite(dbeta)
        fd = central_difference(
            lambda g, b: qaoa1_expectation_and_grad(h, g[0], b[0])[0],
            [gamma],
            [0.3],
        )
        assert abs(dgamma - fd[0]) < FD_TOL
        assert abs(dbeta - fd[1]) < FD_TOL

    def test_noisy_weights_p1(self):
        h = random_powerlaw_instance(5, num_qubits=5)
        context = make_context(h, device=get_backend("montreal"))
        fn = value_and_grad_objective(context, noisy=True)
        rng = np.random.default_rng(41)
        gamma, beta = rng.uniform(-2, 2, 2)
        value, grad = fn(np.array([gamma]), np.array([beta]))
        reference = reference_expectation(context, [gamma], [beta], noisy=True)
        assert abs(value - reference) < VALUE_TOL
        fd = central_difference(
            lambda g, b: reference_expectation(context, g, b, noisy=True),
            [gamma],
            [beta],
        )
        assert np.max(np.abs(grad - fd)) < FD_TOL


class TestValueAndGradObjective:
    def test_ideal_matches_legacy_objective(self):
        rng = np.random.default_rng(43)
        for num_layers in (1, 2):
            h = random_powerlaw_instance(2, num_qubits=6)
            context = make_context(h, num_layers=num_layers)
            fn = value_and_grad_objective(context)
            gammas = rng.uniform(-2, 2, num_layers)
            betas = rng.uniform(-2, 2, num_layers)
            value, grad = fn(gammas, betas)
            assert grad.shape == (2 * num_layers,)
            reference = reference_expectation(context, gammas, betas)
            assert abs(value - reference) < VALUE_TOL


def _nelder_mead(context, num_layers, num_starts, maxiter, seed):
    """Derivative-free reference: Nelder-Mead from the optimizer's p > 1
    multistarts (same seed, same draw order). Returns the best value and
    the objective evaluations spent."""
    rng = np.random.default_rng(seed)
    evaluations = 0

    def objective(point):
        nonlocal evaluations
        evaluations += 1
        return evaluate_ideal(context, point[:num_layers], point[num_layers:])

    best = np.inf
    for __ in range(num_starts):
        start = np.concatenate(
            [
                rng.uniform(*DEFAULT_GAMMA_RANGE, size=num_layers),
                rng.uniform(*DEFAULT_BETA_RANGE, size=num_layers),
            ]
        )
        found = sciopt.minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={"maxiter": maxiter, "xatol": 1e-4, "fatol": 1e-7},
        )
        best = min(best, float(found.fun))
    return best, evaluations


class TestLBFGSTraining:
    def _train(self, num_layers=2, seed=47):
        h = random_powerlaw_instance(4, num_qubits=6)
        context = make_context(h, num_layers=num_layers)
        result = optimize_qaoa(
            batch_objective(context),
            value_and_grad_objective(context),
            num_layers=num_layers,
            grid_resolution=6,
            num_starts=2,
            maxiter=60,
            seed=seed,
        )
        return context, result

    def test_fewer_evaluations_at_equal_or_better_value(self):
        context, gradient = self._train()
        value, evaluations = _nelder_mead(
            context, num_layers=2, num_starts=2, maxiter=60, seed=47
        )
        assert gradient.value <= value + 1e-9
        assert gradient.num_evaluations < evaluations

    def test_gradient_evaluations_counted_separately(self):
        __, p2 = self._train()
        # p > 1 seeds from unevaluated multistarts: every evaluation is a
        # gradient pass.
        assert p2.num_gradient_evaluations > 0
        assert p2.num_gradient_evaluations == p2.num_evaluations
        # p = 1 adds the 6 x 6 grid scan, which is no gradient pass.
        __, p1 = self._train(num_layers=1)
        assert p1.num_gradient_evaluations > 0
        assert p1.num_evaluations == 36 + p1.num_gradient_evaluations


def _solve_fingerprint(result):
    """Bit-exact comparable record of a solve."""
    return (
        tuple(result.best_spins),
        result.best_value.hex(),
        result.ev_ideal.hex(),
        result.ev_noisy.hex(),
        result.num_optimizer_evaluations,
        result.num_gradient_evaluations,
        tuple(
            (o.subproblem.index, o.ev_ideal.hex(), tuple(o.best_spins))
            for o in result.outcomes
        ),
    )


class TestSolverIntegration:
    def _solve(self, backend, **config_kwargs):
        graph = barabasi_albert_graph(8, attachment=1, seed=51)
        problem = IsingHamiltonian.from_graph(
            graph, weights="random_pm1", seed=52
        )
        solver = FrozenQubitsSolver(
            num_frozen=2,
            config=SolverConfig(
                num_layers=2,
                grid_resolution=4,
                maxiter=8,
                shots=256,
                **config_kwargs,
            ),
            seed=2025,
        )
        return solver.solve(problem, get_backend("montreal"), backend=backend)

    def test_gradient_evaluations_accounted(self):
        result = self._solve("serial")
        assert result.num_gradient_evaluations > 0
        assert result.num_gradient_evaluations == sum(
            o.run.optimization.num_gradient_evaluations
            for o in result.outcomes
            if o.run is not None
        )

    def test_bit_identical_across_backends(self):
        """The L-BFGS training path runs per-job in every backend, so the
        full solve must be reproducible flip-for-flip across them."""
        serial = _solve_fingerprint(self._solve("serial"))
        process = _solve_fingerprint(self._solve("process"))
        assert serial == process


#: ``float.hex`` tokens of ``qaoa_value_and_grad``'s value, gammas-gradient
#: and betas-gradient, keyed by (instance seed, qubits, p). Any change to
#: the forward evolution, the mixer or the reverse pass that moves one bit
#: of training shows here.
ADJOINT_PINS = {
    (3, 5, 1): (
        "0x1.2a80667a4880fp+0",
        "0x1.fb5585c6172b0p+0",
        "0x1.4bf0b3b454bc1p+2",
    ),
    (3, 5, 2): (
        "0x1.87cac47f68dbcp-3",
        "0x1.63656bb392c50p-1",
        "-0x1.3e1f35a54526ep+1",
        "-0x1.00d3fad1c475ap+2",
        "0x1.a4cb97f0c33d4p-1",
    ),
    (3, 5, 3): (
        "-0x1.c20a22eea11cap-1",
        "0x1.63262cd63cce2p+3",
        "-0x1.4a3f70175d488p-1",
        "-0x1.aaf84cb11c000p-8",
        "0x1.3eca62689a53fp+0",
        "0x1.bc5f893eab54cp-1",
        "-0x1.787deb6d8ef28p+2",
    ),
    (5, 8, 1): (
        "-0x1.5aacfdee33c7fp-3",
        "0x1.9515328fd8726p+1",
        "-0x1.bc881f0f2e79ap+1",
    ),
    (5, 8, 2): (
        "0x1.1719525e95a7dp-4",
        "-0x1.68ae386c23c4cp+1",
        "-0x1.924fbffe828d4p+0",
        "0x1.bf7f5e4bd2ea4p-2",
        "-0x1.9b849728215f9p+0",
    ),
    (5, 8, 3): (
        "-0x1.a3fc3ad9d81c4p+0",
        "-0x1.15618150271e6p+2",
        "-0x1.67c9d222a2c44p+1",
        "-0x1.a493e5beb8704p+1",
        "-0x1.94359e204f436p+3",
        "0x1.34acc76011a97p-3",
        "-0x1.be07c37d1818ep+0",
    ),
    (7, 10, 1): (
        "-0x1.12cab1fcfa4afp+1",
        "0x1.7effbd93ccf56p+0",
        "-0x1.279d11840afd3p+0",
    ),
    (7, 10, 2): (
        "-0x1.5e78d84165cd6p+1",
        "0x1.dd3addb42fc18p+1",
        "0x1.65ef87206674dp+0",
        "0x1.52871a7b9bc00p-8",
        "0x1.190fa9d334ca9p+3",
    ),
    (7, 10, 3): (
        "0x1.deae78b99d36fp-1",
        "-0x1.0e6d07b330daap+4",
        "-0x1.aa9875f1517d8p-1",
        "-0x1.24b13066fe220p-3",
        "-0x1.928c896a52d02p+0",
        "-0x1.1cbc6bf3ce2efp+3",
        "-0x1.1ce6e1dd5696ap+3",
    ),
}


@pytest.mark.parametrize("key", sorted(ADJOINT_PINS))
def test_value_and_grad_bits_stay_stable(key):
    seed, num_qubits, num_layers = key
    h = random_powerlaw_instance(seed, num_qubits=num_qubits)
    rng = np.random.default_rng(100 * seed + num_layers)
    gammas = rng.uniform(-2, 2, num_layers)
    betas = rng.uniform(-2, 2, num_layers)
    value, grad_g, grad_b = qaoa_value_and_grad(h, gammas, betas)
    tokens = tuple(float(x).hex() for x in (value, *grad_g, *grad_b))
    assert tokens == ADJOINT_PINS[key]
