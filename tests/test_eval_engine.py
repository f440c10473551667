"""Tests for the vectorized evaluation engine.

Three layers of agreement, all against independent per-point oracles:

* the batched p=1 closed form (``QAOA1Structure`` /
  ``qaoa1_expectations_batch``) vs the per-point Python loop of
  ``qaoa1_term_expectations``;
* the fused diagonal statevector kernel (``sim/qaoa_kernel``), its one
  in-place RX mixer and its level-table cost layer vs the gate-by-gate
  ``simulate_statevector`` on the bound template, the per-wire formula
  and the full-length ``exp`` (batch rows equal single-point calls and
  stacked mixer rows single rows, bit for bit);
* the ``evaluate_batch`` objective (and the optimizer/scan paths built on
  it) vs ``reference_expectation`` (``tests/conftest.py``): the per-term
  closed form at p=1, the gate-level statevector at p>=2, and noise folded
  in by ``noisy_expectation``.

Agreement bars are 1e-12 absolute — far below anything training could
notice, far above accumulation noise. Random instances are seeded
power-law (Barabási–Albert) graphs with dense/sparse/zero linear terms;
edge cases (h-only, J-only, isolated qubits, deep p) get explicit cases.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.cache.memo import memoized_spectrum
from repro.core import SolverConfig
from repro.core import solver as solver_module
from repro.core.solver import train_qaoa_instance
from repro.circuit.circuit import QuantumCircuit
from repro.devices import get_backend
from repro.exceptions import QAOAError, SimulationError
from repro.graphs.generators import barabasi_albert_graph
from repro.ising.hamiltonian import IsingHamiltonian
from repro.qaoa import (
    QAOA1Structure,
    batch_objective,
    build_qaoa_template,
    evaluate_batch,
    evaluate_ideal,
    evaluate_noisy,
    landscape_scan,
    make_context,
    optimize_qaoa,
    qaoa1_expectation,
    qaoa1_expectations_batch,
    qaoa1_term_expectations,
    value_and_grad_objective,
)
from repro.sim import qaoa_kernel
from repro.sim.qaoa_kernel import (
    PhaseLevels,
    _apply_mixer,
    qaoa_expectations_batch,
    qaoa_probabilities,
    qaoa_probabilities_batch,
    qaoa_statevector,
)
from repro.sim.statevector import probabilities, simulate_statevector
from tests.conftest import reference_expectation

TOL = 1e-12


def random_powerlaw_instance(
    seed: int, num_qubits: int = 8, attachment: int = 2
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


def _assert_terms_agree(hamiltonian: IsingHamiltonian, gammas, betas):
    structure = QAOA1Structure(hamiltonian)
    z, zz = structure.term_expectations(gammas, betas)
    for row, (gamma, beta) in enumerate(zip(gammas, betas)):
        z_ref, zz_ref = qaoa1_term_expectations(hamiltonian, gamma, beta)
        for col, qubit in enumerate(structure.z_qubits):
            assert abs(z[row, col] - z_ref[int(qubit)]) < TOL
        for col, (i, j) in enumerate(structure.pairs):
            assert abs(zz[row, col] - zz_ref[(int(i), int(j))]) < TOL


class TestBatchedAnalytic:
    def test_batch_matches_scalar_on_random_instances(self):
        rng = np.random.default_rng(7)
        for seed in range(8):
            h = random_powerlaw_instance(seed)
            gammas = rng.uniform(-3, 3, 12)
            betas = rng.uniform(-3, 3, 12)
            batch = qaoa1_expectations_batch(h, gammas, betas)
            scalar = [
                qaoa1_expectation(h, g, b) for g, b in zip(gammas, betas)
            ]
            assert np.max(np.abs(batch - scalar)) < TOL

    def test_per_term_agreement(self):
        rng = np.random.default_rng(11)
        for seed in range(4):
            h = random_powerlaw_instance(seed, num_qubits=7)
            _assert_terms_agree(h, rng.uniform(-2, 2, 5), rng.uniform(-2, 2, 5))

    @pytest.mark.parametrize("hamiltonian", EDGE_CASES)
    def test_edge_cases(self, hamiltonian):
        rng = np.random.default_rng(13)
        gammas = rng.uniform(-3, 3, 9)
        betas = rng.uniform(-3, 3, 9)
        batch = qaoa1_expectations_batch(hamiltonian, gammas, betas)
        scalar = [
            qaoa1_expectation(hamiltonian, g, b)
            for g, b in zip(gammas, betas)
        ]
        assert np.max(np.abs(batch - scalar)) < TOL
        _assert_terms_agree(hamiltonian, gammas, betas)

    def test_chunked_evaluation_matches_unchunked(self, monkeypatch):
        import repro.qaoa.analytic as analytic

        h = random_powerlaw_instance(3)
        gammas = np.linspace(-2, 2, 37)
        betas = np.linspace(-1, 1, 37)
        whole = qaoa1_expectations_batch(h, gammas, betas)
        monkeypatch.setattr(analytic, "BATCH_CHUNK_ELEMENTS", 16)
        chunked = qaoa1_expectations_batch(h, gammas, betas)
        np.testing.assert_array_equal(whole, chunked)

    def test_noise_weights_match_scalar_noisy_path(self):
        h = random_powerlaw_instance(5)
        context = make_context(h, device=get_backend("montreal"))
        rng = np.random.default_rng(17)
        gammas = rng.uniform(-2, 2, 6)
        betas = rng.uniform(-2, 2, 6)
        batch = evaluate_batch(context, gammas, betas, noisy=True)
        scalar = [
            reference_expectation(context, [g], [b], noisy=True)
            for g, b in zip(gammas, betas)
        ]
        assert np.max(np.abs(batch - scalar)) < TOL

    def test_empty_hamiltonian_rejected(self):
        with pytest.raises(QAOAError):
            QAOA1Structure(IsingHamiltonian(0))

    def test_shape_mismatch_rejected(self):
        h = EDGE_CASES[1]
        with pytest.raises(QAOAError):
            qaoa1_expectations_batch(h, np.zeros(3), np.zeros(4))


class TestFusedKernel:
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_statevector_matches_gate_loop(self, num_layers):
        rng = np.random.default_rng(19)
        for seed in range(3):
            h = random_powerlaw_instance(seed, num_qubits=6)
            gammas = rng.uniform(-2, 2, num_layers)
            betas = rng.uniform(-2, 2, num_layers)
            template = build_qaoa_template(h, num_layers=num_layers)
            reference = simulate_statevector(template.bind(gammas, betas))
            fused = qaoa_statevector(h, gammas, betas)
            assert np.max(np.abs(reference - fused)) < TOL

    @pytest.mark.parametrize("hamiltonian", EDGE_CASES)
    def test_edge_case_probabilities(self, hamiltonian):
        gammas, betas = [0.7, -0.4, 1.1], [0.3, 0.9, -0.2]
        template = build_qaoa_template(hamiltonian, num_layers=3)
        reference = probabilities(template.bind(gammas, betas))
        fused = qaoa_probabilities(hamiltonian, gammas, betas)
        assert np.max(np.abs(reference - fused)) < TOL

    def test_batch_rows_match_single_calls(self):
        # Batch rows run the single-point layer loop, so they agree bit
        # for bit, not merely to TOL.
        rng = np.random.default_rng(29)
        instances = [random_powerlaw_instance(23, num_qubits=5), *EDGE_CASES]
        for h in instances:
            for num_layers in (1, 2, 3):
                G = rng.uniform(-2, 2, (7, num_layers))
                B = rng.uniform(-2, 2, (7, num_layers))
                batch = qaoa_probabilities_batch(h, G, B)
                for row in range(7):
                    single = qaoa_probabilities(h, G[row], B[row])
                    assert np.array_equal(batch[row], single)

    def test_expectations_batch_matches_dense_reference(self):
        from repro.sim import expectation_from_probabilities

        h = random_powerlaw_instance(31, num_qubits=5)
        rng = np.random.default_rng(37)
        G = rng.uniform(-2, 2, (5, 3))
        B = rng.uniform(-2, 2, (5, 3))
        values = qaoa_expectations_batch(h, G, B)
        for row in range(5):
            template = build_qaoa_template(h, num_layers=3)
            probs = probabilities(template.bind(G[row], B[row]))
            assert abs(values[row] - expectation_from_probabilities(h, probs)) < TOL

    def test_oversized_instance_rejected(self):
        big = IsingHamiltonian(25, quadratic={(0, 1): 1.0})
        with pytest.raises(SimulationError):
            qaoa_statevector(big, [0.1], [0.2])

    def test_level_index_length_validated(self):
        h = EDGE_CASES[1]
        levels = PhaseLevels.from_spectrum(np.zeros(3), 0.0)
        with pytest.raises(SimulationError):
            qaoa_statevector(h, [0.1], [0.2], levels=levels)

    def test_spectrum_length_validated(self):
        h = EDGE_CASES[1]
        with pytest.raises(SimulationError):
            qaoa_expectations_batch(h, [0.1], [0.2], spectrum=np.zeros(3))


class TestApplyMixer:
    """The one RX mixer that sampling, batches and the adjoint share."""

    @staticmethod
    def _random_rows(rng, num_qubits, stack=1):
        rows = rng.normal(size=(stack, 1 << num_qubits)) + 1j * rng.normal(
            size=(stack, 1 << num_qubits)
        )
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    @staticmethod
    def _per_wire_oracle(state, beta):
        c, s = np.cos(beta), -1j * np.sin(beta)
        tensor = state.reshape((2,) * (state.size.bit_length() - 1))
        for axis in range(tensor.ndim):
            tensor = c * tensor + s * np.flip(tensor, axis=axis)
        return tensor.reshape(-1)

    @pytest.mark.parametrize(
        "beta",
        [0.0, np.pi / 2, -1.3, float(np.random.default_rng(83).uniform(-3, 3))],
    )
    def test_matches_gate_loop_and_per_wire_formula(self, beta):
        rng = np.random.default_rng(89)
        for num_qubits in range(1, 11):
            rows = self._random_rows(rng, num_qubits)
            start = rows.copy()
            layer = QuantumCircuit(num_qubits)
            for qubit in range(num_qubits):
                layer.rx(2.0 * beta, qubit)
            reference = simulate_statevector(layer, initial_state=start[0])
            _apply_mixer(rows, beta, np.empty_like(rows))
            # In place: the input holds the mixed state.
            assert np.max(np.abs(rows[0] - reference)) < TOL
            assert np.array_equal(rows[0], self._per_wire_oracle(start[0], beta))

    def test_stacked_rows_equal_single_rows(self):
        # The adjoint un-applies psi and lambda as one stack: each row must
        # get the bits it would get on its own.
        rng = np.random.default_rng(91)
        for num_qubits in range(1, 11):
            for beta in (0.4, -1.3, 2.9):
                stack = self._random_rows(rng, num_qubits, stack=3)
                singles = stack.copy()
                _apply_mixer(stack, beta, np.empty_like(stack))
                for row in singles:
                    _apply_mixer(row[None], beta, np.empty_like(row[None]))
                assert np.array_equal(stack, singles)

    def test_reused_scratch_gives_same_bits(self):
        rng = np.random.default_rng(97)
        for num_qubits in range(1, 11):
            scratch = np.full((1, 1 << num_qubits), np.nan, dtype=complex)
            for beta in (0.4, -1.3, 2.9):
                rows = self._random_rows(rng, num_qubits)
                fresh = rows.copy()
                _apply_mixer(rows, beta, scratch)
                _apply_mixer(fresh, beta, np.empty_like(fresh))
                assert np.array_equal(rows, fresh)


def _level_spectra():
    """``(name, spectrum, offset)`` cases for the level table."""
    rng = np.random.default_rng(101)
    pm1 = IsingHamiltonian.from_graph(
        barabasi_albert_graph(10, 1, seed=3), weights="random_pm1", seed=4
    )
    fields = random_powerlaw_instance(7, num_qubits=9)
    zeros = np.array([0.0, -0.0, 1.5, -0.0, 0.0, 1.5, -2.25, 0.0])
    return [
        ("pm1", pm1.energy_landscape(), pm1.offset),
        ("fractional_fields", fields.energy_landscape(), fields.offset),
        ("all_distinct", rng.normal(size=1 << 10) * 3.0, 0.25),
        ("signed_zeros", zeros, 0.0),
    ]


LEVEL_CASES = _level_spectra()


class TestPhaseLevels:
    """The level table replaces one full-length ``exp`` per cost layer."""

    @pytest.mark.parametrize(
        "name, spectrum, offset", LEVEL_CASES, ids=[c[0] for c in LEVEL_CASES]
    )
    def test_diagonal_equals_direct_exp_bit_for_bit(self, name, spectrum, offset):
        levels = PhaseLevels.from_spectrum(spectrum, offset)
        phases = spectrum - offset
        recovered = np.empty_like(phases)
        levels.phases(out=recovered)
        assert np.array_equal(recovered.view(np.int64), phases.view(np.int64))
        for gamma in np.array([0.0, 0.37, -1.9, 2.5, -3.1e-7]):
            direct = np.exp(-1j * gamma * phases)
            gathered = np.empty_like(direct)
            levels.diagonal(gamma, out=gathered)
            assert np.array_equal(
                gathered.view(np.int64), direct.view(np.int64)
            ), (name, gamma)

    def test_index_is_compact(self):
        cases = {name: (s, o) for name, s, o in LEVEL_CASES}
        pm1 = PhaseLevels.from_spectrum(*cases["pm1"])
        assert pm1.values.size <= 256 and pm1.index.dtype == np.uint8
        distinct = PhaseLevels.from_spectrum(*cases["all_distinct"])
        assert distinct.values.size == 1 << 10
        assert distinct.index.dtype == np.uint16
        # -0.0 and 0.0 are kept apart, so each gathers its own exp.
        zeros = PhaseLevels.from_spectrum(*cases["signed_zeros"])
        assert zeros.values.size == 4


class TestOneEvolutionPerJob:
    """A job's ideal and noisy EVs (and a handed-in point's objective) come
    from one kernel evolution, bit for bit the separate evaluations."""

    PARAMS = ((0.35, -0.6), (0.5, 0.15))

    @staticmethod
    def _count_evolutions(monkeypatch) -> list:
        calls = []
        evolve = qaoa_kernel._evolve

        def counting(*args, **kwargs):
            calls.append(1)
            return evolve(*args, **kwargs)

        monkeypatch.setattr(qaoa_kernel, "_evolve", counting)
        return calls

    @pytest.mark.parametrize("train_noisy", [True, False])
    def test_job_handed_params(self, monkeypatch, train_noisy):
        h = random_powerlaw_instance(53, num_qubits=7)
        config = SolverConfig(num_layers=2, train_noisy=train_noisy)
        context = make_context(h, num_layers=2, device=get_backend("montreal"))
        calls = self._count_evolutions(monkeypatch)
        trained = train_qaoa_instance(
            h, config=config, seed=1, context=context, params=self.PARAMS
        )
        assert len(calls) == 1
        ideal = evaluate_ideal(context, *self.PARAMS)
        noisy = evaluate_noisy(context, *self.PARAMS)
        assert (trained.ev_ideal, trained.ev_noisy) == (ideal, noisy)
        assert trained.optimization.value == (noisy if train_noisy else ideal)

    def test_trained_job(self, monkeypatch):
        h = random_powerlaw_instance(59, num_qubits=6)
        config = SolverConfig(num_layers=2, grid_resolution=4, maxiter=6)
        calls = self._count_evolutions(monkeypatch)
        during_training = []
        optimize_on = solver_module._optimize_on

        def recording(*args, **kwargs):
            result = optimize_on(*args, **kwargs)
            during_training.append(len(calls))
            return result

        monkeypatch.setattr(solver_module, "_optimize_on", recording)
        trained = train_qaoa_instance(
            h, device=get_backend("montreal"), config=config, seed=3
        )
        [trained_after] = during_training
        assert len(calls) == trained_after + 1
        gammas, betas = trained.optimization.gammas, trained.optimization.betas
        assert trained.ev_ideal == evaluate_ideal(trained.context, gammas, betas)
        assert trained.ev_noisy == evaluate_noisy(trained.context, gammas, betas)


class TestEvaluateBatch:
    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_matches_legacy_scalar(self, num_layers, noisy):
        h = random_powerlaw_instance(41, num_qubits=6)
        device = get_backend("montreal")
        context = make_context(h, num_layers=num_layers, device=device)
        rng = np.random.default_rng(43)
        G = rng.uniform(-2, 2, (5, num_layers))
        B = rng.uniform(-2, 2, (5, num_layers))
        batch = evaluate_batch(context, G, B, noisy=noisy)
        fn = evaluate_noisy if noisy else evaluate_ideal
        scalar = [
            reference_expectation(context, G[i], B[i], noisy=noisy)
            for i in range(5)
        ]
        assert np.max(np.abs(batch - scalar)) < TOL
        # The single-point entry points agree with their own batch too.
        point = [float(fn(context, G[i], B[i])) for i in range(5)]
        assert np.max(np.abs(batch - point)) < TOL

    def test_layer_count_validated(self):
        context = make_context(EDGE_CASES[1], num_layers=2)
        with pytest.raises(QAOAError):
            evaluate_batch(context, np.zeros((3, 1)), np.zeros((3, 1)))


class TestOptimizerIntegration:
    def test_batched_and_scalar_seeding_agree(self):
        """The batched grid scan scores every point like the per-point
        oracle, and refinement starts from the oracle's grid winner."""
        h = random_powerlaw_instance(47, num_qubits=6)
        context = make_context(h)
        scanned: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        starts: list[np.ndarray] = []
        evaluate = batch_objective(context)
        value_and_grad = value_and_grad_objective(context)

        def recording_batch(gammas, betas):
            values = evaluate(gammas, betas)
            scanned.append((gammas.copy(), betas.copy(), values))
            return values

        def recording_grad(gammas, betas):
            starts.append(np.concatenate([gammas, betas]))
            return value_and_grad(gammas, betas)

        result = optimize_qaoa(
            recording_batch, recording_grad, grid_resolution=8
        )
        [(gammas, betas, values)] = scanned
        assert len(values) == 64
        scalar = [
            reference_expectation(context, g, b) for g, b in zip(gammas, betas)
        ]
        assert np.max(np.abs(values - scalar)) < TOL
        winner = int(np.argmin(scalar))
        np.testing.assert_array_equal(
            starts[0], [gammas[winner, 0], betas[winner, 0]]
        )
        assert result.value <= min(scalar) + TOL
        assert result.num_evaluations == 64 + result.num_gradient_evaluations

    def test_warm_start_acceptance_batched_matches_scalar(self):
        """The two-point acceptance batch decides like the oracle."""
        h = random_powerlaw_instance(59, num_qubits=6)
        context = make_context(h)
        objectives = (batch_objective(context), value_and_grad_objective(context))
        trained = optimize_qaoa(*objectives, grid_resolution=8)
        point = (trained.gammas, trained.betas)
        result = optimize_qaoa(*objectives, grid_resolution=8, initial_point=point)
        untrained = reference_expectation(context, [0.0], [0.0])
        transferred = reference_expectation(context, *point)
        assert transferred < untrained
        assert result.warm_started and not result.warm_start_rejected
        assert result.history[0] == pytest.approx(untrained, abs=TOL)
        assert result.value <= transferred + TOL
        assert result.num_evaluations == 2 + result.num_gradient_evaluations

    def test_landscape_scan_batched_matches_scalar(self):
        h = random_powerlaw_instance(61, num_qubits=6)
        device = get_backend("montreal")
        context = make_context(h, device=device)
        batched = landscape_scan(
            batch_objective(context, noisy=True), resolution=9
        )
        scalar = np.array(
            [
                [
                    reference_expectation(context, [g], [b], noisy=True)
                    for b in batched.betas
                ]
                for g in batched.gammas
            ]
        )
        assert np.max(np.abs(scalar - batched.values)) < TOL
        index = np.unravel_index(int(np.argmin(scalar)), scalar.shape)
        assert batched.best == pytest.approx(
            (
                batched.gammas[index[0]],
                batched.betas[index[1]],
                scalar[index],
            ),
            abs=TOL,
        )


class TestSpectrumMemo:
    def test_energy_landscape_memoized_and_read_only(self):
        h = EDGE_CASES[1]
        first = h.energy_landscape()
        assert h.energy_landscape() is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0

    def test_pickle_drops_spectrum_memo(self):
        h = random_powerlaw_instance(67, num_qubits=5)
        h.energy_landscape()
        clone = pickle.loads(pickle.dumps(h))
        assert clone == h
        assert clone._landscape is None
        np.testing.assert_array_equal(
            clone.energy_landscape(), h.energy_landscape()
        )

    def test_memoized_spectrum_shared_across_equal_instances(self):
        a = random_powerlaw_instance(71, num_qubits=5)
        b = random_powerlaw_instance(71, num_qubits=5)
        assert a is not b and a == b
        assert memoized_spectrum(a) is memoized_spectrum(b)


class TestSharpnessCurve:
    def test_curve_shape_and_baseline(self):
        from repro.analysis.tradeoff import landscape_sharpness_curve

        h = random_powerlaw_instance(79, num_qubits=8, attachment=1)
        curve = landscape_sharpness_curve(
            h, max_frozen=2, device=get_backend("montreal"), resolution=8
        )
        assert len(curve) == 3
        assert [p.quantum_cost for p in curve] == [1, 2, 4]
        assert curve[0].relative_value == pytest.approx(1.0)
        assert all(np.isfinite(p.relative_value) for p in curve)


@pytest.mark.slow
class TestLargeAgreementSweeps:
    def test_batch_vs_scalar_sweep(self):
        rng = np.random.default_rng(101)
        for seed in range(40):
            h = random_powerlaw_instance(
                seed, num_qubits=int(rng.integers(3, 11)),
                attachment=int(rng.integers(1, 3)),
            )
            gammas = rng.uniform(-4, 4, 20)
            betas = rng.uniform(-4, 4, 20)
            batch = qaoa1_expectations_batch(h, gammas, betas)
            scalar = [
                qaoa1_expectation(h, g, b) for g, b in zip(gammas, betas)
            ]
            assert np.max(np.abs(batch - scalar)) < TOL

    def test_fused_vs_gate_loop_sweep(self):
        rng = np.random.default_rng(103)
        for seed in range(15):
            num_layers = int(rng.integers(1, 4))
            h = random_powerlaw_instance(seed, num_qubits=int(rng.integers(3, 9)))
            G = rng.uniform(-3, 3, (4, num_layers))
            B = rng.uniform(-3, 3, (4, num_layers))
            batch = qaoa_probabilities_batch(h, G, B)
            template = build_qaoa_template(h, num_layers=num_layers)
            for row in range(4):
                reference = probabilities(template.bind(G[row], B[row]))
                assert np.max(np.abs(batch[row] - reference)) < TOL
