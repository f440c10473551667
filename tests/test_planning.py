"""Tests for repro.planning and the planned solve path.

Covers the budget model, the adaptive planner, assignment triage, the
budgeted top-k fan-out with classical fallback (the decoded result must
still partition the full state-space at m >= 3, mixed pruned/unpruned),
cross-sibling warm starts (fewer optimizer evaluations, equivalent
answers, backend-independent), and the session-default plumbing the CLI
flags use.
"""

import threading

import numpy as np
import pytest

from repro.backend import ProcessPoolBackend, SerialBackend
from repro.core import FrozenQubitsSolver, SolverConfig, solve_many
from repro.core.partition import executed_subproblems, partition_problem
from repro.core.solver import run_qaoa_instance
from repro.devices import get_backend
from repro.devices.ibm import _build_backend
from repro.exceptions import ReproError, SolverError
from repro.exceptions import QAOAError
from repro.graphs.generators import barabasi_albert_graph, star_graph
from repro.ising import IsingHamiltonian, brute_force_minimum
from repro.planning import (
    ExecutionBudget,
    FreezePlan,
    FreezePlanner,
    PlanningDefaults,
    offset_lower_bound,
    plan_freeze,
    rank_assignments,
    set_default_planning,
)
from repro.analysis.tradeoff import knee_under_budget, tradeoff_curve
from repro.qaoa.optimizer import optimize_qaoa
from repro.utils.bitstrings import bits_to_spins, int_to_bits

FAST = SolverConfig(shots=512, grid_resolution=6, maxiter=20)


@pytest.fixture
def ba10_hamiltonian() -> IsingHamiltonian:
    graph = barabasi_albert_graph(10, attachment=1, seed=5)
    return IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=6)


class TestExecutionBudget:
    def test_unlimited_by_default(self):
        budget = ExecutionBudget()
        assert budget.unlimited
        assert budget.circuit_cap(shots_per_circuit=1024) is None

    def test_tightest_cap_wins(self):
        budget = ExecutionBudget(max_circuits=8, max_shots=2048)
        assert budget.circuit_cap(shots_per_circuit=1024) == 2
        assert budget.circuit_cap() == 8  # shot limit can't bind without shots

    def test_seconds_proxy(self):
        budget = ExecutionBudget(max_seconds=1.0)
        assert budget.circuit_cap(seconds_per_circuit=0.3) == 3

    def test_cap_never_below_one(self):
        budget = ExecutionBudget(max_shots=10)
        assert budget.circuit_cap(shots_per_circuit=1024) == 1

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_circuits": 0}, {"max_shots": 0}, {"max_seconds": 0.0}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(SolverError):
            ExecutionBudget(**kwargs)


class TestFreezePlan:
    def test_inconsistent_plan_rejected(self):
        with pytest.raises(SolverError):
            FreezePlan(num_frozen=2, hotspots=(0,))

    def test_bad_max_executed_rejected(self):
        with pytest.raises(SolverError):
            FreezePlan(num_frozen=1, hotspots=(0,), max_executed=0)

    def test_describe_mentions_depth_and_notes(self):
        plan = FreezePlan(
            num_frozen=1, hotspots=(3,), notes=("because reasons",)
        )
        text = plan.describe()
        assert "m=1" in text and "because reasons" in text


class TestFreezePlanner:
    def test_star_plan_freezes_hub(self):
        h = IsingHamiltonian.from_graph(star_graph(10))
        plan = FreezePlanner().plan(h)
        assert plan.num_frozen >= 1
        assert plan.hotspots[0] == 0  # the hub

    def test_budget_caps_executed_circuits(self, ba10_hamiltonian):
        plan = FreezePlanner(shots=512).plan(
            ba10_hamiltonian, budget=ExecutionBudget(max_circuits=2)
        )
        assert any("budget" in note for note in plan.notes)
        # Either the depth already fits 2 circuits, or the plan prescribes
        # a ranked top-2 with classical fallback for the rest.
        fan_out = 2 ** max(plan.num_frozen - 1, 0)  # symmetric => pruned
        if fan_out > 2:
            assert plan.max_executed == 2
            assert any("covered classically" in note for note in plan.notes)
        else:
            assert plan.max_executed is None

    def test_top_k_pruning_reachable_within_stretch(self, ba10_hamiltonian):
        """A quality-chosen depth that overflows the cap by <= the stretch
        factor is kept, with the overflow handled by top-k pruning."""
        plan = FreezePlanner(
            shots=512, plateau_threshold=0.0, max_frozen=4
        ).plan(ba10_hamiltonian, budget=ExecutionBudget(max_circuits=2))
        assert plan.num_frozen >= 3  # 2**(m-1) = 4 cells > cap of 2
        assert plan.max_executed == 2
        result = FrozenQubitsSolver(plan=plan, config=FAST, seed=2).solve(
            ba10_hamiltonian
        )
        assert result.num_circuits_executed == 2
        assert result.skipped_assignments  # fallback actually exercised

    def test_stretch_clamps_depth_with_accurate_note(self, ba10_hamiltonian):
        """Beyond the stretch the depth is clamped — and the clamp note
        appears only when the clamp actually happened."""
        clamped = FreezePlanner(
            shots=512, plateau_threshold=0.0, max_frozen=6, prune_stretch=1
        ).plan(ba10_hamiltonian, budget=ExecutionBudget(max_circuits=2))
        assert 2 ** max(clamped.num_frozen - 1, 0) <= 2
        assert any("clamped" in note for note in clamped.notes)
        unclamped = FreezePlanner(shots=512).plan(
            ba10_hamiltonian, budget=ExecutionBudget(max_circuits=64)
        )
        assert not any("clamped" in note for note in unclamped.notes)

    def test_prune_stretch_validation(self):
        with pytest.raises(SolverError):
            FreezePlanner(prune_stretch=0)

    def test_swap_aware_policy_plans_with_device(self, ba10_hamiltonian):
        """The cost-model path must reuse the device-aware hotspot set
        instead of re-selecting blind (which would crash swap_aware)."""
        plan = FreezePlanner(hotspot_policy="swap_aware", max_frozen=3).plan(
            ba10_hamiltonian, device=get_backend("montreal")
        )
        assert plan.policy == "swap_aware"
        assert len(plan.hotspots) == plan.num_frozen

    def test_random_policy_plan_deterministic_by_seed(self, ba10_hamiltonian):
        device = get_backend("montreal")
        planner = FreezePlanner(hotspot_policy="random", max_frozen=3)
        a = planner.plan(ba10_hamiltonian, device=device, seed=11)
        b = planner.plan(ba10_hamiltonian, device=device, seed=11)
        assert a.hotspots == b.hotspots and a.num_frozen == b.num_frozen

    def test_seconds_budget_binds_in_direct_solver_path(self, ba10_hamiltonian):
        """A max_seconds-only budget must cap the fan-out through the
        solver exactly as it does through the planner."""
        from repro.planning.budget import estimated_seconds_per_circuit

        per_circuit = estimated_seconds_per_circuit(
            ba10_hamiltonian, FAST.shots
        )
        solver = FrozenQubitsSolver(
            num_frozen=3,
            prune_symmetric=False,
            config=FAST,
            seed=30,
            budget=ExecutionBudget(max_seconds=2.5 * per_circuit),
        )
        result = solver.solve(ba10_hamiltonian)
        assert result.num_circuits_executed == 2
        assert len(result.skipped_assignments) == 6

    def test_device_plan_consults_cost_model(self, ba10_hamiltonian):
        plan = FreezePlanner(max_frozen=3).plan(
            ba10_hamiltonian, device=get_backend("montreal")
        )
        assert plan.cost_reports  # evidence retained for inspection
        assert plan.num_frozen <= 3
        assert any("cost model" in note for note in plan.notes)

    def test_plan_is_inspectable_and_reusable(self, ba10_hamiltonian):
        plan = plan_freeze(ba10_hamiltonian, budget=ExecutionBudget(max_circuits=1))
        result = FrozenQubitsSolver(plan=plan, config=FAST, seed=0).solve(
            ba10_hamiltonian
        )
        assert result.plan is plan
        assert result.num_circuits_executed <= 1

    def test_warm_start_disabled_for_single_cell(self):
        h = IsingHamiltonian.from_graph(star_graph(6))
        plan = FreezePlanner(warm_start=True).plan(
            h, budget=ExecutionBudget(max_circuits=1)
        )
        solver = FrozenQubitsSolver(plan=plan, config=FAST, seed=1)
        prepared = solver.prepare_jobs(h)
        assert all(job.warm_start_from is None for job in prepared.jobs)


class TestRankAssignments:
    def test_ranks_cover_all_cells_and_bound_holds(self, ba10_hamiltonian):
        parts = partition_problem(
            ba10_hamiltonian, [0, 1, 2], prune_symmetric=False
        )
        ranks = rank_assignments(parts, seed=7)
        assert sorted(r.index for r in ranks) == list(range(8))
        for rank in ranks:
            assert rank.lower_bound <= rank.probe_value + 1e-9
        # Best-first: probe values ascend.
        probes = [r.probe_value for r in ranks]
        assert probes == sorted(probes)

    def test_deterministic_by_seed(self, ba10_hamiltonian):
        parts = partition_problem(ba10_hamiltonian, [0, 1])
        a = rank_assignments(executed_subproblems(parts), seed=9)
        b = rank_assignments(executed_subproblems(parts), seed=9)
        assert a == b

    def test_lower_bound_is_a_true_bound(self, ba10_hamiltonian):
        parts = partition_problem(ba10_hamiltonian, [0])
        for sp in parts:
            exact = brute_force_minimum(sp.hamiltonian).value
            assert offset_lower_bound(sp) <= exact + 1e-9


class TestKneeUnderBudget:
    def test_budget_stops_walk(self):
        curve = tradeoff_curve([100.0, 60.0, 30.0, 10.0])
        assert knee_under_budget(curve, threshold=0.05) == 3
        assert knee_under_budget(curve, max_cost=2, threshold=0.05) == 1
        assert knee_under_budget(curve, max_cost=4, threshold=0.05) == 2

    def test_plateau_stops_walk_sequentially(self):
        # m=1 gains nothing; the big m=2 gain must NOT be reachable.
        curve = tradeoff_curve([100.0, 99.9, 10.0])
        assert knee_under_budget(curve, threshold=0.05) == 0

    def test_validation(self):
        curve = tradeoff_curve([1.0, 0.5])
        with pytest.raises(ReproError):
            knee_under_budget(curve, max_cost=0)
        with pytest.raises(ReproError):
            knee_under_budget(curve, threshold=-0.1)


class TestBudgetedSolve:
    """Budget pruning beyond symmetry: top-k execution, classical fallback,
    and a decoded result that still partitions the full space at m >= 3."""

    def _assert_full_partition(self, result, hamiltonian, m):
        assert len(result.outcomes) == 2**m
        seen = set()
        for outcome in result.outcomes:
            sp = outcome.subproblem
            seen.add(sp.assignment)
            # Decode round-trip: the frozen qubits of every best assignment
            # carry exactly the cell's substituted values.
            for qubit, value in zip(sp.spec.frozen_qubits, sp.assignment):
                assert outcome.best_spins[qubit] == value
            assert hamiltonian.evaluate(outcome.best_spins) == pytest.approx(
                outcome.best_value
            )
        assert len(seen) == 2**m  # every assignment covered exactly once

    def test_budgeted_m3_unpruned_fanout(self, ba10_hamiltonian):
        solver = FrozenQubitsSolver(
            num_frozen=3,
            prune_symmetric=False,
            config=FAST,
            seed=13,
            budget=ExecutionBudget(max_circuits=3),
        )
        result = solver.solve(ba10_hamiltonian)
        assert result.num_circuits_executed == 3
        assert len(result.skipped_assignments) == 5
        self._assert_full_partition(result, ba10_hamiltonian, 3)
        sources = {o.source for o in result.outcomes}
        assert sources == {"quantum", "classical"}
        # Skipped cells are reported and are exactly the classical ones.
        classical = {
            o.subproblem.index
            for o in result.outcomes
            if o.source == "classical"
        }
        assert classical == set(result.skipped_assignments)
        # Expectations come from the quantum cells only, and stay finite.
        assert np.isfinite(result.ev_ideal) and np.isfinite(result.ev_noisy)
        # The classical fallback still recovers the global optimum on a
        # problem this small.
        exact = brute_force_minimum(ba10_hamiltonian).value
        assert result.best_value == pytest.approx(exact)

    def test_budgeted_m3_mixed_with_mirrors(self, ba10_hamiltonian):
        """Symmetric parent at m=3: 4 executed cells, budget 2 => quantum,
        classical, AND mirror outcomes coexist; mirrors of classical twins
        decode correctly."""
        solver = FrozenQubitsSolver(
            num_frozen=3,
            config=FAST,
            seed=14,
            budget=ExecutionBudget(max_circuits=2),
        )
        result = solver.solve(ba10_hamiltonian)
        assert result.num_circuits_executed == 2
        assert len(result.skipped_assignments) == 2
        self._assert_full_partition(result, ba10_hamiltonian, 3)
        by_source = {
            source: [o for o in result.outcomes if o.source == source]
            for source in ("quantum", "classical", "mirror")
        }
        assert len(by_source["quantum"]) == 2
        assert len(by_source["classical"]) == 2
        assert len(by_source["mirror"]) == 4
        # A mirror of a classical cell inherits NaN expectations; a mirror
        # of a quantum cell inherits real ones.
        for mirror in by_source["mirror"]:
            twin = result.outcomes[mirror.subproblem.mirror_of]
            assert mirror.best_value == pytest.approx(
                result.hamiltonian.evaluate(
                    tuple(-s for s in twin.best_spins)
                )
            )
            assert np.isnan(mirror.ev_ideal) == np.isnan(twin.ev_ideal)

    def test_budget_of_one_keeps_best_ranked_cell(self, ba10_hamiltonian):
        solver = FrozenQubitsSolver(
            num_frozen=2,
            prune_symmetric=False,
            config=FAST,
            seed=15,
            budget=ExecutionBudget(max_circuits=1),
        )
        result = solver.solve(ba10_hamiltonian)
        assert result.num_circuits_executed == 1
        assert len(result.skipped_assignments) == 3
        assert sum(1 for o in result.outcomes if o.source == "quantum") == 1

    def test_decoded_counts_respect_frozen_bits_under_budget(
        self, ba10_hamiltonian
    ):
        solver = FrozenQubitsSolver(
            num_frozen=3,
            prune_symmetric=False,
            config=FAST,
            seed=16,
            budget=ExecutionBudget(max_circuits=4),
        )
        result = solver.solve(ba10_hamiltonian, device=get_backend("montreal"))
        n = ba10_hamiltonian.num_qubits
        sampled = 0
        for outcome in result.outcomes:
            if outcome.decoded_counts is None:
                continue  # classical fallbacks sample nothing
            sampled += 1
            sp = outcome.subproblem
            for key in outcome.decoded_counts:
                spins = bits_to_spins(int_to_bits(key, n))
                for qubit, value in zip(sp.spec.frozen_qubits, sp.assignment):
                    assert spins[qubit] == value
        assert sampled == 4

    def test_unbudgeted_solve_unchanged(self, ba10_hamiltonian):
        """No plan/budget/warm start => byte-for-byte the legacy behaviour."""
        legacy = FrozenQubitsSolver(num_frozen=2, config=FAST, seed=17)
        result = legacy.solve(ba10_hamiltonian)
        assert result.skipped_assignments == ()
        assert result.plan is None
        assert result.num_warm_started == 0
        assert all(o.source in ("quantum", "mirror") for o in result.outcomes)


class TestWarmStarts:
    def test_fewer_evaluations_same_answer(self, ba10_hamiltonian):
        cold = FrozenQubitsSolver(
            num_frozen=3, prune_symmetric=False, config=FAST, seed=19
        ).solve(ba10_hamiltonian)
        warm = FrozenQubitsSolver(
            num_frozen=3,
            prune_symmetric=False,
            config=FAST,
            seed=19,
            warm_start=True,
        ).solve(ba10_hamiltonian)
        # Every non-representative sibling accepted the transfer, fell
        # back, or adopted its landscape-class trainer's parameters.
        assert (
            warm.num_warm_started
            + warm.num_warm_start_rejected
            + warm.num_deduplicated
        ) == 7
        assert warm.num_warm_started + warm.num_warm_start_rejected >= 1
        assert warm.num_optimizer_evaluations < cold.num_optimizer_evaluations
        assert warm.best_value == pytest.approx(cold.best_value)

    def test_explicit_false_overrides_plan(self, ba10_hamiltonian):
        """warm_start=False must win over a plan that enables warm starts
        (only None defers to the plan)."""
        plan = FreezePlan(
            num_frozen=2,
            hotspots=(0, 1),
            warm_start=True,
            prune_symmetric=False,
        )
        solver = FrozenQubitsSolver(
            plan=plan, config=FAST, seed=18, warm_start=False
        )
        prepared = solver.prepare_jobs(ba10_hamiltonian)
        assert not prepared.warm_start
        assert all(job.warm_start_from is None for job in prepared.jobs)

    def test_jobs_carry_metadata_and_representative_leads(
        self, ba10_hamiltonian
    ):
        solver = FrozenQubitsSolver(
            num_frozen=2,
            prune_symmetric=False,
            config=FAST,
            seed=20,
            warm_start=True,
        )
        prepared = solver.prepare_jobs(ba10_hamiltonian)
        assert prepared.warm_start
        representative = prepared.jobs[0]
        assert representative.warm_start_from is None
        assert representative.params_from is None
        # Class trainers warm-start from the representative; the other
        # members adopt their class trainer's parameters instead.
        trainers = [job for job in prepared.jobs[1:] if job.params_from is None]
        assert trainers
        for job in prepared.jobs[1:]:
            if job.params_from is None:
                assert job.warm_start_from == representative.job_id
            else:
                assert job.warm_start_from is None

    def test_serial_process_equivalence_with_warm_start(
        self, ba10_hamiltonian
    ):
        solver_kwargs = dict(
            num_frozen=2,
            prune_symmetric=False,
            config=FAST,
            seed=21,
            warm_start=True,
        )
        serial = FrozenQubitsSolver(**solver_kwargs).solve(
            ba10_hamiltonian, backend=SerialBackend()
        )
        pooled = FrozenQubitsSolver(**solver_kwargs).solve(
            ba10_hamiltonian, backend=ProcessPoolBackend(max_workers=2)
        )
        assert serial.best_spins == pooled.best_spins
        assert serial.best_value == pooled.best_value
        assert serial.ev_noisy == pooled.ev_noisy
        assert (
            serial.num_optimizer_evaluations == pooled.num_optimizer_evaluations
        )


class TestOptimizerInitialPoint:
    def _quadratic_objective(self, optimum):
        """``(evaluate_batch, value_and_grad)`` of a bowl whose minimum,
        -1, sits at ``optimum``."""
        target = np.asarray(optimum, dtype=float)

        def evaluate_batch(gammas, betas):
            points = np.column_stack([gammas[:, 0], betas[:, 0]])
            return np.sum((points - target) ** 2, axis=1) - 1.0

        def value_and_grad(gammas, betas):
            delta = np.array([gammas[0], betas[0]]) - target
            return float(delta @ delta) - 1.0, 2.0 * delta

        return evaluate_batch, value_and_grad

    def test_accepted_transfer_skips_seeding_scan(self):
        result = optimize_qaoa(
            *self._quadratic_objective((0.3, 0.2)),
            grid_resolution=12,
            maxiter=40,
            initial_point=((0.29,), (0.21,)),
        )
        assert result.warm_started and not result.warm_start_rejected
        # 2 probe evaluations + L-BFGS-B, far below the 144-point scan.
        assert result.num_evaluations < 100
        assert result.gammas[0] == pytest.approx(0.3, abs=1e-2)

    def test_bad_transfer_falls_back_to_fresh_start(self):
        # Optimum at the origin => the null point is already optimal and
        # any transferred point evaluates worse: fallback must trigger.
        result = optimize_qaoa(
            *self._quadratic_objective((0.0, 0.0)),
            grid_resolution=6,
            maxiter=40,
            initial_point=((1.5,), (0.7,)),
        )
        assert result.warm_start_rejected and not result.warm_started
        assert result.value == pytest.approx(-1.0, abs=1e-3)

    def test_wrong_arity_rejected(self):
        with pytest.raises(QAOAError):
            optimize_qaoa(
                *self._quadratic_objective((0.0, 0.0)),
                num_layers=1,
                initial_point=((0.1, 0.2), (0.3, 0.4)),
            )

    def test_no_initial_point_identical_to_legacy(self):
        objectives = self._quadratic_objective((0.3, -0.1))
        a = optimize_qaoa(*objectives, grid_resolution=8, maxiter=30)
        b = optimize_qaoa(*objectives, grid_resolution=8, maxiter=30)
        assert a.gammas == b.gammas and a.num_evaluations == b.num_evaluations
        assert not a.warm_started and not a.warm_start_rejected


class TestSolveManyPlanning:
    def test_budget_and_warm_start_passthrough(self):
        # Attachment 2: the two budgeted cells fall into different
        # landscape classes, so the second one warm-starts from the first
        # instead of adopting its parameters.
        graph = barabasi_albert_graph(10, attachment=2, seed=5)
        hamiltonian = IsingHamiltonian.from_graph(
            graph, weights="random_pm1", seed=6
        )
        results = solve_many(
            [hamiltonian, hamiltonian],
            num_frozen=3,
            prune_symmetric=False,
            config=FAST,
            seed=23,
            budget=ExecutionBudget(max_circuits=2),
            warm_start=True,
        )
        for result in results:
            assert result.num_circuits_executed == 2
            assert len(result.skipped_assignments) == 6
            assert result.num_deduplicated == 0
            assert result.num_warm_started + result.num_warm_start_rejected == 1

    def test_per_problem_plans(self, ba10_hamiltonian):
        plans = [
            plan_freeze(ba10_hamiltonian, budget=ExecutionBudget(max_circuits=1)),
            None,
        ]
        results = solve_many(
            [ba10_hamiltonian, ba10_hamiltonian],
            num_frozen=1,
            config=FAST,
            seed=24,
            plans=plans,
        )
        assert results[0].plan is plans[0]
        assert results[1].plan is None

    def test_plan_count_mismatch_rejected(self, ba10_hamiltonian):
        with pytest.raises(SolverError):
            solve_many(
                [ba10_hamiltonian],
                plans=[None, None],
                config=FAST,
                seed=25,
            )


class TestSessionDefaults:
    def test_defaults_flow_into_solver(self, ba10_hamiltonian):
        set_default_planning(
            PlanningDefaults(
                budget=ExecutionBudget(max_circuits=1), warm_start=True
            )
        )
        try:
            result = FrozenQubitsSolver(
                num_frozen=2, prune_symmetric=False, config=FAST, seed=26
            ).solve(ba10_hamiltonian)
        finally:
            set_default_planning(None)
        assert result.num_circuits_executed == 1
        assert len(result.skipped_assignments) == 3

    def test_adaptive_default_builds_a_plan(self, ba10_hamiltonian):
        set_default_planning(PlanningDefaults(adaptive=True))
        try:
            result = FrozenQubitsSolver(config=FAST, seed=27).solve(
                ba10_hamiltonian
            )
        finally:
            set_default_planning(None)
        assert result.plan is not None
        assert result.frozen_qubits == list(result.plan.hotspots)

    def test_explicit_args_beat_defaults(self, ba10_hamiltonian):
        set_default_planning(
            PlanningDefaults(budget=ExecutionBudget(max_circuits=1))
        )
        try:
            result = FrozenQubitsSolver(
                num_frozen=2,
                prune_symmetric=False,
                config=FAST,
                seed=28,
                budget=ExecutionBudget(max_circuits=2),
            ).solve(ba10_hamiltonian)
        finally:
            set_default_planning(None)
        assert result.num_circuits_executed == 2


class TestDeviceRegistryThreadSafety:
    def test_concurrent_lookups_converge_on_one_instance(self):
        _build_backend.cache_clear()
        devices = [None] * 16
        barrier = threading.Barrier(8)

        def lookup(slot):
            barrier.wait()
            devices[slot] = get_backend("toronto")
            devices[slot + 8] = get_backend("ibm_toronto")

        threads = [
            threading.Thread(target=lookup, args=(slot,)) for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(device is not None for device in devices)
        # Steady state: one canonical cached instance for both spellings.
        canonical = get_backend("toronto")
        assert get_backend("ibm_toronto") is canonical


class TestBaselineUnaffected:
    def test_plain_qaoa_ignores_planning_defaults(self, ba10_hamiltonian):
        """m=0 baselines run through run_qaoa_instance and must not pick
        up session planning state."""
        set_default_planning(PlanningDefaults(adaptive=True, warm_start=True))
        try:
            run = run_qaoa_instance(ba10_hamiltonian, config=FAST, seed=29)
        finally:
            set_default_planning(None)
        assert not run.optimization.warm_started
