"""Batch orchestration: solve many problems through one backend submission.

The paper-scale studies run thousands of instances (Sec. 4.1: 5,300
circuits); iterating ``solver.solve`` one problem at a time leaves every
backend's fan-out capacity on the table. :func:`solve_many` prepares all
problems up front, submits the *union* of their sub-problem jobs in a
single backend call — so a process pool sees one long queue instead of
``2**m``-sized bursts — and then finalizes each problem from its slice of
the results.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.solver import FrozenQubitsResult, FrozenQubitsSolver, SolverConfig
from repro.devices.device import Device
from repro.exceptions import SolverError
from repro.ising.hamiltonian import IsingHamiltonian
from repro.utils.rng import spawn_seeds

if TYPE_CHECKING:
    from repro.backend.base import ExecutionBackend, ExecutionControl
    from repro.cache.store import SolveCache
    from repro.planning.budget import ExecutionBudget
    from repro.planning.planner import FreezePlan


def _as_hamiltonian(problem) -> IsingHamiltonian:
    """Accept plain Hamiltonians or workload-style wrappers."""
    if isinstance(problem, IsingHamiltonian):
        return problem
    hamiltonian = getattr(problem, "hamiltonian", None)
    if isinstance(hamiltonian, IsingHamiltonian):
        return hamiltonian
    raise SolverError(
        f"expected an IsingHamiltonian or an object with a .hamiltonian "
        f"attribute, got {problem!r}"
    )


def solve_many(
    problems: Sequence,
    num_frozen: int = 1,
    device: "Device | None" = None,
    backend: "ExecutionBackend | str | None" = None,
    hotspot_policy: str = "degree",
    prune_symmetric: bool = True,
    config: "SolverConfig | None" = None,
    seed: "int | np.random.Generator | None" = None,
    seeds: "Sequence[int] | None" = None,
    budget: "ExecutionBudget | None" = None,
    plans: "FreezePlan | Sequence[FreezePlan | None] | None" = None,
    warm_start: "bool | None" = None,
    cache: "SolveCache | bool | None" = None,
    control: "ExecutionControl | None" = None,
) -> list[FrozenQubitsResult]:
    """Solve a batch of problems with one backend submission.

    Every problem gets its own deterministic child seed (spawned from
    ``seed`` unless ``seeds`` pins them explicitly), so the output is
    reproducible and backend-independent: the same seed produces the same
    ``FrozenQubitsResult`` list whether the jobs ran serially or across a
    process pool.

    Args:
        problems: Ising Hamiltonians — or workload-style objects exposing a
            ``.hamiltonian`` attribute (e.g.
            :class:`repro.experiments.workloads.WorkloadInstance`).
        num_frozen: Qubits to freeze per problem, m (ignored for problems
            that have an explicit plan).
        device: Optional device model shared by the batch.
        backend: Execution backend (instance, registry name, or ``None``
            for the session default).
        hotspot_policy: Hotspot selection policy.
        prune_symmetric: Apply the Sec. 3.7.2 pruning theorem.
        config: Shared runner knobs.
        seed: Parent seed for the whole batch.
        seeds: Explicit per-problem seeds (overrides ``seed`` spawning;
            must match ``len(problems)``).
        budget: Execution budget applied to every problem's fan-out.
        plans: A single :class:`~repro.planning.FreezePlan` shared by all
            problems, or one per problem (``None`` entries fall back to
            ``num_frozen``); plans pin hotspots, so a shared plan only
            makes sense for structurally identical problems.
        warm_start: Cross-sibling warm starts for every problem (``None``
            defers to plans / session defaults).
        cache: Solve cache shared by the whole batch (see
            :class:`repro.core.solver.FrozenQubitsSolver`). Cross-problem
            reuse happens naturally: identical instances in the batch
            transpile and train once. Each result's ``cache_stats``
            carries the *batch-wide* counter delta.
        control: Optional :class:`~repro.backend.ExecutionControl` whose
            deadline/cancel signal and per-job progress callback cover
            the whole batch submission (checked between jobs only).

    Returns:
        One :class:`FrozenQubitsResult` per problem, in input order.
    """
    from repro.backend import resolve_backend
    from repro.cache import resolve_cache

    solve_cache = resolve_cache(cache)
    stats_before = (
        solve_cache.stats_snapshot() if solve_cache is not None else None
    )
    hamiltonians = [_as_hamiltonian(problem) for problem in problems]
    if seeds is None:
        seeds = spawn_seeds(seed, len(hamiltonians))
    elif len(seeds) != len(hamiltonians):
        raise SolverError(
            f"got {len(seeds)} seeds for {len(hamiltonians)} problems"
        )
    if plans is None or _is_single_plan(plans):
        plans = [plans] * len(hamiltonians)
    elif len(plans) != len(hamiltonians):
        raise SolverError(
            f"got {len(plans)} plans for {len(hamiltonians)} problems"
        )

    prepared = []
    all_jobs = []
    for index, (hamiltonian, problem_seed, problem_plan) in enumerate(
        zip(hamiltonians, seeds, plans)
    ):
        solver = FrozenQubitsSolver(
            num_frozen=num_frozen,
            hotspot_policy=hotspot_policy,
            prune_symmetric=prune_symmetric,
            config=config,
            seed=problem_seed,
            plan=problem_plan,
            budget=budget,
            warm_start=warm_start,
            cache=solve_cache if solve_cache is not None else False,
        )
        plan = solver.prepare_jobs(hamiltonian, device, job_prefix=f"p{index}/")
        prepared.append((solver, plan))
        all_jobs.extend(plan.jobs)

    # Cross-problem dedup: prepare_jobs shares training within one
    # problem, but a batch may repeat instances (sweep trials), and the
    # trained-parameter key is seed-independent — so link later class
    # trainers to the first trainer of the same key across the whole
    # submission. The adopting jobs skip optimization and still sample on
    # their own streams (p=1 training is deterministic, so this changes
    # no result bit).
    if solve_cache is not None:
        trainer_by_key: dict[str, str] = {}
        for _, plan in prepared:
            for job in plan.jobs:
                key = plan.params_keys.get(job.job_id)
                if (
                    key is None
                    or job.params is not None
                    or job.params_from is not None
                ):
                    continue
                trainer = trainer_by_key.get(key)
                if trainer is None:
                    trainer_by_key[key] = job.job_id
                else:
                    job.params_from = trainer
                    job.warm_start_from = None

    all_results = resolve_backend(backend).run(all_jobs, control)

    results = []
    cursor = 0
    for solver, plan in prepared:
        count = len(plan.jobs)
        results.append(solver.finalize(plan, all_results[cursor : cursor + count]))
        cursor += count
    if solve_cache is not None:
        from repro.cache.store import stats_delta

        batch_stats = stats_delta(stats_before, solve_cache.stats_snapshot())
        for result in results:
            result.cache_stats = batch_stats
    return results


def _is_single_plan(plans) -> bool:
    """Distinguish one shared plan from a per-problem sequence."""
    from repro.planning.planner import FreezePlan

    return isinstance(plans, FreezePlan)
