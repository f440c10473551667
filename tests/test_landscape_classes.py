"""Landscape classes: siblings equal up to per-component spin flips.

Flipping every spin of one connected component negates that component's
fields and keeps every coupling, so the QAOA expectation is unchanged at
every ``(gamma, beta)`` and depth (Sec. 3.7.2, per component), and the
ideal distribution is permuted by the flips.
:func:`repro.ising.landscape_class` names these classes, and the solver
trains and simulates once per class: the first executed cell of each
class trains, the other members adopt its parameters (``params_from``),
and every member samples the class frame's distribution permuted by its
``frame_mask`` on its own seed stream.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import repro.core.solver as solver_module
from repro.backend import FaultPolicy, ProcessPoolBackend, SerialBackend
from repro.backend.base import dependency_levels
from repro.cache import SolveCache
from repro.core import FrozenQubitsSolver, SolverConfig
from repro.devices import get_backend
from repro.faults import FaultInjection
from repro.graphs.generators import barabasi_albert_graph
from repro.ising import (
    IsingHamiltonian,
    connected_components,
    landscape_class,
    landscape_class_key,
    landscape_frame,
)
from repro.planning import FreezePlan
from repro.qaoa import evaluate_ideal, make_context
from repro.sim import qaoa_probabilities

from tests.test_determinism import result_signature

P2 = SolverConfig(num_layers=2, grid_resolution=4, maxiter=10, shots=256)


# ----------------------------------------------------------------------
# The key
# ----------------------------------------------------------------------
def _random_instance(rng: np.random.Generator, family: str) -> IsingHamiltonian:
    """A small random instance: a forest or a denser graph, random fields.

    Fields mix nonzero values with ``0.0`` and ``-0.0``; ``h-only`` drops
    every coupling (all qubits isolated) and ``J-only`` zeroes every field.
    """
    n = int(rng.integers(3, 9))
    quadratic: dict = {}
    if family in ("forest", "J-only"):
        # Each node attaches to an earlier one or starts a new tree, so
        # forests carry isolated qubits and several components.
        for node in range(1, n):
            if rng.random() < 0.7:
                parent = int(rng.integers(0, node))
                quadratic[(parent, node)] = float(rng.choice((-1.0, 1.0)))
    elif family == "dense":
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.45:
                    quadratic[(i, j)] = float(rng.normal())
    fields = rng.choice((-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0), size=n)
    if family == "J-only":
        fields = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    return IsingHamiltonian(
        n, linear=fields.tolist(), quadratic=quadratic, offset=float(rng.normal())
    )


def _negate_fields(hamiltonian: IsingHamiltonian, qubits) -> IsingHamiltonian:
    """Same couplings and offset, fields negated on ``qubits``."""
    fields = hamiltonian.linear
    fields[list(qubits)] *= -1.0
    return IsingHamiltonian(
        hamiltonian.num_qubits,
        linear=fields.tolist(),
        quadratic=hamiltonian.quadratic,
        offset=hamiltonian.offset,
    )


def _no_negative_zero(key: tuple) -> bool:
    return all(
        math.copysign(1.0, value) > 0
        for component in key
        for value in component
        if value == 0.0
    )


@pytest.mark.parametrize("family", ["forest", "dense", "h-only", "J-only"])
def test_component_flips_share_key_and_landscape(family):
    rng = np.random.default_rng({"forest": 1, "dense": 2, "h-only": 3,
                                 "J-only": 4}[family])
    for _ in range(12):
        hamiltonian = _random_instance(rng, family)
        components = connected_components(hamiltonian)
        if family == "h-only":
            assert len(components) == hamiltonian.num_qubits
        flipped_components = [
            members for members in components if rng.random() < 0.5
        ]
        flipped = _negate_fields(
            hamiltonian, [q for members in flipped_components for q in members]
        )
        key = landscape_class_key(hamiltonian)
        assert landscape_class_key(flipped) == key
        # The canonical form is one exact value: no -0.0 survives, so even
        # a byte-level comparison of the two keys agrees.
        assert repr(landscape_class_key(flipped)) == repr(key)
        assert _no_negative_zero(key)
        for num_layers in (1, 2, 3):
            gammas = rng.uniform(-math.pi, math.pi, num_layers)
            betas = rng.uniform(-math.pi, math.pi, num_layers)
            original = evaluate_ideal(
                make_context(hamiltonian, num_layers=num_layers), gammas, betas
            )
            mirrored = evaluate_ideal(
                make_context(flipped, num_layers=num_layers), gammas, betas
            )
            assert abs(original - mirrored) <= 1e-12


@pytest.mark.parametrize("family", ["forest", "dense"])
def test_flipping_part_of_a_component_changes_the_key(family):
    rng = np.random.default_rng({"forest": 5, "dense": 6}[family])
    checked = 0
    for _ in range(40):
        hamiltonian = _random_instance(rng, family)
        fields = hamiltonian.linear
        for members in connected_components(hamiltonian):
            charged = [q for q in members if fields[q] != 0.0]
            if len(charged) < 2:
                continue
            # Negate a proper part holding one charged qubit but not
            # another: the result is neither the component nor its mirror.
            part = [q for q in members if q != charged[1]]
            partial = _negate_fields(hamiltonian, part)
            assert landscape_class_key(partial) != landscape_class_key(
                hamiltonian
            )
            checked += 1
    assert checked >= 10


def test_signed_zero_fields_share_one_key():
    couplings = {(0, 1): 1.0, (2, 3): -1.0}
    positive = IsingHamiltonian(5, linear=[0.0, 1.0, 0.0, 0.0, 0.0],
                                quadratic=couplings)
    negative = IsingHamiltonian(5, linear=[-0.0, -1.0, -0.0, -0.0, -0.0],
                                quadratic=couplings)
    assert landscape_class_key(positive) == landscape_class_key(negative)
    assert repr(landscape_class_key(positive)) == repr(
        landscape_class_key(negative)
    )
    assert _no_negative_zero(landscape_class_key(negative))
    # Without flips only exactly equal fields match, still up to -0.0.
    assert landscape_class_key(positive, flips=False) != landscape_class_key(
        negative, flips=False
    )
    zeros = IsingHamiltonian(2, linear=[-0.0, 0.0], quadratic={(0, 1): 1.0})
    plain = IsingHamiltonian(2, quadratic={(0, 1): 1.0})
    assert repr(landscape_class_key(zeros, flips=False)) == repr(
        landscape_class_key(plain, flips=False)
    )


@pytest.mark.parametrize("family", ["forest", "dense", "h-only", "J-only"])
def test_class_masks_map_members_onto_one_frame(family):
    rng = np.random.default_rng({"forest": 7, "dense": 8, "h-only": 9,
                                 "J-only": 10}[family])
    for _ in range(8):
        hamiltonian = _random_instance(rng, family)
        flipped = _negate_fields(hamiltonian, [
            q
            for members in connected_components(hamiltonian)
            if rng.random() < 0.5
            for q in members
        ])
        flipped = flipped.with_offset(float(rng.normal()))
        key, mask = landscape_class(hamiltonian)
        flipped_key, flipped_mask = landscape_class(flipped)
        assert key == flipped_key == landscape_class_key(hamiltonian)
        relative = mask ^ flipped_mask
        frame = landscape_frame(hamiltonian, 0)
        # The member rebuilds the trainer's frame to the bit: one frame
        # distribution serves the class.
        assert (landscape_frame(flipped, relative).content_text()
                == frame.content_text())
        assert frame.offset == 0.0
        index = np.arange(1 << hamiltonian.num_qubits)
        for num_layers in (1, 2):
            gammas = rng.uniform(-math.pi, math.pi, num_layers)
            betas = rng.uniform(-math.pi, math.pi, num_layers)
            frame_probs = qaoa_probabilities(frame, gammas, betas)
            own = qaoa_probabilities(flipped, gammas, betas)
            assert np.max(np.abs(frame_probs[index ^ relative] - own)) <= 1e-12


# ----------------------------------------------------------------------
# The solver
# ----------------------------------------------------------------------
@pytest.fixture
def tree() -> IsingHamiltonian:
    graph = barabasi_albert_graph(10, attachment=1, seed=5)
    return IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=6)


def _solver(config=P2, num_frozen=4, cache=False, seed=11):
    return FrozenQubitsSolver(
        num_frozen=num_frozen,
        prune_symmetric=False,
        config=config,
        seed=seed,
        cache=cache,
        warm_start=False,
    )


def _classes(prepared, flips=True) -> int:
    return len({
        landscape_class_key(sp.hamiltonian, flips=flips)
        for sp in prepared.executed
    })


def test_fan_out_trains_once_per_class(tree):
    solver = _solver()
    prepared = solver.prepare_jobs(tree)
    classes = _classes(prepared)
    assert 1 <= classes < 16
    result = solver.solve(tree)
    assert result.num_circuits_executed == 16
    assert result.num_deduplicated == 16 - classes
    # Training every sibling on its own costs more gradient passes.
    unshared = SerialBackend().run(
        [replace(job, params_from=None) for job in prepared.jobs]
    )
    assert sum(
        r.run.optimization.num_gradient_evaluations for r in unshared
    ) > result.num_gradient_evaluations
    # Adopters ran no optimizer, and every class member lands on its
    # trainer's expectation (up to the cell's constant offset).
    trainers = {job.job_id for job in prepared.jobs if job.params_from is None}
    by_id = {
        f"sp{outcome.subproblem.index}": outcome for outcome in result.outcomes
    }
    for job in prepared.jobs:
        if job.params_from is None:
            continue
        adopter, trainer = by_id[job.job_id], by_id[job.params_from]
        assert job.params_from in trainers
        assert adopter.run.optimization.num_gradient_evaluations == 0
        assert (adopter.run.optimization.gammas, adopter.run.optimization.betas) == (
            trainer.run.optimization.gammas, trainer.run.optimization.betas
        )
        shift = (
            adopter.subproblem.hamiltonian.offset
            - trainer.subproblem.hamiltonian.offset
        )
        assert abs(adopter.ev_ideal - trainer.ev_ideal - shift) <= 1e-9


def test_noisy_training_groups_only_identical_fields():
    # Qubit 0 is uncoupled, so its two frozen values give identical cells;
    # qubit 1's two values give cells whose fields differ by a sign on
    # every component — one class, but only for the ideal objective.
    problem = IsingHamiltonian(
        6,
        linear={0: 0.5},
        quadratic={(1, 2): 1.0, (1, 3): -1.0, (1, 4): 1.0, (4, 5): -1.0},
    )
    plan = FreezePlan(num_frozen=2, hotspots=(0, 1), prune_symmetric=False)
    device = get_backend("montreal")
    deduplicated = {}
    for train_noisy in (False, True):
        solver = FrozenQubitsSolver(
            plan=plan, config=replace(P2, train_noisy=train_noisy), seed=3,
            cache=False,
        )
        prepared = solver.prepare_jobs(problem, device)
        for job in prepared.jobs:
            source = next(
                (j for j in prepared.jobs if j.job_id == job.params_from), None
            )
            if train_noisy and source is not None:
                assert np.array_equal(
                    job.hamiltonian.linear, source.hamiltonian.linear
                )
        result = solver.solve(problem, device)
        assert result.num_deduplicated == 4 - _classes(
            prepared, flips=not train_noisy
        )
        deduplicated[train_noisy] = result.num_deduplicated
    assert deduplicated == {False: 3, True: 2}


def test_adoption_is_bit_identical_across_backends_and_cache_modes(tree):
    device = get_backend("montreal")

    def run(backend, cache):
        return _solver(num_frozen=3, cache=cache).solve(
            tree, device, backend=backend
        )

    reference = run(SerialBackend(), False)
    assert reference.num_deduplicated > 0
    expected = result_signature(reference)
    cache = SolveCache()
    for backend, mode in (
        (ProcessPoolBackend(max_workers=2), False),
        (SerialBackend(), cache),  # cold
        (SerialBackend(), cache),  # warm
    ):
        result = run(backend, mode)
        assert result.num_deduplicated == reference.num_deduplicated
        assert result_signature(result) == expected


@pytest.fixture
def simulations(monkeypatch) -> list:
    """The solver's in-process ideal-distribution simulations, one entry
    (the simulated Hamiltonian) per call."""
    calls = []
    original = solver_module.qaoa_probabilities

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(solver_module, "qaoa_probabilities", counting)
    return calls


def test_failed_trainer_leaves_its_adopters_to_train_fresh(tree, simulations):
    prepared = _solver(num_frozen=3).prepare_jobs(tree)
    adopters = [job.job_id for job in prepared.jobs if job.params_from == "sp0"]
    assert adopters and prepared.jobs[0].frame_mask == 0
    faulty = replace(P2, fault_injection=FaultInjection(fail_jobs={"sp0": None}))
    policy = FaultPolicy(max_retries=0)
    results = {}
    for name, backend in (
        ("process", ProcessPoolBackend(max_workers=2, fault_policy=policy)),
        ("serial", SerialBackend(fault_policy=policy)),
    ):
        simulations.clear()
        results[name] = _solver(config=faulty, num_frozen=3).solve(
            tree, backend=backend
        )
    result = results["serial"]
    assert result_signature(result) == result_signature(results["process"])
    assert result.num_failed_jobs == 1
    by_id = {
        f"sp{outcome.subproblem.index}": outcome for outcome in result.outcomes
    }
    assert by_id["sp0"].source == "failed"
    for job_id in adopters:
        assert by_id[job_id].source == "quantum"
        assert by_id[job_id].run.optimization.num_gradient_evaluations > 0
    # The failed trainer never simulates; each of its adopters trains and
    # simulates on its own, and the other classes still simulate once.
    assert len(simulations) == _classes(prepared) - 1 + len(adopters)


# ----------------------------------------------------------------------
# Sampling once per class
# ----------------------------------------------------------------------
def _components_problem() -> IsingHamiltonian:
    """Freezing qubits 0 and 1 leaves four components: two charged by the
    frozen spins ({2, 3} and {4, 5}), a zero-field one ({6, 7, 8}) and an
    isolated qubit with a fixed negative field (9). The frozen spins' own
    field and coupling give every cell a different nonzero offset; cells
    ``++``/``--`` and ``+-``/``-+`` form two classes of two, the second
    member flipping both charged components."""
    problem = IsingHamiltonian(
        10,
        linear={0: 0.25, 9: -0.7},
        quadratic={
            (0, 1): 0.5, (0, 2): 1.0, (2, 3): -1.0, (0, 4): -1.0,
            (1, 5): 1.0, (4, 5): 1.0, (6, 7): 1.0, (7, 8): -1.0,
        },
        offset=1.5,
    )
    return problem


def _mixed_problem() -> IsingHamiltonian:
    """Qubit 2 sees both frozen spins (0 and 1) and carries a fixed
    neighbour field, so ``++`` and ``--`` are classes of one while ``+-``
    and ``-+`` share a class."""
    return IsingHamiltonian(
        6,
        linear={3: 0.3},
        quadratic={(0, 2): 1.0, (1, 2): 1.0, (2, 3): -1.0, (1, 4): 1.0,
                   (4, 5): 1.0},
    )


FREEZE_0_1 = FreezePlan(num_frozen=2, hotspots=(0, 1), prune_symmetric=False)


def _table_distribution(table) -> np.ndarray:
    """The distribution an outcome table samples: ``p[x ^ mask]``."""
    frame = np.diff(table.cdf, prepend=0.0) / table.total
    return frame[np.arange(frame.size) ^ table.mask]


@pytest.mark.parametrize("num_layers", [1, 2])
def test_members_sample_their_own_distribution_from_the_frame(
    num_layers, tree, monkeypatch
):
    config = replace(P2, num_layers=num_layers)
    problem = _components_problem()
    fan_outs = [
        (FrozenQubitsSolver(plan=FREEZE_0_1, config=config, seed=2,
                            cache=False), problem),
        (FrozenQubitsSolver(plan=FREEZE_0_1, config=config, seed=3,
                            cache=False), _mixed_problem()),
        (_solver(config=config, num_frozen=3), tree),
    ]
    sampled = []
    original = solver_module.sample_counts

    def recording(table, *args, **kwargs):
        sampled.append(table)
        return original(table, *args, **kwargs)

    monkeypatch.setattr(solver_module, "sample_counts", recording)
    members = singletons = 0
    for solver, instance in fan_outs:
        jobs = solver.prepare_jobs(instance).jobs
        by_id = {job.job_id: job for job in jobs}
        if instance is problem:
            fields = jobs[0].hamiltonian.linear
            components = connected_components(jobs[0].hamiltonian)
            assert len(components) == 4
            assert any(not fields[list(c)].any() for c in components)
            assert len({job.hamiltonian.offset for job in jobs}) == 4
            assert all(job.frame_mask is not None for job in jobs)
            assert any(job.frame_mask not in (0, None) for job in jobs)
        sampled.clear()
        results = SerialBackend().run(jobs)
        order = [i for level in dependency_levels(jobs) for i in level]
        assert len(sampled) == len(jobs)
        tables = dict(zip((jobs[i].job_id for i in order), sampled))
        for index, table in zip(order, sampled):
            job, run = jobs[index], results[index].run
            own = qaoa_probabilities(
                job.hamiltonian, run.optimization.gammas, run.optimization.betas
            )
            if job.frame_mask is None:
                # A class of one tabulates its own distribution, bit for bit.
                assert table.mask == 0
                assert np.array_equal(table.cdf, np.cumsum(own))
                singletons += 1
                continue
            members += 1
            trainer = by_id[job.params_from] if job.params_from else job
            assert trainer.frame_mask == 0
            assert (
                landscape_frame(job.hamiltonian, job.frame_mask).content_text()
                == landscape_frame(trainer.hamiltonian, 0).content_text()
            )
            # The member draws from its trainer's frame table, through its
            # own mask, and that reads as its own distribution.
            assert table.cdf is tables[trainer.job_id].cdf
            assert table.mask == job.frame_mask
            assert np.max(np.abs(_table_distribution(table) - own)) <= 1e-12
    assert (members, singletons) == (14, 2)


def test_solve_simulates_once_per_class(tree, simulations):
    config = replace(P2, num_layers=1)
    device = get_backend("montreal")
    for solver, instance, singletons in (
        (FrozenQubitsSolver(plan=FREEZE_0_1, config=config, seed=4,
                            cache=False), _mixed_problem(), 2),
        (_solver(config=config, num_frozen=4), tree, 0),
    ):
        prepared = solver.prepare_jobs(instance, device)
        classes = _classes(prepared)
        assert classes < len(prepared.jobs)
        assert sum(job.frame_mask is None for job in prepared.jobs) == singletons
        # Singletons count as classes of one; nothing is reused across
        # submissions, so an identical second solve simulates as often.
        simulations.clear()
        first = result_signature(solver.solve(instance, device))
        assert len(simulations) == classes
        assert result_signature(solver.solve(instance, device)) == first
        assert len(simulations) == 2 * classes
