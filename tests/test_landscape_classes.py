"""Landscape classes: siblings equal up to per-component spin flips.

Flipping every spin of one connected component negates that component's
fields and keeps every coupling, so the QAOA expectation is unchanged at
every ``(gamma, beta)`` and depth (Sec. 3.7.2, per component).
:func:`repro.ising.landscape_class_key` names these classes, and the
solver trains once per class: the first executed cell of each class
trains, the other members adopt its parameters (``params_from``) and
sample on their own seed streams.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.backend import FaultPolicy, ProcessPoolBackend, SerialBackend
from repro.cache import SolveCache
from repro.core import FrozenQubitsSolver, SolverConfig
from repro.devices import get_backend
from repro.faults import FaultInjection
from repro.graphs.generators import barabasi_albert_graph
from repro.ising import (
    IsingHamiltonian,
    connected_components,
    landscape_class_key,
)
from repro.planning import FreezePlan
from repro.qaoa import evaluate_ideal, make_context

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


def test_failed_trainer_leaves_its_adopters_to_train_fresh(tree):
    prepared = _solver(num_frozen=3).prepare_jobs(tree)
    adopters = [job.job_id for job in prepared.jobs if job.params_from == "sp0"]
    assert adopters
    faulty = replace(P2, fault_injection=FaultInjection(fail_jobs={"sp0": None}))
    result = _solver(config=faulty, num_frozen=3).solve(
        tree, backend=SerialBackend(fault_policy=FaultPolicy(max_retries=0))
    )
    assert result.num_failed_jobs == 1
    by_id = {
        f"sp{outcome.subproblem.index}": outcome for outcome in result.outcomes
    }
    assert by_id["sp0"].source == "failed"
    for job_id in adopters:
        assert by_id[job_id].source == "quantum"
        assert by_id[job_id].run.optimization.num_gradient_evaluations > 0
