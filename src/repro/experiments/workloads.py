"""Benchmark workload suites (paper Sec. 4.1).

The paper's study spans three graph families — BA power-law (d_BA = 1, 2,
3), 3-regular, and SK fully-connected — with random ±1 couplings, zero
linear coefficients, multiple sizes and seeds (5,300 circuits in total
across eight machines). These builders enumerate the same structure at any
scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from repro.exceptions import ReproError
from repro.graphs.generators import (
    barabasi_albert_graph,
    sk_graph,
    three_regular_graph,
)
from repro.graphs.model import ProblemGraph
from repro.ising.hamiltonian import IsingHamiltonian
from repro.utils.rng import spawn_seeds


@dataclass(frozen=True)
class WorkloadInstance:
    """One benchmark circuit-to-be.

    Attributes:
        name: Human-readable id, e.g. ``"ba1_n12_s0"``.
        family: Graph family ("ba1", "ba2", "ba3", "3reg", "sk").
        num_qubits: Problem size.
        trial: Seed index within (family, size).
        graph: The problem graph.
        hamiltonian: Random ±1-coupling Hamiltonian on the graph (h = 0).
    """

    name: str
    family: str
    num_qubits: int
    trial: int
    graph: ProblemGraph
    hamiltonian: IsingHamiltonian


def _instances(
    family: str,
    builder,
    sizes: Iterable[int],
    trials: int,
    seed: int,
) -> list[WorkloadInstance]:
    if trials < 1:
        raise ReproError(f"trials must be >= 1, got {trials}")
    sizes = list(sizes)
    seeds = spawn_seeds(seed, len(sizes) * trials * 2)
    instances = []
    cursor = 0
    for size in sizes:
        for trial in range(trials):
            graph_seed, coupling_seed = seeds[cursor], seeds[cursor + 1]
            cursor += 2
            graph = builder(size, graph_seed)
            hamiltonian = IsingHamiltonian.from_graph(
                graph, weights="random_pm1", seed=coupling_seed
            )
            instances.append(
                WorkloadInstance(
                    name=f"{family}_n{size}_s{trial}",
                    family=family,
                    num_qubits=size,
                    trial=trial,
                    graph=graph,
                    hamiltonian=hamiltonian,
                )
            )
    return instances


def ba_suite(
    sizes: Iterable[int] = (4, 8, 12, 16, 20, 24),
    attachment: int = 1,
    trials: int = 3,
    seed: int = 2023,
) -> list[WorkloadInstance]:
    """Barabási–Albert suite at density ``d_BA = attachment``."""
    return _instances(
        f"ba{attachment}",
        lambda n, s: barabasi_albert_graph(n, attachment=attachment, seed=s),
        sizes,
        trials,
        seed,
    )


def regular_suite(
    sizes: Iterable[int] = (4, 8, 12, 16, 20, 24),
    trials: int = 3,
    seed: int = 2024,
) -> list[WorkloadInstance]:
    """3-regular suite (sizes must be even)."""
    for size in sizes:
        if size % 2 or size < 4:
            raise ReproError(f"3-regular graphs need even sizes >= 4, got {size}")
    return _instances(
        "3reg",
        lambda n, s: three_regular_graph(n, seed=s),
        sizes,
        trials,
        seed,
    )


def sk_suite(
    sizes: Iterable[int] = (4, 6, 8, 10, 12),
    trials: int = 3,
    seed: int = 2025,
) -> list[WorkloadInstance]:
    """SK-model (fully connected) suite."""
    return _instances(
        "sk",
        lambda n, s: sk_graph(n),
        sizes,
        trials,
        seed,
    )

