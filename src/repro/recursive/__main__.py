"""Solve one large power-law instance by recursive multi-level freezing.

    python -m repro.recursive --nodes 1000 --seed 7 --max-circuits 32
    python -m repro.recursive --nodes 200 --show-tree --device montreal

Generates a seeded Barabási–Albert instance (the paper's power-law model,
at sizes far beyond its single-level reach), plans the freeze tree under
the requested budget, executes it, and prints the plan plus the composed
result.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.cache import cache_from_dir
from repro.core.solver import SolverConfig
from repro.devices import get_backend
from repro.graphs import barabasi_albert_graph
from repro.ising.hamiltonian import random_pm1_hamiltonian
from repro.planning import ExecutionBudget
from repro.recursive import RecursiveConfig, solve_recursive


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.recursive",
        description="Recursive multi-level FrozenQubits solve of one "
        "power-law instance.",
    )
    parser.add_argument(
        "--nodes", type=int, metavar="N", default=1000,
        help="instance size (Barabási–Albert power-law graph, default 1000)",
    )
    parser.add_argument(
        "--attachment", type=int, metavar="M", default=1,
        help="BA attachment parameter (default 1)",
    )
    parser.add_argument(
        "--seed", type=int, metavar="S", default=7,
        help="seed of instance, planning, and every leaf stream",
    )
    parser.add_argument(
        "--max-circuits", type=int, metavar="K", default=None,
        help="execution budget: at most K quantum leaves; sub-spaces "
        "beyond the cap are covered by the batched annealing fallback",
    )
    parser.add_argument(
        "--max-leaf-qubits", type=int, metavar="Q", default=14,
        help="stop recursing at or under this sub-problem size (default 14)",
    )
    parser.add_argument(
        "--max-frozen-per-level", type=int, metavar="M", default=2,
        help="hotspots frozen per freeze level (default 2)",
    )
    parser.add_argument(
        "--shots", type=int, metavar="S", default=4096,
        help="measurement shots per leaf circuit (default 4096)",
    )
    parser.add_argument(
        "--device", metavar="NAME", default=None,
        help="device model for every leaf (noise + compilation); "
        "default: ideal execution",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persist solve-cache artifacts under DIR (memory-only cache "
        "is always on for the tree's internal dedup/probes)",
    )
    parser.add_argument(
        "--show-tree", action="store_true",
        help="print the planned freeze tree before the result",
    )
    args = parser.parse_args(argv)
    if args.nodes < 2:
        parser.error("--nodes must be >= 2")
    if args.max_circuits is not None and args.max_circuits < 1:
        parser.error("--max-circuits must be >= 1")

    graph = barabasi_albert_graph(
        args.nodes, attachment=args.attachment, seed=args.seed
    )
    hamiltonian = random_pm1_hamiltonian(graph, seed=args.seed)
    budget = (
        ExecutionBudget(max_circuits=args.max_circuits)
        if args.max_circuits is not None
        else None
    )
    config = SolverConfig(shots=args.shots)
    recursive_config = RecursiveConfig(
        max_leaf_qubits=args.max_leaf_qubits,
        max_frozen_per_level=args.max_frozen_per_level,
    )
    device = get_backend(args.device) if args.device else None
    cache = cache_from_dir(args.cache_dir)

    started = time.perf_counter()
    result = solve_recursive(
        hamiltonian,
        device=device,
        config=config,
        recursive_config=recursive_config,
        budget=budget,
        seed=args.seed,
        cache=cache,
    )
    elapsed = time.perf_counter() - started

    if args.show_tree:
        print(result.tree.describe())
        print()
    stats = result.tree.stats
    print(
        f"instance: {args.nodes} nodes (BA attachment={args.attachment}, "
        f"seed={args.seed}), {hamiltonian.num_terms} couplings"
    )
    print(
        f"tree: {stats.get('nodes', 0)} nodes — "
        f"{stats.get('freeze', 0)} freeze, {stats.get('split', 0)} split, "
        f"{result.num_leaves} leaves, {result.num_closed_nodes} closed, "
        f"{result.num_classical_nodes} classical "
        f"(depth {stats.get('max_depth_reached', 0)})"
    )
    print(
        f"execution: {result.num_circuits_executed} circuits "
        f"({result.num_deduplicated_leaves} leaves deduplicated)"
        + (f", budget cap {result.tree.budget_cap}"
           if result.tree.budget_cap is not None else "")
    )
    print(f"best value: {result.best_value}")
    print(f"ev_ideal: {result.ev_ideal}  ev_noisy: {result.ev_noisy}")
    print(f"elapsed: {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
