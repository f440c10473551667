"""Recursive freeze planning: the divide-and-conquer :class:`FreezeTree`.

FrozenQubits (Sec. 3.3) freezes the hotspots once and stops; power-law
instances two or three orders of magnitude beyond the paper's scale need
the same cut applied *recursively* (ROADMAP item 2; cf. Skipper's chain
skipping and adaptive-freezing divide-and-conquer QAOA in PAPERS.md).
:func:`plan_tree` builds the whole decision up front, as data:

* **freeze** nodes cut ``m`` hotspots, fanning out ``2**m`` partition
  cells (mirror cells are recovered from their twins, never planned);
* **split** nodes partition a disconnected sub-problem into its weakly
  interacting components — freezing hubs is exactly what disconnects
  power-law graphs, so the two node kinds alternate in practice;
* **leaf** nodes fit the budget and execute as ordinary single-instance
  QAOA jobs through the existing backend machinery;
* **closed** nodes have no quadratic terms left and are solved in closed
  form (``z_i = -sign(h_i)``) — no circuit, no annealing, exact;
* **classical** nodes are the budget's edge: sub-spaces beyond the leaf
  cap (or beyond a per-level ``max_children`` triage) are covered by the
  batched simulated-annealing fallback, so the executed tree still
  partitions the *full* original state-space exactly.

Planning is deterministic: every stochastic decision (triage probes,
classical fallback seeds) draws from one seed stream in DFS order, so the
same ``(instance, config, budget, seed)`` always yields the same tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.hotspots import select_hotspots
from repro.core.partition import (
    SubProblem,
    executed_subproblems,
    partition_problem,
)
from repro.exceptions import RecursiveError
from repro.ising.hamiltonian import IsingHamiltonian
from repro.ising.symmetry import connected_components
from repro.utils.rng import ensure_rng, spawn_seeds

if TYPE_CHECKING:
    import numpy as np

    from repro.cache.store import SolveCache
    from repro.planning.budget import ExecutionBudget
    from repro.planning.pruning import AssignmentRank

#: Node kinds a planned tree can contain.
NODE_KINDS = ("leaf", "closed", "classical", "freeze", "split")


@dataclass(frozen=True)
class RecursiveConfig:
    """Knobs of the recursive planner.

    Attributes:
        max_leaf_qubits: Sub-problems at or under this size stop recursing
            and execute as one QAOA job each. The default sits comfortably
            under the statevector cap so leaves sample their own
            distributions.
        max_frozen_per_level: Hotspots frozen per freeze node (the paper's
            per-level ``m``); the fan-out per level is ``2**m`` cells.
        max_children: Per-freeze-node cap on *recursed* cells: when set
            below the non-mirror cell count, the cells are triaged by the
            annealing probe (:func:`repro.planning.rank_assignments`) and
            only the top-k recurse — the rest become classical nodes.
            ``None`` recurses every non-mirror cell.
        max_depth: Recursion ceiling; a still-too-large node at the
            ceiling becomes a (forced) leaf — legal because over-cap
            leaves fall back to annealed sampling while their p=1
            expectations stay analytic at any size.
        split_components: Partition disconnected sub-problems into
            independent components before freezing further (the main
            shrinking force on power-law instances, whose hubs hold the
            graph together).
        hotspot_policy: Selection policy per freeze level (see
            :mod:`repro.core.hotspots`). Policies that need a device or
            randomness are resolved at plan time.
    """

    max_leaf_qubits: int = 14
    max_frozen_per_level: int = 2
    max_children: "int | None" = None
    max_depth: int = 40
    split_components: bool = True
    hotspot_policy: str = "degree"

    def __post_init__(self) -> None:
        if self.max_leaf_qubits < 1:
            raise RecursiveError(
                f"max_leaf_qubits must be >= 1, got {self.max_leaf_qubits}"
            )
        if self.max_frozen_per_level < 1:
            raise RecursiveError(
                "max_frozen_per_level must be >= 1, got "
                f"{self.max_frozen_per_level}"
            )
        if self.max_children is not None and self.max_children < 1:
            raise RecursiveError(
                f"max_children must be >= 1, got {self.max_children}"
            )
        if self.max_depth < 1:
            raise RecursiveError(f"max_depth must be >= 1, got {self.max_depth}")


@dataclass
class FreezeNode:
    """One node of a planned freeze tree.

    Attributes:
        kind: One of :data:`NODE_KINDS`.
        path: Dotted position string (``"r"``, ``"r.f3"``, ``"r.f3.c0"``,
            ...) — stable across plans of the same tree shape, used for
            job-id prefixes and display. Freeze children append
            ``.f<cell index>``, split children ``.c<component index>``.
        depth: Distance from the root (root = 0).
        hamiltonian: This node's (sub-)problem, in its own compact frame.
        hotspots: Frozen qubits of a ``freeze`` node, selection order.
        subproblems: All ``2**m`` partition cells of a ``freeze`` node, in
            canonical assignment order (mirror cells included — they carry
            the ``mirror_of`` witness the composer needs).
        children: ``freeze`` only — partition index -> child node, one
            entry per *non-mirror* cell (recursed or classical).
        fallback_seed: ``classical`` only — the plan-time integer seed of
            the covering anneal, so coverage is deterministic and
            cacheable.
        rank: ``classical`` only — the triage record when the node was
            demoted by a ``max_children`` ranking (carries the probe
            floor); ``None`` when it was cut by the global leaf budget.
        component_qubits: ``split`` only — per-component tuples of this
            node's qubit indices, disjoint and exhaustive.
        component_children: ``split`` only — one child per component,
            aligned with ``component_qubits``.
        forced: ``leaf`` only — True when the node exceeded
            ``max_leaf_qubits`` but hit ``max_depth`` and was closed out
            as a leaf anyway.
    """

    kind: str
    path: str
    depth: int
    hamiltonian: IsingHamiltonian
    hotspots: tuple[int, ...] = ()
    subproblems: "list[SubProblem] | None" = None
    children: "dict[int, FreezeNode] | None" = None
    fallback_seed: "int | None" = None
    rank: "AssignmentRank | None" = None
    component_qubits: tuple[tuple[int, ...], ...] = ()
    component_children: "list[FreezeNode] | None" = None
    forced: bool = False

    def walk(self):
        """Yield this node and every descendant, depth-first, plan order."""
        yield self
        if self.children is not None:
            for index in sorted(self.children):
                yield from self.children[index].walk()
        if self.component_children is not None:
            for child in self.component_children:
                yield from child.walk()


@dataclass
class FreezeTree:
    """A fully planned recursive solve, ready to execute.

    Attributes:
        root: The root node (the original instance).
        config: The planner knobs the tree was built under.
        budget_cap: Quantum-leaf cap derived from the execution budget
            (``None`` = unbounded).
        stats: Plan-time counters: nodes per kind, ``forced_leaves``,
            ``max_depth_reached``.
    """

    root: FreezeNode
    config: RecursiveConfig
    budget_cap: "int | None" = None
    stats: dict[str, int] = field(default_factory=dict)

    def nodes(self):
        """All nodes, depth-first plan order."""
        yield from self.root.walk()

    def leaves(self) -> "list[FreezeNode]":
        """The quantum-executed leaves, depth-first plan order."""
        return [node for node in self.nodes() if node.kind == "leaf"]

    def classical_nodes(self) -> "list[FreezeNode]":
        """The annealing-covered nodes, depth-first plan order."""
        return [node for node in self.nodes() if node.kind == "classical"]

    def validate_partition(self) -> None:
        """Check the tree partitions the root state-space exactly.

        Structural proof obligations, per node kind: a freeze node's
        children plus mirrors must cover all ``2**m`` cells exactly once
        and live on ``n - m`` qubits; a split node's components must
        partition its qubits; closed nodes must really be edgeless. Every
        covering node kind (leaf/closed/classical) covers its whole
        sub-space by construction, so these local checks compose into the
        global exact-partition guarantee.

        Raises:
            RecursiveError: On any violation.
        """
        for node in self.nodes():
            if node.kind not in NODE_KINDS:
                raise RecursiveError(f"unknown node kind {node.kind!r}")
            if node.kind == "closed":
                if node.hamiltonian.num_terms:
                    raise RecursiveError(
                        f"closed node {node.path} still has quadratic terms"
                    )
            elif node.kind == "classical":
                if node.fallback_seed is None:
                    raise RecursiveError(
                        f"classical node {node.path} has no fallback seed"
                    )
            elif node.kind == "freeze":
                self._validate_freeze(node)
            elif node.kind == "split":
                self._validate_split(node)

    @staticmethod
    def _validate_freeze(node: FreezeNode) -> None:
        m = len(node.hotspots)
        if node.subproblems is None or node.children is None:
            raise RecursiveError(f"freeze node {node.path} is incomplete")
        if len(node.subproblems) != (1 << m):
            raise RecursiveError(
                f"freeze node {node.path} has {len(node.subproblems)} cells "
                f"for m={m}"
            )
        non_mirror = {
            sp.index for sp in node.subproblems if not sp.is_mirror
        }
        if set(node.children) != non_mirror:
            raise RecursiveError(
                f"freeze node {node.path}: children cover cells "
                f"{sorted(node.children)} but the non-mirror cells are "
                f"{sorted(non_mirror)}"
            )
        for sp in node.subproblems:
            if sp.is_mirror and sp.mirror_of not in non_mirror:
                raise RecursiveError(
                    f"freeze node {node.path}: mirror cell {sp.index} points "
                    f"at missing twin {sp.mirror_of}"
                )
        expected = node.hamiltonian.num_qubits - m
        for index, child in node.children.items():
            if child.hamiltonian.num_qubits != expected:
                raise RecursiveError(
                    f"freeze node {node.path}: cell {index} has "
                    f"{child.hamiltonian.num_qubits} qubits, expected {expected}"
                )

    @staticmethod
    def _validate_split(node: FreezeNode) -> None:
        if node.component_children is None or not node.component_qubits:
            raise RecursiveError(f"split node {node.path} is incomplete")
        if len(node.component_children) != len(node.component_qubits):
            raise RecursiveError(
                f"split node {node.path}: {len(node.component_children)} "
                f"children for {len(node.component_qubits)} components"
            )
        seen: set[int] = set()
        for qubits, child in zip(node.component_qubits, node.component_children):
            if seen.intersection(qubits):
                raise RecursiveError(
                    f"split node {node.path}: components overlap"
                )
            seen.update(qubits)
            if child.hamiltonian.num_qubits != len(qubits):
                raise RecursiveError(
                    f"split node {node.path}: component child on "
                    f"{child.hamiltonian.num_qubits} qubits for "
                    f"{len(qubits)} component qubits"
                )
        if seen != set(range(node.hamiltonian.num_qubits)):
            raise RecursiveError(
                f"split node {node.path}: components do not cover the node"
            )

    def describe(self, max_lines: int = 80) -> str:
        """Indented human-readable rendering of the tree (truncated)."""
        lines: list[str] = []
        for node in self.nodes():
            if len(lines) >= max_lines:
                lines.append(f"... ({self.stats.get('nodes', 0)} nodes total)")
                break
            indent = "  " * node.depth
            n = node.hamiltonian.num_qubits
            detail = ""
            if node.kind == "freeze":
                detail = f" m={len(node.hotspots)} hotspots={node.hotspots}"
            elif node.kind == "split":
                detail = f" components={len(node.component_qubits)}"
            elif node.kind == "leaf" and node.forced:
                detail = " (forced at max_depth)"
            elif node.kind == "classical" and node.rank is not None:
                detail = " (triaged)"
            lines.append(f"{indent}{node.kind} @{node.path} [{n}q]{detail}")
        return "\n".join(lines)


def component_hamiltonians(
    hamiltonian: IsingHamiltonian,
    components: "list[tuple[int, ...]]",
) -> list[IsingHamiltonian]:
    """Each component's sub-Hamiltonian in its own compact frame.

    The parent offset is carried by the *first* component only, so the
    component values (and expectations) sum to the parent's exactly —
    the additive decomposition the split composer relies on.
    """
    position: dict[int, tuple[int, int]] = {}
    for comp_index, qubits in enumerate(components):
        for local, original in enumerate(qubits):
            position[original] = (comp_index, local)
    linears: list[dict[int, float]] = [{} for _ in components]
    quadratics: list[dict[tuple[int, int], float]] = [{} for _ in components]
    for original, value in enumerate(hamiltonian.linear):
        if value != 0.0:
            comp_index, local = position[original]
            linears[comp_index][local] = float(value)
    for (i, j), coupling in hamiltonian.quadratic.items():
        comp_index, local_i = position[i]
        _, local_j = position[j]
        quadratics[comp_index][(local_i, local_j)] = coupling
    return [
        IsingHamiltonian(
            len(qubits),
            linear=linears[comp_index],
            quadratic=quadratics[comp_index],
            offset=hamiltonian.offset if comp_index == 0 else 0.0,
        )
        for comp_index, qubits in enumerate(components)
    ]


def plan_tree(
    hamiltonian: IsingHamiltonian,
    config: "RecursiveConfig | None" = None,
    budget: "ExecutionBudget | None" = None,
    shots: int = 4096,
    seed: "int | np.random.Generator | None" = None,
    cache: "SolveCache | None" = None,
) -> FreezeTree:
    """Plan a recursive solve of one instance as a :class:`FreezeTree`.

    Args:
        hamiltonian: The full original instance.
        config: Planner knobs (defaults: :class:`RecursiveConfig`).
        budget: Execution budget; its circuit cap bounds the quantum
            leaves — once spent, remaining sub-spaces become classical
            nodes (depth-first order, most promising levels first when
            ``max_children`` triage is on).
        shots: Shots each leaf will use (feeds the budget's shot cap).
        seed: Seed of the planning stream (probe seeds, fallback seeds).
        cache: Solve cache for the triage probes.

    Returns:
        A validated :class:`FreezeTree`.
    """
    cfg = config or RecursiveConfig()
    rng = ensure_rng(seed)
    cap: "int | None" = None
    if budget is not None:
        from repro.planning.budget import estimated_seconds_per_circuit

        cap = budget.circuit_cap(
            shots_per_circuit=shots,
            seconds_per_circuit=estimated_seconds_per_circuit(
                hamiltonian, shots
            ),
        )
    remaining = [cap]
    stats: dict[str, int] = {kind: 0 for kind in NODE_KINDS}
    stats["nodes"] = 0
    stats["forced_leaves"] = 0
    stats["max_depth_reached"] = 0

    def count(kind: str, depth: int) -> None:
        stats[kind] += 1
        stats["nodes"] += 1
        stats["max_depth_reached"] = max(stats["max_depth_reached"], depth)

    def classical(h: IsingHamiltonian, path: str, depth: int,
                  rank: "AssignmentRank | None" = None) -> FreezeNode:
        count("classical", depth)
        return FreezeNode(
            kind="classical",
            path=path,
            depth=depth,
            hamiltonian=h,
            fallback_seed=spawn_seeds(rng, 1)[0],
            rank=rank,
        )

    def build(h: IsingHamiltonian, path: str, depth: int) -> FreezeNode:
        if not h.num_terms:
            count("closed", depth)
            return FreezeNode(kind="closed", path=path, depth=depth,
                              hamiltonian=h)
        if remaining[0] is not None and remaining[0] <= 0:
            return classical(h, path, depth)
        if h.num_qubits <= cfg.max_leaf_qubits or depth >= cfg.max_depth:
            forced = h.num_qubits > cfg.max_leaf_qubits
            count("leaf", depth)
            if forced:
                stats["forced_leaves"] += 1
            if remaining[0] is not None:
                remaining[0] -= 1
            return FreezeNode(kind="leaf", path=path, depth=depth,
                              hamiltonian=h, forced=forced)
        if cfg.split_components:
            components = connected_components(h)
            if len(components) > 1:
                count("split", depth)
                subs = component_hamiltonians(h, components)
                children = [
                    build(sub, f"{path}.c{comp_index}", depth + 1)
                    for comp_index, sub in enumerate(subs)
                ]
                return FreezeNode(
                    kind="split",
                    path=path,
                    depth=depth,
                    hamiltonian=h,
                    component_qubits=tuple(components),
                    component_children=children,
                )
        m = min(cfg.max_frozen_per_level, h.num_qubits - 1)
        hotspots = select_hotspots(h, m, policy=cfg.hotspot_policy, seed=rng)
        subproblems = partition_problem(h, hotspots, prune_symmetric=True)
        non_mirror = executed_subproblems(subproblems)
        recursed = {sp.index for sp in non_mirror}
        rank_by_index: "dict[int, AssignmentRank]" = {}
        if cfg.max_children is not None and cfg.max_children < len(non_mirror):
            from repro.planning.pruning import rank_assignments

            probe_seed = spawn_seeds(rng, 1)[0]
            ranks = rank_assignments(
                non_mirror,
                seed=probe_seed,
                cache=cache,
            )
            recursed = {r.index for r in ranks[: cfg.max_children]}
            rank_by_index = {r.index: r for r in ranks}
        count("freeze", depth)
        children: dict[int, FreezeNode] = {}
        for sp in non_mirror:
            if sp.index in recursed:
                children[sp.index] = build(
                    sp.hamiltonian, f"{path}.f{sp.index}", depth + 1
                )
            else:
                children[sp.index] = classical(
                    sp.hamiltonian,
                    f"{path}.f{sp.index}",
                    depth + 1,
                    rank=rank_by_index.get(sp.index),
                )
        return FreezeNode(
            kind="freeze",
            path=path,
            depth=depth,
            hamiltonian=h,
            hotspots=tuple(hotspots),
            subproblems=subproblems,
            children=children,
        )

    tree = FreezeTree(
        root=build(hamiltonian, "r", 0),
        config=cfg,
        budget_cap=cap,
        stats=stats,
    )
    tree.validate_partition()
    return tree
