"""Recursive multi-level freezing: FrozenQubits beyond the paper's scale.

The paper freezes the hotspots once (Sec. 3.3) and executes the ``2**m``
partition cells directly; that caps the usable instance size at whatever
one freeze level can shrink to the simulator/device limit. This package
lifts the cap by two to three orders of magnitude: :func:`plan_tree`
applies the same cut *recursively* — freeze the hubs, split the now
disconnected instance into components, freeze again — until every
sub-space either fits the execution budget (a quantum leaf), is edgeless
(solved in closed form), or is cut off by the budget (covered by the
batched annealing fallback). :func:`solve_recursive` executes the planned
:class:`FreezeTree` through the existing single-level machinery — one
``num_frozen=0`` prepare per unique leaf, one backend submission for the
whole tree, canonical-key dedup across tree positions — and composes the
leaves level by level into a full-instance assignment whose outcome
mixture partitions the original state-space exactly.

Call :func:`solve_recursive` directly, or run the CLI::

    python -m repro.recursive --nodes 1000 --seed 7 --max-circuits 32
"""

from __future__ import annotations

from repro.recursive.solve import (
    NodeOutcome,
    RecursiveResult,
    solve_recursive,
)
from repro.recursive.tree import (
    FreezeNode,
    FreezeTree,
    RecursiveConfig,
    component_hamiltonians,
    plan_tree,
)

__all__ = [
    "FreezeNode",
    "FreezeTree",
    "NodeOutcome",
    "RecursiveConfig",
    "RecursiveResult",
    "component_hamiltonians",
    "plan_tree",
    "solve_recursive",
]
