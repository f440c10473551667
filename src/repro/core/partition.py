"""State-space partitioning into sub-problems, with symmetry pruning.

Freezing ``m`` qubits yields ``2**m`` sub-problems (Sec. 3.3); when the
parent Hamiltonian has all-zero linear coefficients, its landscape is
spin-flip symmetric (Sec. 3.7.2) and sub-problems come in mirror pairs —
the sub-problem for assignment ``a`` and the one for ``-a`` satisfy
``H_sub^{-a}(z) = H_sub^{a}(-z)``. Only one of each pair is executed; the
mirror's outcomes are recovered by flipping bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import SolverError
from repro.ising.freeze import FrozenSpec, freeze_qubits_many, frozen_assignments
from repro.ising.hamiltonian import IsingHamiltonian
from repro.ising.symmetry import has_spin_flip_symmetry


@dataclass(frozen=True)
class SubProblem:
    """One cell of the partitioned state-space.

    Attributes:
        index: Position in the canonical ``frozen_assignments`` ordering.
        assignment: The ±1 value substituted for each frozen qubit, aligned
            with ``spec.frozen_qubits``.
        hamiltonian: The reduced Hamiltonian on ``N - m`` qubits. Siblings
            from one :func:`partition_problem` call share its coupling
            table; only ``h`` and the offset are their own.
        spec: Index bookkeeping: one object shared by all siblings of a
            :func:`partition_problem` call.
        mirror_of: Index of the executed twin when this sub-problem was
            pruned by symmetry; ``None`` when it is executed itself.
    """

    index: int
    assignment: tuple[int, ...]
    hamiltonian: IsingHamiltonian
    spec: FrozenSpec
    mirror_of: "int | None" = None

    @property
    def is_mirror(self) -> bool:
        """True when this sub-problem is recovered by bit-flipping a twin."""
        return self.mirror_of is not None


def partition_problem(
    hamiltonian: IsingHamiltonian,
    frozen_qubits: list[int],
    prune_symmetric: bool = True,
) -> list[SubProblem]:
    """Freeze the given qubits and enumerate all sub-problems.

    One :func:`~repro.ising.freeze.freeze_qubits_many` pass builds every
    cell: the ``2**m`` sub-problems share one :class:`FrozenSpec` and their
    Hamiltonians one coupling table, and only ``h`` and the offset are
    per-cell, each bitwise equal to freezing that assignment alone.

    Args:
        hamiltonian: Parent problem.
        frozen_qubits: Qubits to freeze (typically from
            :func:`repro.core.hotspots.select_hotspots`).
        prune_symmetric: Apply the Sec. 3.7.2 theorem when the parent has
            zero linear coefficients; mirrors carry ``mirror_of`` and no
            circuit is run for them.

    Returns:
        ``2**m`` sub-problems in ``frozen_assignments`` order. With pruning
        active, exactly half have ``mirror_of`` set (for ``m >= 1``).

    Raises:
        SolverError: If freezing every qubit (no variables left).
    """
    m = len(frozen_qubits)
    if m >= hamiltonian.num_qubits and m > 0:
        raise SolverError(
            f"cannot freeze all {hamiltonian.num_qubits} qubits; at least one "
            "free variable is required"
        )
    assignments = frozen_assignments(m)
    symmetric = prune_symmetric and has_spin_flip_symmetry(hamiltonian)
    cells, spec = freeze_qubits_many(hamiltonian, frozen_qubits, assignments)
    subproblems: list[SubProblem] = []
    for index, (assignment, sub) in enumerate(zip(assignments, cells)):
        mirror_of: "int | None" = None
        if symmetric and m > 0:
            # Negating every frozen value flips every assignment bit, so
            # the twin sits at the bit complement — no 2**m index table.
            twin_index = (1 << m) - 1 - index
            # Canonical representative: the lexicographically earlier
            # assignment (the one whose first frozen value is +1).
            if twin_index < index:
                mirror_of = twin_index
        subproblems.append(
            SubProblem(
                index=index,
                assignment=assignment,
                hamiltonian=sub,
                spec=spec,
                mirror_of=mirror_of,
            )
        )
    return subproblems


def executed_subproblems(subproblems: list[SubProblem]) -> list[SubProblem]:
    """The sub-problems that actually run on quantum hardware."""
    return [sp for sp in subproblems if not sp.is_mirror]


def linear_support_union(subproblems: list[SubProblem]) -> list[int]:
    """Sub-space qubits whose ``h`` is non-zero in *any* sibling.

    The shared compiled template must reserve an RZ slot for each of these
    (Sec. 3.7.1): siblings differ only in linear coefficients, and a
    coefficient that is zero in one sibling may be non-zero in another.
    """
    if not subproblems:
        raise SolverError("no subproblems given")
    support: set[int] = set()
    for sp in subproblems:
        for qubit, coefficient in enumerate(sp.hamiltonian.linear):
            if coefficient != 0.0:
                support.add(qubit)
    return sorted(support)
