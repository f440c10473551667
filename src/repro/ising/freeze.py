"""Qubit freezing: the core state-space partition of FrozenQubits (Sec. 3.3).

Freezing qubit ``k`` substitutes ``z_k`` with a fixed value ``a in {-1, +1}``
in Eq. (1), producing a sub-Hamiltonian on the remaining ``N - 1`` qubits
with (Table 2 of the paper):

* ``h_i  <- h_i + a * J_ik`` for every neighbour ``i`` of ``k``,
* ``offset <- offset + a * h_k``,
* every quadratic term touching ``k`` removed.

Freezing ``m`` qubits yields ``2**m`` sub-problems whose state-spaces
partition the original state-space exactly; :func:`decode_spins` maps a
sub-problem assignment back into the original variable ordering. The
bookkeeping lives in :class:`FrozenSpec` so solvers and tests can round-trip
without re-deriving index maps. :func:`freeze_qubits_many` builds all the
cells of one freezing at once: they share one spec and one reduced coupling
table, since only ``h`` and the offset depend on the substituted values.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import FreezeError
from repro.ising.hamiltonian import IsingHamiltonian

#: Refuse to freeze more qubits than this in one transform: ``2**m``
#: sub-spaces beyond it cannot be enumerated (let alone covered), so a
#: larger ``m`` is always a planning bug, not a workload.
MAX_FROZEN_QUBITS = 60


@dataclass(frozen=True)
class FrozenSpec:
    """Index bookkeeping for a freezing transform.

    Attributes:
        num_qubits: Qubit count of the *original* Hamiltonian.
        frozen_qubits: Original indices that were frozen, in freezing order.
        kept_qubits: Original indices that survive, ascending; position in
            this tuple is the sub-problem qubit index.
    """

    num_qubits: int
    frozen_qubits: tuple[int, ...]
    kept_qubits: tuple[int, ...]

    @property
    def num_frozen(self) -> int:
        """How many qubits were frozen (the paper's ``m``)."""
        return len(self.frozen_qubits)

    @property
    def num_kept(self) -> int:
        """Sub-problem qubit count, ``N - m``."""
        return len(self.kept_qubits)

    def sub_index(self, original_qubit: int) -> int:
        """Sub-problem index of an original (kept) qubit.

        A binary search of the ascending ``kept_qubits``: the spec is shared
        by every cell of a partition and kept by recursive plans, so it
        carries no per-qubit lookup table.

        Raises:
            FreezeError: If the qubit was frozen or is out of range.
        """
        position = bisect_left(self.kept_qubits, original_qubit)
        if (
            position == len(self.kept_qubits)
            or self.kept_qubits[position] != original_qubit
        ):
            raise FreezeError(
                f"original qubit {original_qubit} is frozen or out of range"
            )
        return position


def _build_spec(num_qubits: int, frozen: Sequence[int]) -> FrozenSpec:
    seen: set[int] = set()
    for qubit in frozen:
        if not 0 <= qubit < num_qubits:
            raise FreezeError(f"qubit {qubit} out of range for {num_qubits} qubits")
        if qubit in seen:
            raise FreezeError(f"qubit {qubit} frozen twice")
        seen.add(qubit)
    kept = tuple(q for q in range(num_qubits) if q not in seen)
    return FrozenSpec(num_qubits, tuple(frozen), kept)


def freeze_qubit(
    hamiltonian: IsingHamiltonian, qubit: int, value: int
) -> IsingHamiltonian:
    """Freeze one qubit of a Hamiltonian (paper Eqs. 2-3).

    Args:
        hamiltonian: The parent problem.
        qubit: Original index of the qubit to freeze.
        value: The substituted measurement outcome, +1 or -1.

    Returns:
        The sub-Hamiltonian on ``num_qubits - 1`` qubits. Sub-problem qubit
        indices are the kept original indices compacted in ascending order.
    """
    sub, __ = freeze_qubits(hamiltonian, [qubit], [value])
    return sub


def freeze_qubits(
    hamiltonian: IsingHamiltonian,
    qubits: Sequence[int],
    values: Sequence[int],
) -> tuple[IsingHamiltonian, FrozenSpec]:
    """Freeze several qubits at once.

    The one-assignment case of :func:`freeze_qubits_many`.

    Args:
        hamiltonian: The parent problem.
        qubits: Original indices to freeze (no duplicates).
        values: Substituted ±1 value per frozen qubit, aligned with `qubits`.

    Returns:
        ``(sub_hamiltonian, spec)`` where ``spec`` records the index maps.

    Raises:
        FreezeError: On index or value errors.
    """
    cells, spec = freeze_qubits_many(hamiltonian, qubits, [values])
    return cells[0], spec


def freeze_qubits_many(
    hamiltonian: IsingHamiltonian,
    qubits: Sequence[int],
    assignments: Sequence[Sequence[int]],
) -> tuple[list[IsingHamiltonian], FrozenSpec]:
    """Freeze the same qubits under each of several assignments.

    The cells of one freezing differ only in ``h`` and the offset (Table
    2): the spec and the reduced couplings depend on *which* qubits are
    frozen, not on their values. Both are computed once and shared, every
    cell holding the one coupling table. Each cell's ``h`` and offset are
    accumulated term by term in the parent's coupling order, so every cell
    is bitwise what freezing it alone would give.

    Args:
        hamiltonian: The parent problem.
        qubits: Original indices to freeze (no duplicates).
        assignments: Per cell, the substituted ±1 value of each frozen
            qubit, aligned with `qubits`.

    Returns:
        ``(cells, spec)``: one sub-Hamiltonian per assignment, in order,
        and the index maps they all share.

    Raises:
        FreezeError: On index or value errors.
    """
    assignments = [tuple(values) for values in assignments]
    for values in assignments:
        if len(qubits) != len(values):
            raise FreezeError(
                f"got {len(qubits)} qubits but {len(values)} values to substitute"
            )
        for value in values:
            if value not in (-1, 1):
                raise FreezeError(
                    f"substituted value must be +1 or -1, got {value}"
                )
    spec = _build_spec(hamiltonian.num_qubits, qubits)
    position = {original: index for index, original in enumerate(spec.kept_qubits)}
    slot = {qubit: t for t, qubit in enumerate(qubits)}

    h = hamiltonian.linear
    # A zero field is stored as 0.0, never -0.0.
    kept_linear = [float(h[q]) if h[q] != 0.0 else 0.0 for q in spec.kept_qubits]
    quadratic: dict[tuple[int, int], float] = {}
    to_field: list[tuple[int, int, float]] = []  # (kept index, slot, J)
    to_offset: list[tuple[int, int, float]] = []  # (slot, slot, J)
    for (i, j), coupling in hamiltonian.quadratic.items():
        i_slot, j_slot = slot.get(i), slot.get(j)
        if i_slot is None and j_slot is None:
            quadratic[(position[i], position[j])] = coupling
        elif i_slot is None:
            to_field.append((position[i], j_slot, coupling))
        elif j_slot is None:
            to_field.append((position[j], i_slot, coupling))
        else:
            # Both endpoints fixed: the term is a constant a_i * a_j * J_ij.
            to_offset.append((i_slot, j_slot, coupling))

    shared = IsingHamiltonian(spec.num_kept, quadratic=quadratic)
    cells = []
    for values in assignments:
        # offset absorbs a*h_k for every frozen qubit (Table 2).
        offset = hamiltonian.offset
        for qubit, value in zip(qubits, values):
            offset += value * h[qubit]
        for i_slot, j_slot, coupling in to_offset:
            offset += values[i_slot] * values[j_slot] * coupling
        linear = list(kept_linear)
        for index, j_slot, coupling in to_field:
            linear[index] = linear[index] + values[j_slot] * coupling
        cells.append(shared.with_fields(np.array(linear, dtype=float), offset))
    return cells, spec


class FrozenAssignments(Sequence):
    """The ``2**m`` substitution tuples over {-1, +1}, lazily indexable.

    A drop-in for the list :func:`frozen_assignments` historically
    returned — same ordering, same tuples — but O(1) memory: each tuple is
    synthesized from its index on demand, so recursive freeze plans with
    large *cumulative* ``m`` can hold assignment sequences for many levels
    without ever materializing ``2**m`` tuples. Iteration still visits
    every assignment; callers that genuinely need the full enumeration pay
    for it explicitly (``list(...)``) instead of implicitly at
    construction.
    """

    __slots__ = ("_num_frozen",)

    def __init__(self, num_frozen: int) -> None:
        if num_frozen < 0:
            raise FreezeError(
                f"num_frozen must be non-negative, got {num_frozen}"
            )
        if num_frozen > MAX_FROZEN_QUBITS:
            raise FreezeError(
                f"refusing to enumerate 2**{num_frozen} frozen assignments "
                f"(guard: m <= {MAX_FROZEN_QUBITS}); recursive plans must "
                "freeze fewer qubits per level"
            )
        self._num_frozen = num_frozen

    @property
    def num_frozen(self) -> int:
        """How many qubits the assignments substitute (the paper's ``m``)."""
        return self._num_frozen

    def __len__(self) -> int:
        return 1 << self._num_frozen

    def __getitem__(self, index: int) -> tuple[int, ...]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError(
                f"assignment index {index} out of range for m={self._num_frozen}"
            )
        m = self._num_frozen
        # Tuple position t maps to bit (m - 1 - t): the historical
        # product((1, -1), repeat=m) order varies the *last* position
        # fastest, and a 0 bit means +1 (so index 0 is all +1).
        return tuple(
            1 if not (index >> (m - 1 - t)) & 1 else -1 for t in range(m)
        )

    def index_of(self, assignment: Sequence[int]) -> int:
        """Position of a ±1 assignment tuple in the canonical ordering."""
        if len(assignment) != self._num_frozen:
            raise FreezeError(
                f"assignment length {len(assignment)} != m={self._num_frozen}"
            )
        position = 0
        for value in assignment:
            if value not in (-1, 1):
                raise FreezeError(
                    f"frozen value must be +1 or -1, got {value}"
                )
            position = (position << 1) | (1 if value == -1 else 0)
        return position

    def __repr__(self) -> str:
        return f"FrozenAssignments(num_frozen={self._num_frozen})"


def frozen_assignments(num_frozen: int) -> FrozenAssignments:
    """All ``2**m`` substitution tuples over {-1, +1}, in lexicographic order.

    Ordered so that the first tuple is all ``+1`` and the last all ``-1``,
    matching ``itertools.product((1, -1), repeat=m)``. Returns a lazy
    :class:`FrozenAssignments` sequence (len/index/iterate like the list it
    replaces) so large ``m`` cannot silently exhaust memory; ``m`` beyond
    :data:`MAX_FROZEN_QUBITS` raises :class:`~repro.exceptions.FreezeError`
    outright.
    """
    return FrozenAssignments(num_frozen)


def decode_spins(
    spec: FrozenSpec,
    assignment: Sequence[int],
    sub_spins: Sequence[int],
) -> tuple[int, ...]:
    """Re-insert frozen values into a sub-problem assignment (Sec. 3.6).

    Args:
        spec: Bookkeeping from :func:`freeze_qubits`.
        assignment: ±1 value per frozen qubit, aligned with
            ``spec.frozen_qubits``.
        sub_spins: ±1 assignment of the sub-problem's qubits.

    Returns:
        Full spin assignment in the original variable order.
    """
    if len(assignment) != spec.num_frozen:
        raise FreezeError(
            f"assignment length {len(assignment)} != num_frozen {spec.num_frozen}"
        )
    if len(sub_spins) != spec.num_kept:
        raise FreezeError(
            f"sub_spins length {len(sub_spins)} != num_kept {spec.num_kept}"
        )
    full = [0] * spec.num_qubits
    for qubit, value in zip(spec.frozen_qubits, assignment):
        if value not in (-1, 1):
            raise FreezeError(f"frozen value must be +1 or -1, got {value}")
        full[qubit] = value
    for position, original in enumerate(spec.kept_qubits):
        spin = sub_spins[position]
        if spin not in (-1, 1):
            raise FreezeError(f"sub spin must be +1 or -1, got {spin}")
        full[original] = spin
    return tuple(full)
