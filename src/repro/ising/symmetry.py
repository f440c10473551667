"""Spin-flip symmetry of Ising landscapes (paper Sec. 3.7.2).

The paper's pruning theorem: when every linear coefficient of a Hamiltonian
is zero, ``C(z) = C(-z)`` for all ``z`` — each quadratic term ``J_ij z_i
z_j`` is invariant under the global flip. Consequently the two sub-problems
obtained by freezing one qubit of such a Hamiltonian to +1 and to -1 are
mirror images, and FrozenQubits only needs to run one of them, flipping its
outcomes to recover the other (halving the quantum cost). The helpers here
both *decide* the symmetry condition and *verify* it empirically, and count
ground states (the paper notes the count is even under symmetry).

The theorem generalizes per connected component of the interaction graph:
flipping every spin of one component negates that component's fields and
leaves every coupling unchanged (no coupling leaves the component). The
flip is a product of Pauli-X gates, which commutes with the X mixer and
fixes ``|+>^n``, so two Hamiltonians with the same couplings whose fields
agree up to sign on every component have the same QAOA expectation at
every ``(gamma, beta)`` and every depth p. :func:`landscape_class_key`
names that equivalence class, which is how the siblings of one fan-out
(which share every coupling) share one training run. The flip also maps
one member's QAOA state onto another's, ``X_mask |psi_frame>``, so the
members' ideal outcome distributions are permutations of one another,
``p_member[x] = p_frame[x ^ mask]``: :func:`landscape_class` returns the
flip mask with the key and :func:`landscape_frame` the Hamiltonian every
member of a class can simulate instead of its own.
"""

from __future__ import annotations

import numpy as np

from repro.ising.bruteforce import brute_force_minimum
from repro.ising.hamiltonian import IsingHamiltonian
from repro.utils.rng import ensure_rng


def has_spin_flip_symmetry(
    hamiltonian: IsingHamiltonian, tolerance: float = 0.0
) -> bool:
    """Decide symmetry structurally: all ``|h_i| <= tolerance``.

    This is the exact condition of the paper's theorem; no enumeration
    needed. The offset is irrelevant (a constant shifts both C(z) and
    C(-z) equally).
    """
    return hamiltonian.has_zero_linear(tolerance)


def connected_components(
    hamiltonian: IsingHamiltonian,
) -> list[tuple[int, ...]]:
    """Connected components of the interaction graph, by smallest member.

    Isolated qubits (no quadratic term) each form their own singleton
    component.
    """
    n = hamiltonian.num_qubits
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i, j in hamiltonian.quadratic:
        adjacency[i].append(j)
        adjacency[j].append(i)
    seen = [False] * n
    components: list[tuple[int, ...]] = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        members = [start]
        while stack:
            node = stack.pop()
            for neighbor in adjacency[node]:
                if not seen[neighbor]:
                    seen[neighbor] = True
                    stack.append(neighbor)
                    members.append(neighbor)
        components.append(tuple(sorted(members)))
    return components


def landscape_class(
    hamiltonian: IsingHamiltonian, flips: bool = True
) -> tuple[tuple, int]:
    """The QAOA landscape class of a Hamiltonian among same-coupling peers,
    and the spin flips that carry it to the class's canonical form.

    Each connected component contributes its field vector, negated when
    its first nonzero entry is negative (``flips=True``), so two
    Hamiltonians with equal couplings get equal keys exactly when one is
    the other with some components' spins flipped — and then their QAOA
    expectations agree at every ``(gamma, beta)``. ``-0.0`` is normalized
    to ``0.0``. The key ignores the couplings and the offset: compare keys
    only among Hamiltonians that share every coupling (the siblings of one
    fan-out), where the offset shifts the landscape by a constant.

    The mask has bit ``q`` set (the bit order of
    :meth:`IsingHamiltonian.energy_landscape`) for every qubit of a
    negated component. Two class members with masks ``a`` and ``b`` differ
    by the flips ``a ^ b``: ``landscape_frame(member_a, a ^ b)`` equals
    ``landscape_frame(member_b, 0)``.

    Args:
        hamiltonian: The Hamiltonian to classify.
        flips: Canonicalize each component's sign. ``False`` keys on the
            exact fields (the mask is then 0) — for objectives the flip
            does not preserve, such as a noisy expectation under asymmetric
            readout error.
    """
    fields = hamiltonian.linear.tolist()
    key = []
    mask = 0
    for members in connected_components(hamiltonian):
        values = [fields[q] for q in members]
        if flips and next((v for v in values if v != 0.0), 0.0) < 0.0:
            values = [-v for v in values]
            for q in members:
                mask |= 1 << q
        # Adding +0.0 maps -0.0 to 0.0 and leaves every other value alone.
        key.append(tuple(v + 0.0 for v in values))
    return tuple(key), mask


def landscape_class_key(
    hamiltonian: IsingHamiltonian, flips: bool = True
) -> tuple:
    """The key of :func:`landscape_class` alone."""
    return landscape_class(hamiltonian, flips)[0]


def landscape_frame(
    hamiltonian: IsingHamiltonian, mask: int
) -> IsingHamiltonian:
    """The Hamiltonian with the spins of ``mask`` flipped and no offset.

    Flipping whole components negates their fields and keeps every
    coupling; ``-0.0`` fields become ``0.0``. Every member of a landscape
    class, flipped by its mask relative to one member, yields the same
    frame to the bit, so each can rebuild the shared frame from its own
    instance. Its QAOA distribution is the member's permuted:
    ``p_member[x] = p_frame[x ^ mask]``.
    """
    n = hamiltonian.num_qubits
    signs = np.array([-1.0 if mask >> q & 1 else 1.0 for q in range(n)])
    return IsingHamiltonian(
        n,
        linear=(hamiltonian.linear * signs + 0.0).tolist(),
        quadratic=hamiltonian.quadratic,
    )


def verify_spin_flip_symmetry(
    hamiltonian: IsingHamiltonian,
    num_samples: int = 256,
    seed: "int | np.random.Generator | None" = None,
    tolerance: float = 1e-9,
) -> bool:
    """Empirically check ``C(z) == C(-z)`` on random assignments.

    A Monte-Carlo cross-check of :func:`has_spin_flip_symmetry`, used by
    property tests; for ``num_qubits == 0`` it is vacuously true.

    Args:
        hamiltonian: Problem to probe.
        num_samples: Number of random assignments to test.
        seed: RNG seed or generator.
        tolerance: Absolute tolerance on ``|C(z) - C(-z)|``.
    """
    if hamiltonian.num_qubits == 0:
        return True
    rng = ensure_rng(seed)
    spins = rng.choice((-1.0, 1.0), size=(num_samples, hamiltonian.num_qubits))
    forward = hamiltonian.evaluate_many(spins)
    backward = hamiltonian.evaluate_many(-spins)
    return bool(np.all(np.abs(forward - backward) <= tolerance))


def count_ground_states(
    hamiltonian: IsingHamiltonian, tolerance: float = 1e-9
) -> int:
    """Number of global minima, by exhaustive enumeration (≤ 26 qubits).

    Under spin-flip symmetry this count is even (paper Sec. 3.7.2): minima
    come in ``{z*, -z*}`` pairs.
    """
    result = brute_force_minimum(hamiltonian)
    landscape = hamiltonian.energy_landscape()
    return int(np.sum(np.abs(landscape - result.value) <= tolerance))
