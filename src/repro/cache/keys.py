"""Content-addressed cache keys for the solve path.

Two families of keys coexist, with very different guarantees:

* **Exact fingerprints** — a SHA-256 over a canonical byte serialization of
  the object (Hamiltonian coefficients, circuit instruction stream, device
  calibration, ...). Two objects share a fingerprint iff they are
  bit-identical, so a fingerprint hit can safely substitute a cached
  artifact for a recomputation without perturbing results.

* **Canonical structural keys** (:func:`canonical_ising_key`) — invariant
  under the two equivalences FrozenQubits itself exploits: *variable
  relabeling* (sibling sub-problems and sweep instances that differ only by
  a permutation of the spins) and the *global sign flip* ``h -> -h`` (the
  Sec. 3.7.2 mirror symmetry: flipping every spin maps one landscape onto
  the other). Equivalent instances share a key; the key also carries the
  witness — the canonical relabeling permutation and whether the flip was
  applied — so a cached sub-solution can be rehydrated into the caller's
  frame.

The canonical key is computed by individualization-refinement: iterated
color refinement over the weighted interaction graph (node color seeded by
``h_i``, edge "weights" by ``J_ij``), with ambiguous color classes resolved
by trying each individualization and keeping the lexicographically smallest
resulting form. Two instances get the same digest only when their canonical
forms are byte-identical — i.e. when they really are equal up to relabeling
(and optionally the flip) — which is what makes the property-test
collision-freedom guarantee possible. A search budget caps the worst case
on highly symmetric graphs; when it trips, the key degrades to a
refinement-only digest flagged ``complete=False`` (still an invariant, but
no longer guaranteed collision-free, so callers must confirm with an exact
fingerprint before reusing anything behavior-affecting).

Floats are tokenized via ``float.hex()`` (exact, round-trippable) with
negative zero normalised so that ``h = 0`` and its flip serialize alike.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.ising.hamiltonian import IsingHamiltonian

if TYPE_CHECKING:
    from repro.circuit.circuit import QuantumCircuit
    from repro.devices.coupling import CouplingMap
    from repro.devices.device import Device
    from repro.transpile.compiler import TranspileOptions

#: Individualization-refinement search budget (recursion nodes) before the
#: canonical key degrades to a refinement-only digest.
DEFAULT_SEARCH_BUDGET = 4096

#: Above this qubit count the full canonical search is skipped outright.
DEFAULT_MAX_CANONICAL_NODES = 96


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _ftok(value: float) -> str:
    """Exact, sign-normalised float token (``-0.0`` collapses to ``0.0``)."""
    value = float(value)
    if value == 0.0:
        value = 0.0
    return value.hex()


# ----------------------------------------------------------------------
# Exact fingerprints
# ----------------------------------------------------------------------
def ising_fingerprint(hamiltonian: IsingHamiltonian) -> str:
    """Exact content hash of a Hamiltonian (no symmetry folding)."""
    return _sha(hamiltonian.content_text())


def circuit_fingerprint(circuit: "QuantumCircuit") -> str:
    """Exact structural hash of a circuit's instruction stream.

    Covers gate names, qubit targets, numeric angles, symbolic angle
    expressions (parameter *name*, coefficient, constant) and tags — the
    full identity of the executable, so an angle-edited sibling hashes
    differently from its master while re-built identical circuits collide.
    """
    parts = [f"n={circuit.num_qubits}"]
    for op in circuit:
        if op.angle is None:
            angle = "-"
        elif op.is_parametric:
            angle = (
                f"{op.angle.parameter.name}*{_ftok(op.angle.coefficient)}"
                f"+{_ftok(op.angle.constant)}"
            )
        else:
            angle = _ftok(op.angle)
        qubits = ",".join(str(q) for q in op.qubits)
        parts.append(f"{op.name}({qubits});{angle};{op.tag or '-'}")
    return _sha("|".join(parts))


def device_fingerprint(device: "Device") -> str:
    """Hash of a device's identity: name, connectivity, calibration."""
    cal = device.calibration
    parts = [
        device.name,
        str(device.num_qubits),
        ";".join(f"{a}-{b}" for a, b in sorted(device.coupling.edges())),
        ";".join(
            f"{a}-{b}:{_ftok(e)}" for (a, b), e in sorted(cal.cx_error.items())
        ),
        ";".join(_ftok(x) for x in cal.readout_error),
        ";".join(_ftok(x) for x in cal.t1_us),
        ";".join(_ftok(x) for x in cal.t2_us),
        ";".join(_ftok(x) for x in cal.single_qubit_error),
        ";".join(f"{k}:{_ftok(v)}" for k, v in sorted(cal.durations_ns.items())),
    ]
    return _sha("|".join(parts))


def coupling_fingerprint(coupling: "CouplingMap") -> str:
    """Exact hash of a connectivity graph: qubit count + sorted edge list.

    Keys the process-wide all-pairs-distance memo
    (:func:`repro.cache.memo.memoized_distance_matrix`): two distinct
    :class:`~repro.devices.coupling.CouplingMap` instances over the same
    edges share one BFS result.
    """
    edges = ";".join(f"{a}-{b}" for a, b in coupling.edges())
    return _sha(f"coupling|{coupling.num_qubits}|{edges}")


def transpile_key(
    circuit: "QuantumCircuit",
    device: "Device",
    options: "TranspileOptions | None",
) -> str:
    """Cache key of one ``transpile(circuit, device, options)`` call."""
    opts = (
        f"{options.layout_method}:{options.lookahead}:"
        f"{options.basis}:{options.optimize}"
        if options is not None
        else "default"
    )
    return _sha(
        f"transpile|{circuit_fingerprint(circuit)}|"
        f"{device_fingerprint(device)}|{opts}"
    )


def anneal_key(
    hamiltonian: IsingHamiltonian,
    num_sweeps: int,
    num_restarts: int,
    initial_temperature: float,
    final_temperature: float,
    seed: int,
) -> str:
    """Memoization key of one seeded ``simulated_annealing`` call.

    The seed is part of the key: annealing is stochastic, so only the
    *exact same call* may be answered from cache — which is precisely what
    repeated sweeps re-issue, and what keeps cached runs bit-identical to
    uncached ones. The trailing ``|vectorized`` token names the batched
    replica engine; it keeps the spelling earlier releases wrote, so warm
    disk caches stay valid.
    """
    return _sha(
        f"anneal|{ising_fingerprint(hamiltonian)}|{num_sweeps}|{num_restarts}|"
        f"{_ftok(initial_temperature)}|{_ftok(final_temperature)}|{int(seed)}"
        "|vectorized"
    )


def bruteforce_key(hamiltonian: IsingHamiltonian) -> str:
    """Memoization key of ``brute_force_minimum`` (deterministic, seedless)."""
    return _sha(f"bruteforce|{ising_fingerprint(hamiltonian)}")


def params_key(
    fingerprint: str,
    num_layers: int,
    grid_resolution: int,
    maxiter: int,
    train_noisy: bool,
    noise_signature: str,
    mode: str = "fresh",
) -> str:
    """Cache key of one QAOA training run's ``(gammas, betas)`` outcome.

    The key pins everything the p=1 training path is a deterministic
    function of: the instance (exact fingerprint), the optimizer knobs, the
    noise constants of the compiled template, and the training *mode* —
    ``"fresh"`` for the seeding-scan path, or ``"warm:<source key>"`` for a
    warm-started run (whose outcome additionally depends on the transferred
    initial point, itself pinned by the source's key). Shots are excluded:
    they only affect sampling, which always runs live on the job's own
    stream. The trailing ``|opt=lbfgs`` token names the L-BFGS-B refiner;
    it keeps the spelling earlier releases wrote, so warm disk caches stay
    valid.
    """
    return _sha(
        f"params|{fingerprint}|p={num_layers}|grid={grid_resolution}|"
        f"maxiter={maxiter}|noisy={train_noisy}|{noise_signature}|{mode}"
        "|opt=lbfgs"
    )


# ----------------------------------------------------------------------
# Canonical (symmetry-aware) Ising keys
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CanonicalKey:
    """A structural Ising key plus the witness back to the caller's frame.

    Attributes:
        digest: SHA-256 of the canonical serialized form; equal across
            instances related by variable relabeling and/or the global
            ``h -> -h`` sign flip.
        permutation: Map original variable index -> canonical rank. A cached
            canonical-space assignment ``z`` rehydrates into this instance
            as ``z_original[i] = flip * z[permutation[i]]``.
        flipped: True when the canonical representative is the sign-flipped
            instance (``-h``), i.e. cached assignments must be negated.
        complete: True when the full individualization-refinement search
            finished; False for budget-capped digests, which remain
            relabeling/flip *invariant* but are no longer guaranteed
            collision-free across non-equivalent instances.
    """

    digest: str
    permutation: tuple[int, ...]
    flipped: bool
    complete: bool


def _refine(
    colors: list[int], adjacency: list[list[tuple[int, str]]]
) -> list[int]:
    """Iterated color refinement to a stable partition.

    Node signatures combine the current color with the multiset of
    (edge token, neighbor color) pairs; distinct signatures get distinct
    new colors, numbered by sorted signature order so the numbering is
    itself label-independent.
    """
    n = len(colors)
    while True:
        signatures = [
            (
                colors[i],
                tuple(sorted((token, colors[j]) for j, token in adjacency[i])),
            )
            for i in range(n)
        ]
        ranking = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
        refined = [ranking[sig] for sig in signatures]
        if refined == colors:
            return colors
        colors = refined


def _serialize_discrete(
    perm: list[int],
    h_tokens: list[str],
    edge_tokens: dict[tuple[int, int], str],
    offset_token: str,
) -> tuple:
    """The canonical form under a discrete coloring (``perm``: old -> rank)."""
    n = len(perm)
    inverse = [0] * n
    for old, rank in enumerate(perm):
        inverse[rank] = old
    relabeled_h = tuple(h_tokens[inverse[rank]] for rank in range(n))
    relabeled_edges = tuple(
        sorted(
            (min(perm[i], perm[j]), max(perm[i], perm[j]), token)
            for (i, j), token in edge_tokens.items()
        )
    )
    return (n, relabeled_h, relabeled_edges, offset_token)


def _refined_colors(
    h_tokens: list[str],
    edge_tokens: dict[tuple[int, int], str],
) -> tuple[list[int], list[list[tuple[int, str]]]]:
    """Shared preamble of both key paths: adjacency + seeded refinement.

    One implementation keeps the complete (individualization) and the
    budget-capped (refinement-only) digests consistent invariants — a
    seeding change here changes both paths together.
    """
    n = len(h_tokens)
    adjacency: list[list[tuple[int, str]]] = [[] for _ in range(n)]
    for (i, j), token in edge_tokens.items():
        adjacency[i].append((j, token))
        adjacency[j].append((i, token))
    initial = {tok: rank for rank, tok in enumerate(sorted(set(h_tokens)))}
    colors = _refine([initial[tok] for tok in h_tokens], adjacency)
    return colors, adjacency


def _canonical_search(
    h_tokens: list[str],
    edge_tokens: dict[tuple[int, int], str],
    offset_token: str,
    budget: int,
) -> "tuple[tuple, list[int]] | None":
    """Individualization-refinement canonical form, or None on budget burn."""
    n = len(h_tokens)
    colors, adjacency = _refined_colors(h_tokens, edge_tokens)

    best: "list | None" = [None, None]
    remaining = [budget]

    def search(colors: list[int]) -> bool:
        """Explore one refinement branch; False when the budget burned out."""
        if remaining[0] <= 0:
            return False
        remaining[0] -= 1
        class_sizes: dict[int, int] = {}
        for color in colors:
            class_sizes[color] = class_sizes.get(color, 0) + 1
        if all(size == 1 for size in class_sizes.values()):
            form = _serialize_discrete(colors, h_tokens, edge_tokens, offset_token)
            if best[0] is None or form < best[0]:
                best[0] = form
                best[1] = list(colors)
            return True
        target = min(c for c, size in class_sizes.items() if size > 1)
        members = [i for i in range(n) if colors[i] == target]
        for member in members:
            # Individualize: split `member` off its class (rank it just
            # below its peers), then re-refine and recurse.
            branched = [
                2 * c + (1 if (c == target and i != member) else 0)
                for i, c in enumerate(colors)
            ]
            if not search(_refine(branched, adjacency)):
                return False
        return True

    if not search(colors) or best[0] is None:
        return None
    return best[0], best[1]


def _invariant_digest(
    h_tokens: list[str],
    edge_tokens: dict[tuple[int, int], str],
    offset_token: str,
) -> str:
    """Refinement-only fallback digest: invariant, possibly not injective."""
    n = len(h_tokens)
    colors, _ = _refined_colors(h_tokens, edge_tokens)
    node_part = ",".join(
        f"{color}:{h_tokens[i]}" for i, color in sorted(
            enumerate(colors), key=lambda item: (item[1], h_tokens[item[0]])
        )
    )
    edge_part = ",".join(
        sorted(
            f"{min(colors[i], colors[j])}-{max(colors[i], colors[j])}:{token}"
            for (i, j), token in edge_tokens.items()
        )
    )
    return _sha(f"wl|{n}|{node_part}|{edge_part}|{offset_token}")


def _tokens(
    hamiltonian: IsingHamiltonian, flip: bool
) -> tuple[list[str], dict[tuple[int, int], str], str]:
    sign = -1.0 if flip else 1.0
    h_tokens = [_ftok(sign * value) for value in hamiltonian.linear]
    edge_tokens = {
        pair: _ftok(value) for pair, value in hamiltonian.quadratic.items()
    }
    return h_tokens, edge_tokens, _ftok(hamiltonian.offset)


def canonical_ising_key(
    hamiltonian: IsingHamiltonian,
    search_budget: int = DEFAULT_SEARCH_BUDGET,
    max_nodes: int = DEFAULT_MAX_CANONICAL_NODES,
) -> CanonicalKey:
    """Symmetry-aware structural key of an Ising instance.

    Invariant under variable relabeling and the global ``h -> -h`` flip;
    collision-free across non-equivalent instances whenever ``complete``
    (the canonical form *is* the instance up to relabeling, so equal
    digests imply genuine equivalence, SHA collisions aside).

    Args:
        hamiltonian: The instance.
        search_budget: Individualization-refinement node budget.
        max_nodes: Skip the full search above this size and return the
            refinement-only invariant digest.
    """
    n = hamiltonian.num_qubits
    candidates = []
    for flip in (False, True):
        h_tokens, edge_tokens, offset_token = _tokens(hamiltonian, flip)
        if n <= max_nodes:
            found = _canonical_search(
                h_tokens, edge_tokens, offset_token, search_budget
            )
            if found is not None:
                form, perm = found
                candidates.append((form, perm, flip, True))
                continue
        candidates.append(
            (
                _invariant_digest(h_tokens, edge_tokens, offset_token),
                list(range(n)),
                flip,
                False,
            )
        )
    complete = all(candidate[3] for candidate in candidates)
    if complete:
        form, perm, flip, _ = min(candidates, key=lambda c: c[0])
        return CanonicalKey(
            digest=_sha(repr(form)),
            permutation=tuple(perm),
            flipped=flip,
            complete=True,
        )
    # Budget-capped: combine both flips' invariant digests symmetrically so
    # the key stays flip-invariant even though no witness is available.
    digests = sorted(str(candidate[0]) for candidate in candidates)
    return CanonicalKey(
        digest=_sha("|".join(digests)),
        permutation=tuple(range(n)),
        flipped=False,
        complete=False,
    )


def rehydrate_spins(
    spins: "tuple[int, ...]", key: CanonicalKey
) -> tuple[int, ...]:
    """Map a canonical-space assignment back into the instance's own frame.

    Args:
        spins: Assignment indexed by canonical rank.
        key: The instance's canonical key (carries permutation + flip).
    """
    sign = -1 if key.flipped else 1
    return tuple(sign * spins[key.permutation[i]] for i in range(len(spins)))


def canonicalize_spins(
    spins: "tuple[int, ...]", key: CanonicalKey
) -> tuple[int, ...]:
    """Map an instance-frame assignment into the canonical frame.

    The inverse of :func:`rehydrate_spins`: a solution found on one
    instance canonicalizes here and rehydrates into *any* equivalent
    instance's frame — the transfer the recursive solver's cross-tree
    leaf dedup uses (deep sub-problems frequently coincide up to
    relabeling/flip, independent of where in the tree they sit).

    Args:
        spins: Assignment in the instance's own variable order.
        key: The instance's canonical key (carries permutation + flip).
    """
    sign = -1 if key.flipped else 1
    canonical = [0] * len(spins)
    for original, rank in enumerate(key.permutation):
        canonical[rank] = sign * spins[original]
    return tuple(canonical)
