"""The batched multi-replica annealing engine (vectorized Metropolis core).

FrozenQubits makes classical annealing *embarrassingly batchable*: all
``2**m`` sibling sub-problems share one coupling graph — freezing hotspots
only reshapes the linear coefficients and the offset — so the planner's
probes, the solver's budget fallbacks, and the suite-level ``C_min``
estimates all anneal families of Hamiltonians that differ in ``h`` alone.
This module runs those families in one pass:

* an :class:`AnnealStructure` is precomputed **once per coupling topology**
  (CSR-style neighbor arrays plus a greedy graph coloring) and memoized
  process-wide, so repeated probe passes over the same fan-out never
  rebuild it;
* :func:`anneal_many` runs all restarts as a **replica axis** and all
  sibling Hamiltonians as a **batch axis**. Sweeps are site-sequential at
  the granularity of color classes: sites within a class share no coupling,
  so updating them together is *exactly* equivalent to visiting them one
  after another — per-replica Metropolis semantics (each flip sees every
  earlier flip's updated local field) are preserved, while each update step
  is a handful of array operations over ``sites x siblings x replicas``;
* local fields are maintained **incrementally** (scatter-add of the flipped
  spins' coupling contributions), so a sweep costs O(N + |J|) work per
  replica just like a per-spin loop — but as a few vectorized passes
  instead of N Python iterations.

Seeding contract (what makes batched results cacheable per sibling):

* every sibling ``b`` owns an independent generator derived from
  ``seeds[b]`` — no RNG state is ever shared across siblings;
* a sibling's draw order is fixed: first the initial spins of all replicas
  (one ``choice((-1, +1), size=(num_restarts, n))``), then one uniform
  block ``random((num_restarts, n))`` per sweep;
* replicas are therefore slices of their sibling's stream, and a sibling's
  result depends only on its own ``(hamiltonian, parameters, seed)`` —
  **never on the batch composition**. ``anneal_many([h], seeds=[s])[0]``
  is bit-identical to the same sibling inside any larger batch, which is
  what lets :func:`repro.cache.memo.cached_anneal_many` answer per-sibling
  hits individually and run only the misses.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import HamiltonianError
from repro.ising.annealer import AnnealResult, _validate_anneal_args
from repro.ising.hamiltonian import IsingHamiltonian
from repro.utils.memo import BoundedMemo
from repro.utils.rng import ensure_rng

#: Strict-improvement margin for best-so-far tracking.
_IMPROVEMENT_MARGIN = 1e-12


@dataclass(frozen=True)
class _ColorBlock:
    """One conflict-free update step of a sweep.

    The outgoing directed edges are stored sorted by destination, with
    segment boundaries, so the incremental field update is a contiguous
    ``reduceat`` segment-sum plus one duplicate-free fancy add — much
    faster than a general ``ufunc.at`` scatter.

    Attributes:
        sites: Site indices of this color class (mutually non-adjacent).
        source_positions: For each outgoing directed edge of the class (in
            destination-sorted order), the source site's position within
            ``sites``.
        edge_indices: The directed edges' positions in the structure's
            directed-edge arrays (destination-sorted; used to gather
            per-sibling weights).
        unique_destinations: Distinct destination sites, ascending.
        segment_starts: Start offset of each destination's edge run.
    """

    sites: np.ndarray
    source_positions: np.ndarray
    edge_indices: np.ndarray
    unique_destinations: np.ndarray
    segment_starts: np.ndarray


class AnnealStructure:
    """Precomputed neighbor structure of one coupling topology.

    Built from the *pairs* of a Hamiltonian's quadratic terms only — not
    the coefficient values — so every sibling of a FrozenQubits fan-out
    (and every instance of a sweep that shares a graph) reuses one
    structure. Holds the sorted pair array, the directed-edge CSR-style
    arrays, and a greedy coloring partitioning the sites into
    conflict-free update blocks.
    """

    def __init__(self, num_qubits: int, pairs: np.ndarray) -> None:
        self.num_qubits = int(num_qubits)
        self.pairs = pairs  # (nnz, 2), int64, lexicographically sorted
        nnz = len(pairs)
        if nnz:
            self.src = np.concatenate([pairs[:, 0], pairs[:, 1]])
            self.dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
        else:
            self.src = np.zeros(0, dtype=np.int64)
            self.dst = np.zeros(0, dtype=np.int64)
        self.blocks = self._color_blocks()

    @classmethod
    def for_hamiltonian(cls, hamiltonian: IsingHamiltonian) -> "AnnealStructure":
        """The (memoized) structure of a Hamiltonian's coupling graph."""
        pairs = _pair_array(hamiltonian)
        return _memoized_structure(hamiltonian.num_qubits, pairs)

    @property
    def num_colors(self) -> int:
        """Number of conflict-free blocks a sweep is split into."""
        return len(self.blocks)

    def directed_weights(self, hamiltonians: "Sequence[IsingHamiltonian]") -> np.ndarray:
        """Per-sibling coupling values aligned with the directed edges.

        Returns shape ``(len(hamiltonians), 2 * nnz)`` — each row is the
        sibling's J values repeated for both edge directions. Raises when a
        sibling's quadratic support does not match this structure.
        """
        rows = []
        for hamiltonian in hamiltonians:
            quadratic = hamiltonian.quadratic
            if len(quadratic) != len(self.pairs):
                raise HamiltonianError(
                    "hamiltonian does not match the anneal structure: "
                    f"{len(quadratic)} terms vs {len(self.pairs)} pairs"
                )
            try:
                values = np.array(
                    [quadratic[(int(i), int(j))] for i, j in self.pairs],
                    dtype=float,
                )
            except KeyError as exc:
                raise HamiltonianError(
                    f"hamiltonian quadratic support does not match the "
                    f"anneal structure: missing pair {exc}"
                ) from exc
            rows.append(np.concatenate([values, values]))
        return (
            np.asarray(rows, dtype=float)
            if rows
            else np.zeros((0, 2 * len(self.pairs)))
        )

    def _color_blocks(self) -> list[_ColorBlock]:
        """Greedy coloring (highest degree first) into conflict-free blocks.

        Within a block no two sites share a coupling, so a block's flips
        cannot change each other's local fields — sequential and
        simultaneous updates coincide exactly.
        """
        n = self.num_qubits
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for i, j in self.pairs:
            neighbors[int(i)].append(int(j))
            neighbors[int(j)].append(int(i))
        order = sorted(range(n), key=lambda i: (-len(neighbors[i]), i))
        colors = np.full(n, -1, dtype=np.int64)
        for site in order:
            used = {colors[j] for j in neighbors[site] if colors[j] >= 0}
            color = 0
            while color in used:
                color += 1
            colors[site] = color
        blocks = []
        for color in range(int(colors.max()) + 1 if n else 0):
            sites = np.where(colors == color)[0]
            if self.src.size:
                edge_indices = np.where(np.isin(self.src, sites))[0]
            else:
                edge_indices = np.zeros(0, dtype=np.int64)
            destinations = self.dst[edge_indices]
            order = np.argsort(destinations, kind="stable")
            edge_indices = edge_indices[order]
            destinations = destinations[order]
            unique_destinations, segment_starts = (
                np.unique(destinations, return_index=True)
                if destinations.size
                else (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
            )
            blocks.append(
                _ColorBlock(
                    sites=sites,
                    source_positions=np.searchsorted(
                        sites, self.src[edge_indices]
                    ),
                    edge_indices=edge_indices,
                    unique_destinations=unique_destinations,
                    segment_starts=segment_starts,
                )
            )
        return blocks


def _pair_array(hamiltonian: IsingHamiltonian) -> np.ndarray:
    pairs = sorted(hamiltonian.quadratic.keys())
    return (
        np.asarray(pairs, dtype=np.int64)
        if pairs
        else np.zeros((0, 2), dtype=np.int64)
    )


#: Process-wide structure memo: coupling-topology key -> AnnealStructure.
#: Bounded so a sweep over many distinct graphs cannot accumulate
#: unbounded index arrays.
_STRUCTURE_MEMO: "BoundedMemo[AnnealStructure]" = BoundedMemo(max_entries=32)


def _memoized_structure(num_qubits: int, pairs: np.ndarray) -> AnnealStructure:
    return _STRUCTURE_MEMO.get_or_build(
        (int(num_qubits), pairs.tobytes()),
        lambda: AnnealStructure(num_qubits, pairs),
    )


def anneal_many(
    hamiltonians: "Sequence[IsingHamiltonian]",
    num_sweeps: int = 500,
    num_restarts: int = 4,
    initial_temperature: float = 5.0,
    final_temperature: float = 0.01,
    seeds: "Sequence[int | np.random.Generator | None] | None" = None,
    seed: "int | np.random.Generator | None" = None,
    sweep_callback: "Callable[[int, np.ndarray, np.ndarray], None] | None" = None,
) -> list[AnnealResult]:
    """Anneal a batch of Hamiltonians in one vectorized multi-replica pass.

    Siblings sharing a coupling topology (same qubit count, same quadratic
    pairs — the FrozenQubits fan-out case, where only ``h`` and the offset
    differ per assignment) are grouped onto one precomputed
    :class:`AnnealStructure` and swept together; a mixed batch simply runs
    one group per topology, still inside this single call.

    Args:
        hamiltonians: The batch. May be empty (returns ``[]``).
        num_sweeps: Metropolis sweeps per replica.
        num_restarts: Independent replicas per sibling (the restart axis).
        initial_temperature: Start of the geometric cooling schedule.
        final_temperature: End of the schedule.
        seeds: Per-sibling seeds (int, generator, or ``None`` for fresh
            entropy), one per Hamiltonian. This is the cache-friendly form:
            a sibling's result is a pure function of its own seed (see the
            module docstring's seeding contract), so integer-seeded
            siblings can be memoized individually.
        seed: Convenience alternative to ``seeds``: one parent seed from
            which per-sibling integer seeds are spawned
            (:func:`repro.utils.rng.spawn_seeds` order, i.e. batch-order
            dependent — prefer explicit ``seeds`` when caching).
        sweep_callback: Test hook, called after every sweep with
            ``(sweep_index, spins, energies)`` where ``spins`` has shape
            ``(n, batch, replicas)`` and ``energies`` ``(batch, replicas)``
            for the currently-running topology group (copies; mutation has
            no effect on the run).

    Returns:
        One :class:`~repro.ising.annealer.AnnealResult` per input, in input
        order: best value/spins over the replica axis, plus per-replica
        best energies in ``restart_values``.

    Raises:
        HamiltonianError: Invalid parameters, a zero-qubit sibling, or a
            ``seeds`` length mismatch.
    """
    hamiltonians = list(hamiltonians)
    if seeds is not None and seed is not None:
        raise HamiltonianError("pass either seeds or seed, not both")
    if seeds is None:
        if seed is not None:
            from repro.utils.rng import spawn_seeds

            seeds = spawn_seeds(seed, len(hamiltonians))
        else:
            seeds = [None] * len(hamiltonians)
    if len(seeds) != len(hamiltonians):
        raise HamiltonianError(
            f"got {len(seeds)} seeds for {len(hamiltonians)} hamiltonians"
        )
    if not hamiltonians:
        return []
    for hamiltonian in hamiltonians:
        _validate_anneal_args(
            hamiltonian.num_qubits,
            num_sweeps,
            num_restarts,
            initial_temperature,
            final_temperature,
        )

    # Group the batch by coupling topology; each group shares one
    # structure (and one coloring) and sweeps as a single array program.
    groups: "OrderedDict[tuple[int, bytes], list[int]]" = OrderedDict()
    for index, hamiltonian in enumerate(hamiltonians):
        key = (hamiltonian.num_qubits, _pair_array(hamiltonian).tobytes())
        groups.setdefault(key, []).append(index)

    results: list[AnnealResult | None] = [None] * len(hamiltonians)
    for members in groups.values():
        structure = AnnealStructure.for_hamiltonian(hamiltonians[members[0]])
        group_results = _anneal_group(
            [hamiltonians[i] for i in members],
            structure,
            num_sweeps,
            num_restarts,
            initial_temperature,
            final_temperature,
            [seeds[i] for i in members],
            sweep_callback,
        )
        for index, result in zip(members, group_results):
            results[index] = result
    return [result for result in results if result is not None]


def _anneal_group(
    hamiltonians: list[IsingHamiltonian],
    structure: AnnealStructure,
    num_sweeps: int,
    num_restarts: int,
    initial_temperature: float,
    final_temperature: float,
    seeds: list,
    sweep_callback,
) -> list[AnnealResult]:
    """Sweep one topology group: arrays are ``(n, batch, replicas)``."""
    n = structure.num_qubits
    batch = len(hamiltonians)
    replicas = num_restarts
    rngs = [ensure_rng(s) for s in seeds]

    linear = np.stack([h.linear for h in hamiltonians], axis=0)  # (B, n)
    offsets = np.array([h.offset for h in hamiltonians])  # (B,)
    weights = structure.directed_weights(hamiltonians)  # (B, 2nnz)
    pairs = structure.pairs

    # Initial state: per-sibling draws (contract: spins first, then one
    # uniform block per sweep — see module docstring).
    spins = np.empty((n, batch, replicas))
    for b, rng in enumerate(rngs):
        spins[:, b, :] = rng.choice((-1.0, 1.0), size=(replicas, n)).T

    # Local fields h_i + sum_j J_ij z_j, maintained incrementally.
    fields = np.repeat(linear.T[:, :, None], replicas, axis=2)  # (n, B, R)
    if structure.src.size:
        np.add.at(
            fields,
            structure.src,
            weights.T[:, :, None] * spins[structure.dst],
        )

    # Energies: z.h + offset + sum J z_i z_j, per (sibling, replica).
    energy = np.einsum("bn,nbr->br", linear, spins) + offsets[:, None]
    if len(pairs):
        pair_values = weights[:, : len(pairs)]  # (B, nnz) undirected
        energy += np.einsum(
            "bp,pbr->br", pair_values, spins[pairs[:, 0]] * spins[pairs[:, 1]]
        )

    best_energy = energy.copy()
    best_spins = spins.copy()
    cooling = (final_temperature / initial_temperature) ** (
        1.0 / max(num_sweeps - 1, 1)
    )
    temperature = initial_temperature
    block_weights = [
        2.0 * weights[:, block.edge_indices].T[:, :, None]  # (m, B, 1)
        for block in structure.blocks
    ]

    uniforms = np.empty((n, batch, replicas))
    for sweep in range(num_sweeps):
        for b, rng in enumerate(rngs):
            uniforms[:, b, :] = rng.random((replicas, n)).T
        inv_temperature = 1.0 / temperature
        for block, scaled_weights in zip(structure.blocks, block_weights):
            sites = block.sites
            z = spins[sites]
            delta = -2.0 * z * fields[sites]
            # Metropolis acceptance in one expression: for delta <= 0 the
            # clamped exponent is 0, exp is 1, and uniforms < 1 always —
            # the unconditional downhill accept of the Metropolis rule.
            accept = uniforms[sites] < np.exp(
                np.minimum(-delta * inv_temperature, 0.0)
            )
            z_new = np.where(accept, -z, z)
            spins[sites] = z_new
            energy += np.einsum("kbr,kbr->br", delta, accept)
            if block.edge_indices.size:
                # Field maintenance as a segment-sum: flip contributions
                # are gathered in destination-sorted order, reduced per
                # destination run, and added with a duplicate-free fancy
                # index (each destination appears once).
                contributions = scaled_weights * np.where(
                    accept[block.source_positions],
                    z_new[block.source_positions],
                    0.0,
                )
                fields[block.unique_destinations] += np.add.reduceat(
                    contributions, block.segment_starts, axis=0
                )
            improved = energy < best_energy - _IMPROVEMENT_MARGIN
            if improved.any():
                best_energy = np.where(improved, energy, best_energy)
                best_spins[:, improved] = spins[:, improved]
        temperature *= cooling
        if sweep_callback is not None:
            sweep_callback(sweep, spins.copy(), energy.copy())

    results = []
    for b in range(batch):
        winner = int(np.argmin(best_energy[b]))
        results.append(
            AnnealResult(
                value=float(best_energy[b, winner]),
                spins=tuple(int(s) for s in best_spins[:, b, winner]),
                num_sweeps=num_sweeps,
                num_restarts=num_restarts,
                num_replicas=replicas,
                restart_values=tuple(float(v) for v in best_energy[b]),
            )
        )
    return results
