"""The annealing engine: every instance of a call swept as one array program.

FrozenQubits' classical coverage anneals many small instances at once. The
planner's probes, the solver's budget fallbacks and the suite-level
``C_min`` estimates anneal fan-outs of one coupling graph (freezing only
reshapes ``h`` and the offset); the recursive solver's budget-cut nodes
span dozens of coupling topologies per call, most with one instance each.
:func:`anneal_many` sweeps every instance of a call in one program,
whatever the mix of topologies:

* an :class:`AnnealStructure` is precomputed **once per coupling topology**
  (directed-edge arrays plus a greedy graph coloring) and memoized
  process-wide; a call's program is assembled from these;
* the sites of all instances share one ``(rows, replicas)`` array, every
  restart a replica column, with rows **ordered by color**: color ``c`` of
  every instance forms one contiguous *union block*. Sites of one color
  share no coupling, and different instances share none at all, so
  updating a union block at once is *exactly* equivalent to visiting its
  sites one after another. Per-replica Metropolis semantics (each flip sees
  every earlier flip's updated local field) are preserved, and a sweep
  costs a handful of array operations per union color, not per topology;
* local fields are maintained **incrementally**: one sparse product per
  block adds the flipped spins' coupling contributions to their
  neighbours' fields, and another sums the block's energy deltas per
  instance, in site order. A sweep costs O(N + |J|) work per replica, as a
  per-spin loop would.

Seeding contract (what makes batched results cacheable per instance):

* every instance ``b`` owns an independent generator derived from
  ``seeds[b]``; no RNG state is shared across instances, so two entries
  must not pass the same generator object;
* an instance's draw order is fixed: first the initial spins of all
  replicas (one ``choice((-1, +1), size=(num_restarts, n))``), then one
  uniform block ``random((num_restarts, n))`` per sweep. The engine draws
  the blocks of up to eight sweeps with one
  ``random((chunk, num_restarts, n))``, which is the same stream;
* replicas are therefore slices of their instance's stream, and an
  instance's result depends only on its own ``(hamiltonian, parameters,
  seed)``, **never on the batch composition**. ``anneal_many([h],
  seeds=[s])[0]`` is bit-identical to the same instance inside any larger
  batch, which is what lets :func:`repro.cache.memo.cached_anneal_many`
  answer per-instance hits individually and run only the misses.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.exceptions import HamiltonianError
from repro.ising.annealer import AnnealResult, _validate_anneal_args
from repro.ising.hamiltonian import IsingHamiltonian
from repro.utils.memo import BoundedMemo
from repro.utils.rng import ensure_rng

#: Strict-improvement margin for best-so-far tracking.
_IMPROVEMENT_MARGIN = 1e-12

#: Sweeps whose uniforms one generator call draws: amortizes the
#: per-instance draws while bounding the buffer at ``8 x rows x replicas``.
_SWEEP_CHUNK = 8


@dataclass(frozen=True)
class _ColorBlock:
    """One color class of a topology: a conflict-free update step.

    Attributes:
        sites: Site indices of this color class (mutually non-adjacent),
            ascending.
        edge_indices: The directed edges leaving the class, as ascending
            positions in the structure's directed-edge arrays.
    """

    sites: np.ndarray
    edge_indices: np.ndarray


class AnnealStructure:
    """Precomputed neighbor structure of one coupling topology.

    Built from the *pairs* of a Hamiltonian's quadratic terms only — not
    the coefficient values — so every sibling of a FrozenQubits fan-out
    (and every instance of a sweep that shares a graph) reuses one
    structure. Holds the sorted pair array, the directed-edge arrays, and
    a greedy coloring partitioning the sites into conflict-free update
    blocks; :func:`anneal_many` assembles a call's program from these.
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
            blocks.append(
                _ColorBlock(
                    sites=sites,
                    edge_indices=np.where(np.isin(self.src, sites))[0],
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


@dataclass(frozen=True)
class _UnionBlock:
    """One conflict-free update step of a call's flat program.

    Color ``c`` of every instance that has one, as one contiguous row
    slice: instance after instance, each instance's sites ascending.

    Attributes:
        rows: The block's row slice.
        couplings: Sparse ``(rows, block rows)`` matrix of ``2 J``: entry
            ``(d, s)`` couples the block's row ``s`` to destination row
            ``d``, each destination's entries in directed-edge order. A
            flip vector times it is every local field's change.
        instance_sums: Sparse ``(batch, block rows)`` matrix of ones that
            sums a block vector per instance, in site order.
    """

    rows: slice
    couplings: sparse.csr_array
    instance_sums: sparse.csr_array


def _concat(parts: "list[np.ndarray]", dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


def _row_major(rows, columns, values, shape) -> sparse.csr_array:
    """A CSR matrix keeping each row's entries in their given order."""
    order = np.argsort(rows, kind="stable")
    indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(rows, minlength=shape[0]))]
    )
    return sparse.csr_array(
        (values[order], columns[order], indptr), shape=shape
    )


class _FlatProgram:
    """Every instance of one call laid out as one ``(rows, replicas)`` array.

    Rows are ordered by color, then instance, then site, so each union
    color block is a contiguous slice (see :class:`_UnionBlock`).
    Per-instance draws arrive in *instance-major* site order, the
    concatenation of the instances' own site vectors; ``draw_order`` maps
    one layout to the other.

    Attributes:
        sizes: Qubit count of each instance.
        blocks: The union blocks, in color order.
        draw_order: For each row, its position in instance-major order.
        site_rows: Per instance, the rows of its sites in site order.
        row_instance: Batch index of each row.
        linear: ``h`` of each row's site.
        edge_sources: Row of every directed edge's source, instance after
            instance, each in its structure's directed-edge order.
        edge_destinations: Row of every directed edge's destination.
        edge_weights: ``J`` of every directed edge.
        offsets: Each instance's constant offset.
    """

    def __init__(self, hamiltonians: "list[IsingHamiltonian]") -> None:
        structures = [AnnealStructure.for_hamiltonian(h) for h in hamiltonians]
        weights = [
            structure.directed_weights([h])[0]
            for structure, h in zip(structures, hamiltonians)
        ]
        self.sizes = [structure.num_qubits for structure in structures]
        first_site = np.cumsum([0] + self.sizes)

        # Row layout: per color, the instances that have it, in batch order.
        layout: "list[tuple[int, int, list[int]]]" = []
        order_parts = []
        cursor = 0
        for color in range(max(s.num_colors for s in structures)):
            start = cursor
            members = []
            for b, structure in enumerate(structures):
                if color < structure.num_colors:
                    sites = structure.blocks[color].sites
                    members.append(b)
                    order_parts.append(first_site[b] + sites)
                    cursor += len(sites)
            layout.append((start, cursor, members))
        num_rows = cursor
        self.draw_order = np.concatenate(order_parts)
        row_of = np.empty(num_rows, dtype=np.int64)
        row_of[self.draw_order] = np.arange(num_rows)
        self.site_rows = [
            row_of[first_site[b] : first_site[b + 1]]
            for b in range(len(structures))
        ]
        self.row_instance = np.repeat(
            np.arange(len(structures)), self.sizes
        )[self.draw_order]
        self.linear = np.concatenate([h.linear for h in hamiltonians])[
            self.draw_order
        ]
        self.edge_sources = _concat(
            [row_of[first_site[b] + s.src] for b, s in enumerate(structures)],
            np.int64,
        )
        self.edge_destinations = _concat(
            [row_of[first_site[b] + s.dst] for b, s in enumerate(structures)],
            np.int64,
        )
        self.edge_weights = _concat(weights, float)
        self.offsets = np.array([h.offset for h in hamiltonians])

        self.blocks = []
        for color, (start, stop, members) in enumerate(layout):
            edges = [structures[b].blocks[color].edge_indices for b in members]
            sources = _concat(
                [row_of[first_site[b] + structures[b].src[e]] - start
                 for b, e in zip(members, edges)],
                np.int64,
            )
            destinations = _concat(
                [row_of[first_site[b] + structures[b].dst[e]]
                 for b, e in zip(members, edges)],
                np.int64,
            )
            scaled = _concat(
                [2.0 * weights[b][e] for b, e in zip(members, edges)], float
            )
            width = stop - start
            self.blocks.append(
                _UnionBlock(
                    rows=slice(start, stop),
                    couplings=_row_major(
                        destinations, sources, scaled, (num_rows, width)
                    ),
                    instance_sums=_row_major(
                        self.row_instance[start:stop],
                        np.arange(width),
                        np.ones(width),
                        (len(structures), width),
                    ),
                )
            )
        self._gather: "dict[tuple[int, int], np.ndarray]" = {}

    def to_rows(self, draws: np.ndarray, chunk: int, replicas: int) -> np.ndarray:
        """Instance-major draws as one C-ordered ``(chunk, rows, replicas)``.

        ``draws`` is flat: each instance's ``(chunk, replicas, n)`` block,
        instance after instance. One gather reorders it into rows.
        """
        key = (chunk, replicas)
        if key not in self._gather:
            sizes = np.asarray(self.sizes)[self.row_instance]
            first = np.cumsum([0] + self.sizes)[self.row_instance]
            start = chunk * replicas * first + self.draw_order - first
            steps = np.arange(chunk)[:, None, None] * replicas + np.arange(
                replicas
            )
            self._gather[key] = start[:, None] + steps * sizes[:, None]
        return draws[self._gather[key]]

    def uniforms(self, rngs, chunk: int, replicas: int) -> np.ndarray:
        """The next ``chunk`` sweeps' uniforms, shape ``(chunk, rows, R)``.

        Each instance draws one ``random((chunk, replicas, n))`` straight
        into its own slice of one buffer.
        """
        draws = np.empty(chunk * replicas * len(self.draw_order))
        cursor = 0
        for rng, n in zip(rngs, self.sizes):
            size = chunk * replicas * n
            rng.random(out=draws[cursor : cursor + size].reshape(chunk, replicas, n))
            cursor += size
        return self.to_rows(draws, chunk, replicas)

    def energies(self, spins: np.ndarray, fields: np.ndarray) -> np.ndarray:
        """``(batch, replicas)`` energies of ``spins`` with local ``fields``.

        ``C(z) = offset + (z.h + z.f) / 2``, since ``z.f`` counts every
        coupling twice and the field once; each instance sums over its own
        rows only, so the result never depends on the rest of the batch.
        """
        terms = spins * (fields + self.linear[:, None])
        sums = sum(block.instance_sums @ terms[block.rows] for block in self.blocks)
        return self.offsets[:, None] + 0.5 * sums


def anneal_many(
    hamiltonians: "Sequence[IsingHamiltonian]",
    num_sweeps: int = 500,
    num_restarts: int = 4,
    initial_temperature: float = 5.0,
    final_temperature: float = 0.01,
    seeds: "Sequence[int | np.random.Generator | None] | None" = None,
    seed: "int | np.random.Generator | None" = None,
    sweep_callback: "Callable[[int, list[np.ndarray], np.ndarray], None] | None" = None,
) -> list[AnnealResult]:
    """Anneal a batch of Hamiltonians as one multi-replica array program.

    The batch may mix any coupling topologies and sizes. All instances'
    sites are concatenated into one ``(rows, replicas)`` array ordered by
    color (see the module docstring), so every sweep is one pass of a few
    array operations per union color block, whatever the batch holds.

    Args:
        hamiltonians: The batch. May be empty (returns ``[]``).
        num_sweeps: Metropolis sweeps per replica.
        num_restarts: Independent replicas per instance (the restart axis).
        initial_temperature: Start of the geometric cooling schedule.
        final_temperature: End of the schedule.
        seeds: Per-instance seeds (int, generator, or ``None`` for fresh
            entropy), one per Hamiltonian. This is the cache-friendly form:
            an instance's result is a pure function of its own seed (see
            the module docstring's seeding contract), so integer-seeded
            instances can be memoized individually.
        seed: Convenience alternative to ``seeds``: one parent seed from
            which per-instance integer seeds are spawned
            (:func:`repro.utils.rng.spawn_seeds` order, i.e. batch-order
            dependent; prefer explicit ``seeds`` when caching).
        sweep_callback: Test hook, called after every sweep with
            ``(sweep_index, spins, energies)``: ``spins`` is a list, in
            input order, of each instance's ``(n, replicas)`` spins in site
            order, and ``energies`` the ``(batch, replicas)`` running
            energies (copies; mutation has no effect on the run).

    Returns:
        One :class:`~repro.ising.annealer.AnnealResult` per input, in input
        order: best value/spins over the replica axis, plus per-replica
        best energies in ``restart_values``.

    Raises:
        HamiltonianError: Invalid parameters, a zero-qubit instance, or a
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

    program = _FlatProgram(hamiltonians)
    replicas = num_restarts
    rngs = [ensure_rng(s) for s in seeds]

    # Initial state: per-instance draws (contract: spins first, then one
    # uniform block per sweep; see the module docstring).
    spins = program.to_rows(
        np.concatenate(
            [rng.choice((-1.0, 1.0), size=(replicas, n)).ravel()
             for rng, n in zip(rngs, program.sizes)]
        ),
        1,
        replicas,
    )[0]  # (rows, R)

    # Local fields h_i + sum_j J_ij z_j, maintained incrementally.
    fields = np.repeat(program.linear[:, None], replicas, axis=1)
    if program.edge_sources.size:
        np.add.at(
            fields,
            program.edge_sources,
            program.edge_weights[:, None] * spins[program.edge_destinations],
        )

    energy = program.energies(spins, fields)
    best_energy = energy.copy()
    best_spins = spins.copy()
    cooling = (final_temperature / initial_temperature) ** (
        1.0 / max(num_sweeps - 1, 1)
    )
    temperature = initial_temperature

    for sweep in range(num_sweeps):
        step = sweep % _SWEEP_CHUNK
        if step == 0:
            uniforms = program.uniforms(
                rngs, min(_SWEEP_CHUNK, num_sweeps - sweep), replicas
            )  # (chunk, rows, R)
        inv_temperature = 1.0 / temperature
        for block in program.blocks:
            rows = block.rows
            z = spins[rows]
            delta = -2.0 * z * fields[rows]
            # Metropolis acceptance in one expression: for delta <= 0 the
            # clamped exponent is 0, exp is 1, and uniforms < 1 always:
            # the unconditional downhill accept of the Metropolis rule.
            accept = uniforms[step, rows] < np.exp(
                np.minimum(-delta * inv_temperature, 0.0)
            )
            z_new = np.where(accept, -z, z)
            spins[rows] = z_new
            energy += block.instance_sums @ (delta * accept)
            if block.couplings.nnz:
                # Each flipped spin moves its neighbours' fields by 2 J z;
                # the sparse product sums those moves per destination.
                fields += block.couplings @ np.where(accept, z_new, 0.0)
            improved = energy < best_energy - _IMPROVEMENT_MARGIN
            if improved.any():
                best_energy = np.where(improved, energy, best_energy)
                np.copyto(best_spins, spins, where=improved[program.row_instance])
        temperature *= cooling
        if sweep_callback is not None:
            sweep_callback(
                sweep, [spins[rows] for rows in program.site_rows], energy.copy()
            )

    results = []
    for b, rows in enumerate(program.site_rows):
        winner = int(np.argmin(best_energy[b]))
        results.append(
            AnnealResult(
                value=float(best_energy[b, winner]),
                spins=tuple(int(s) for s in best_spins[rows, winner]),
                num_sweeps=num_sweeps,
                num_restarts=num_restarts,
                num_replicas=replicas,
                restart_values=tuple(float(v) for v in best_energy[b]),
            )
        )
    return results
