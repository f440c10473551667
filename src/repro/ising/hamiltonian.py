"""The :class:`IsingHamiltonian` problem encoding (paper Eq. 1).

``C(z) = sum_i h_i z_i + sum_{i<j} J_ij z_i z_j + offset`` over spins
``z_i in {-1, +1}``. Linear coefficients live in a dense vector ``h``;
quadratic coefficients in a coupling table of two read-only arrays, the
``(i, j)`` pairs with ``i < j`` and their values, which ``quadratic``
hands out as a dict. The class is immutable-by-convention: transforms
return new instances, and instances may share one coupling table.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import HamiltonianError
from repro.graphs.model import ProblemGraph
from repro.utils.rng import ensure_rng

#: The coupling table of every edge-free instance.
_NO_PAIRS = np.zeros((0, 2), dtype=np.int64)
_NO_COUPLINGS = np.zeros(0)
_NO_PAIRS.setflags(write=False)
_NO_COUPLINGS.setflags(write=False)


def _coupling_table(terms: dict) -> tuple[np.ndarray, np.ndarray]:
    """A normalised ``{(i, j): J}`` dict as read-only ``(pairs, values)``.

    Two arrays hold a term in 24 bytes, where a dict entry with its tuple
    key and int objects takes over 100.
    """
    if not terms:
        return _NO_PAIRS, _NO_COUPLINGS
    pairs = np.array(list(terms), dtype=np.int64)
    values = np.array(list(terms.values()), dtype=float)
    pairs.setflags(write=False)
    values.setflags(write=False)
    return pairs, values


class IsingHamiltonian:
    """An Ising cost function on ``num_qubits`` spin variables.

    Args:
        num_qubits: Number of spin variables.
        linear: Mapping or sequence of linear coefficients ``h_i``. A mapping
            may be sparse; a sequence must have length ``num_qubits``.
        quadratic: Mapping ``(i, j) -> J_ij``. Keys are normalised to
            ``i < j``; duplicate keys that normalise to the same pair are an
            error; zero coefficients are dropped.
        offset: Constant energy offset.
    """

    def __init__(
        self,
        num_qubits: int,
        linear: "Mapping[int, float] | Sequence[float] | None" = None,
        quadratic: "Mapping[tuple[int, int], float] | None" = None,
        offset: float = 0.0,
    ) -> None:
        if num_qubits < 0:
            raise HamiltonianError(f"num_qubits must be non-negative, got {num_qubits}")
        self._num_qubits = num_qubits
        self._h = np.zeros(num_qubits, dtype=float)
        if linear is not None:
            if isinstance(linear, Mapping):
                for index, value in linear.items():
                    self._check_qubit(index)
                    self._h[index] = float(value)
            else:
                values = list(linear)
                if len(values) != num_qubits:
                    raise HamiltonianError(
                        f"linear sequence has length {len(values)}, "
                        f"expected {num_qubits}"
                    )
                self._h = np.asarray(values, dtype=float)
        terms: dict[tuple[int, int], float] = {}
        if quadratic is not None:
            for (i, j), value in quadratic.items():
                self._check_qubit(i)
                self._check_qubit(j)
                if i == j:
                    raise HamiltonianError(f"diagonal term ({i}, {j}) is not allowed")
                key = (min(i, j), max(i, j))
                if key in terms:
                    raise HamiltonianError(f"duplicate quadratic term for pair {key}")
                if value != 0.0:
                    terms[key] = float(value)
        self._pairs, self._couplings = _coupling_table(terms)
        self._offset = float(offset)
        # Energy-spectrum memo (see energy_landscape): 2**n floats, built
        # lazily, safe because the class is immutable-by-convention.
        self._landscape: "np.ndarray | None" = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls,
        graph: ProblemGraph,
        weights: "str | None" = "graph",
        seed: "int | np.random.Generator | None" = None,
    ) -> "IsingHamiltonian":
        """Build a Hamiltonian from a problem graph.

        Args:
            graph: The problem graph; each edge becomes a quadratic term.
            weights: ``"graph"`` uses the stored edge weights; ``"random_pm1"``
                draws J uniformly from {-1, +1} (the paper's benchmark setup,
                Sec. 4.1); ``None`` sets every J to 1.0.
            seed: RNG for ``"random_pm1"``.

        Returns:
            A Hamiltonian with ``h = 0`` everywhere (as in the paper's
            benchmarks) and one J term per edge.
        """
        rng = ensure_rng(seed)
        quadratic: dict[tuple[int, int], float] = {}
        for u, v, weight in graph.edges():
            if weights == "graph":
                coupling = weight
            elif weights == "random_pm1":
                coupling = float(rng.choice((-1.0, 1.0)))
            elif weights is None:
                coupling = 1.0
            else:
                raise HamiltonianError(f"unknown weights mode {weights!r}")
            quadratic[(u, v)] = coupling
        return cls(graph.num_nodes, quadratic=quadratic)

    @classmethod
    def maxcut(cls, graph: ProblemGraph) -> "IsingHamiltonian":
        """Max-Cut encoding (Sec. 2.1): minimise ``sum w_ij * z_i z_j``.

        Spins on opposite sides of the cut contribute ``-w_ij``; minimising
        the Hamiltonian maximises total cut weight. The offset makes the
        optimum value equal ``-cut_weight`` shifted so that
        ``cut_weight = (offset_total - C(z)) / 2`` with
        ``offset_total = sum w_ij``.
        """
        quadratic = {(u, v): w for u, v, w in graph.edges()}
        return cls(graph.num_nodes, quadratic=quadratic)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Number of spin variables."""
        return self._num_qubits

    @property
    def offset(self) -> float:
        """Constant energy offset."""
        return self._offset

    @property
    def linear(self) -> np.ndarray:
        """Copy of the dense linear coefficient vector ``h``."""
        return self._h.copy()

    @property
    def quadratic(self) -> dict[tuple[int, int], float]:
        """The quadratic coefficients as a new dict ``{(i, j): J_ij}``, i < j."""
        return dict(self._terms())

    @property
    def num_terms(self) -> int:
        """Number of non-zero quadratic terms, the paper's ``|J|``."""
        return len(self._couplings)

    def _terms(self) -> "Iterable[tuple[tuple[int, int], float]]":
        """``((i, j), J_ij)`` in table order, as Python ints and floats."""
        return zip(map(tuple, self._pairs.tolist()), self._couplings.tolist())

    def linear_coefficient(self, i: int) -> float:
        """The coefficient ``h_i``."""
        self._check_qubit(i)
        return float(self._h[i])

    def quadratic_coefficient(self, i: int, j: int) -> float:
        """The coefficient ``J_ij`` (0.0 when absent)."""
        self._check_qubit(i)
        self._check_qubit(j)
        if i == j:
            raise HamiltonianError("no diagonal quadratic coefficients exist")
        hit = np.flatnonzero(
            (self._pairs[:, 0] == min(i, j)) & (self._pairs[:, 1] == max(i, j))
        )
        return float(self._couplings[hit[0]]) if hit.size else 0.0

    def has_zero_linear(self, tolerance: float = 0.0) -> bool:
        """True when every ``|h_i| <= tolerance`` — the paper's symmetry condition."""
        return bool(np.all(np.abs(self._h) <= tolerance))

    def degree(self, i: int) -> int:
        """Number of quadratic terms touching qubit ``i``."""
        self._check_qubit(i)
        return int(np.count_nonzero(self._pairs == i))

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Qubits coupled to qubit ``i`` by a non-zero J."""
        self._check_qubit(i)
        pairs = self._pairs
        out = pairs[pairs[:, 0] == i, 1].tolist() + pairs[pairs[:, 1] == i, 0].tolist()
        return tuple(sorted(out))

    def to_graph(self) -> ProblemGraph:
        """Problem graph whose edges are the non-zero quadratic terms."""
        return ProblemGraph(
            self._num_qubits, [(i, j, J) for (i, j), J in self._terms()]
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, spins: Sequence[int]) -> float:
        """Cost ``C(z)`` of one spin assignment (paper Eq. 1).

        Args:
            spins: Sequence of ±1 of length ``num_qubits``.
        """
        z = np.asarray(spins, dtype=float)
        if z.shape != (self._num_qubits,):
            raise HamiltonianError(
                f"expected {self._num_qubits} spins, got shape {z.shape}"
            )
        if not np.all(np.abs(z) == 1.0):
            raise HamiltonianError("spins must be +1 or -1")
        value = float(self._h @ z) + self._offset
        for (i, j), coupling in self._terms():
            value += coupling * z[i] * z[j]
        return value

    def evaluate_many(self, spins: np.ndarray) -> np.ndarray:
        """Vectorised cost of a batch of assignments.

        Args:
            spins: Array of shape ``(batch, num_qubits)`` with ±1 entries.

        Returns:
            Array of shape ``(batch,)`` of costs.
        """
        z = np.asarray(spins, dtype=float)
        if z.ndim != 2 or z.shape[1] != self._num_qubits:
            raise HamiltonianError(
                f"expected shape (batch, {self._num_qubits}), got {z.shape}"
            )
        values = z @ self._h + self._offset
        if len(self._couplings):
            pairs = self._pairs
            values = values + (z[:, pairs[:, 0]] * z[:, pairs[:, 1]]) @ self._couplings
        return values

    def energy_landscape(self) -> np.ndarray:
        """Cost of all ``2**n`` assignments, indexed by bitstring integer.

        Index ``b`` encodes qubit i as bit i (LSB first); bit 0 means spin +1.
        Memory is O(2**n); guarded to 26 qubits. The spectrum is computed
        once per instance and memoized — it doubles as the fused QAOA
        cost-layer diagonal and the brute-force energy table, both of which
        hit it repeatedly in the training hot loop. The returned array is
        the shared read-only memo, not a copy.

        Built by the bit-doubling recurrence rather than a ``|terms| x 2**n``
        sign-matrix pass: adding qubit ``k`` doubles the table as
        ``E = concat(E_half + c_k, E_half - c_k)`` where
        ``c_k[b] = h_k + sum_{j<k} J_jk z_j(b)`` is itself built by the same
        doubling — O(2**n) work and memory total, touching each energy once.
        """
        if self._landscape is not None:
            return self._landscape
        if self._num_qubits > 26:
            raise HamiltonianError(
                f"energy_landscape is limited to 26 qubits, got {self._num_qubits}"
            )
        n = self._num_qubits
        # Couplings grouped by their higher-indexed endpoint: qubit k's
        # contribution depends only on the spins of qubits j < k.
        lower: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for (i, j), coupling in self._terms():
            lower[j].append((i, coupling))
        landscape = np.full(1, self._offset)
        for k in range(n):
            # c[b] = h_k + sum_{j<k} J_jk z_j(b) over the 2**k settled bits,
            # doubled bit-by-bit (bit j = 0 means z_j = +1).
            contrib = np.full(1, self._h[k])
            by_qubit = dict(lower[k])
            for j in range(k):
                coupling = by_qubit.get(j)
                if coupling is None:
                    contrib = np.concatenate([contrib, contrib])
                else:
                    contrib = np.concatenate(
                        [contrib + coupling, contrib - coupling]
                    )
            landscape = np.concatenate(
                [landscape + contrib, landscape - contrib]
            )
        landscape.setflags(write=False)
        self._landscape = landscape
        return landscape

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def with_fields(self, linear: np.ndarray, offset: float) -> "IsingHamiltonian":
        """An instance with new fields and offset and this one's couplings.

        The new instance shares this one's coupling table, so the cells of
        one partition hold the table once. It keeps ``linear`` (a float
        vector of length ``num_qubits``) without copying it.
        """
        linear = np.asarray(linear, dtype=float)
        if linear.shape != (self._num_qubits,):
            raise HamiltonianError(
                f"expected {self._num_qubits} fields, got shape {linear.shape}"
            )
        instance = IsingHamiltonian.__new__(IsingHamiltonian)
        instance._num_qubits = self._num_qubits
        instance._h = linear
        instance._pairs, instance._couplings = self._pairs, self._couplings
        instance._offset = float(offset)
        instance._landscape = None
        return instance

    def with_offset(self, offset: float) -> "IsingHamiltonian":
        """Copy with the offset replaced."""
        return self.with_fields(self._h.copy(), offset)

    def scaled(self, factor: float) -> "IsingHamiltonian":
        """Copy with every coefficient (h, J, offset) multiplied by ``factor``."""
        return IsingHamiltonian(
            self._num_qubits,
            self._h * factor,
            {k: v * factor for k, v in self._terms()},
            self._offset * factor,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IsingHamiltonian):
            return NotImplemented
        return (
            self._num_qubits == other._num_qubits
            and np.array_equal(self._h, other._h)
            and self.quadratic == other.quadratic
            and self._offset == other._offset
        )

    def __repr__(self) -> str:
        return (
            f"IsingHamiltonian(num_qubits={self._num_qubits}, "
            f"|J|={self.num_terms}, offset={self._offset})"
        )

    def __getstate__(self) -> dict:
        # Drop the spectrum memo from pickles: 2**n floats would bloat
        # every JobSpec crossing a process boundary, and the receiver can
        # rebuild it bit-identically on first use.
        state = self.__dict__.copy()
        state["_landscape"] = None
        return state

    def content_text(self) -> str:
        """Canonical exact-content serialization (cache-key primitive).

        Bit-faithful: coefficients are rendered with ``float.hex`` (with
        ``-0.0`` normalised to ``0.0``) and quadratic terms sorted by pair,
        so two Hamiltonians produce the same text iff they are equal in the
        sense of :meth:`__eq__`.
        """

        def tok(value: float) -> str:
            return (0.0 if value == 0.0 else float(value)).hex()

        linear = ",".join(tok(v) for v in self._h)
        quadratic = ",".join(
            f"{i}:{j}:{tok(v)}" for (i, j), v in sorted(self._terms())
        )
        return (
            f"n={self._num_qubits}|h={linear}|J={quadratic}|"
            f"offset={tok(self._offset)}"
        )

    def to_dict(self) -> dict:
        """JSON-friendly serialisation."""
        return {
            "num_qubits": self._num_qubits,
            "linear": self._h.tolist(),
            "quadratic": [[i, j, J] for (i, j), J in self._terms()],
            "offset": self._offset,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IsingHamiltonian":
        """Inverse of :meth:`to_dict`."""
        try:
            quadratic = {(int(i), int(j)): float(J) for i, j, J in data["quadratic"]}
            return cls(
                int(data["num_qubits"]),
                data["linear"],
                quadratic,
                float(data["offset"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise HamiltonianError(f"malformed Hamiltonian dict: {exc}") from exc

    def _check_qubit(self, index: int) -> None:
        if not 0 <= index < self._num_qubits:
            raise HamiltonianError(
                f"qubit {index} out of range for {self._num_qubits} qubits"
            )


def random_pm1_hamiltonian(
    graph: ProblemGraph, seed: "int | np.random.Generator | None" = None
) -> IsingHamiltonian:
    """Shorthand for the paper's benchmark Hamiltonians: J in {-1,+1}, h = 0."""
    return IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=seed)
