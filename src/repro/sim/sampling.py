"""Measurement sampling and the :class:`Counts` container.

Counts are keyed by the integer basis index (bit ``i`` = qubit ``i``,
LSB-first); helpers expose bitstring and spin views. The container is
intentionally dict-like so tests can build literals easily.

Every sampler in :mod:`repro.sim` draws through one exact inverse-CDF
sampler, :class:`OutcomeTable`: the cumulative table of a distribution is
built and validated once (``O(2**n)``), and a draw of ``k`` shots sorts
``k`` uniforms and looks them up in it (``O(k log k)``), so the cost per
shot does not grow with the outcome space. A table carries an XOR mask in
``O(1)``, which is how a landscape-class member samples its frame's
distribution with its spins flipped. :func:`draw_flip_masks` draws the
per-shot bit-flip channel that readout and decoherence share, and
:meth:`Counts.from_samples` is the one histogram.
"""

from __future__ import annotations

import copy
from collections.abc import Iterator, Mapping

import numpy as np

from repro.exceptions import SimulationError
from repro.utils.bitstrings import bits_to_spins, int_to_bits
from repro.utils.rng import ensure_rng


class Counts(Mapping):
    """Histogram of measurement outcomes.

    Args:
        data: Map basis-state integer -> shot count.
        num_qubits: Number of measured qubits (defines key range).
    """

    def __init__(self, data: Mapping[int, int], num_qubits: int) -> None:
        if num_qubits < 0:
            raise SimulationError(f"num_qubits must be >= 0, got {num_qubits}")
        self._num_qubits = num_qubits
        size = 1 << num_qubits
        cleaned: dict[int, int] = {}
        for key, value in data.items():
            if not 0 <= key < size:
                raise SimulationError(
                    f"outcome {key} out of range for {num_qubits} qubits"
                )
            if value < 0:
                raise SimulationError(f"negative count for outcome {key}")
            if value:
                cleaned[int(key)] = int(value)
        self._data = cleaned

    @classmethod
    def from_arrays(
        cls, keys: np.ndarray, counts: np.ndarray, num_qubits: int
    ) -> "Counts":
        """Vectorized constructor from aligned key/count arrays.

        Validates with array ops instead of a Python loop per outcome —
        the fast path for samplers and decoders that already hold arrays.

        Args:
            keys: Outcome integers (any integer dtype; duplicates summed).
            counts: Shot counts aligned with ``keys``.
            num_qubits: Number of measured qubits (defines the key range).
        """
        if num_qubits < 0:
            raise SimulationError(f"num_qubits must be >= 0, got {num_qubits}")
        keys = np.asarray(keys, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if keys.shape != counts.shape or keys.ndim != 1:
            raise SimulationError(
                f"keys and counts must be aligned 1-D arrays, got "
                f"{keys.shape} and {counts.shape}"
            )
        if keys.size:
            if int(keys.min()) < 0 or int(keys.max()) >= (1 << num_qubits):
                raise SimulationError(
                    f"outcome out of range for {num_qubits} qubits"
                )
            if int(counts.min()) < 0:
                raise SimulationError("negative count")
        nonzero = counts != 0
        keys, counts = keys[nonzero], counts[nonzero]
        unique, inverse = np.unique(keys, return_inverse=True)
        if unique.size != keys.size:
            counts = np.bincount(inverse, weights=counts).astype(np.int64)
            keys = unique
        instance = cls.__new__(cls)
        instance._num_qubits = num_qubits
        instance._data = dict(zip(keys.tolist(), counts.tolist()))
        return instance

    @classmethod
    def from_samples(cls, outcomes: np.ndarray, num_qubits: int) -> "Counts":
        """Histogram of individual shot outcomes, keys ascending."""
        keys, counts = np.unique(
            np.asarray(outcomes, dtype=np.int64), return_counts=True
        )
        return cls.from_arrays(keys, counts, num_qubits)

    @property
    def num_qubits(self) -> int:
        """Number of measured qubits."""
        return self._num_qubits

    @property
    def total_shots(self) -> int:
        """Sum of all counts."""
        return sum(self._data.values())

    def __getitem__(self, key: int) -> int:
        return self._data[key]

    def __iter__(self) -> Iterator[int]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def probability(self, key: int) -> float:
        """Empirical probability of an outcome."""
        total = self.total_shots
        if total == 0:
            raise SimulationError("counts are empty")
        return self._data.get(key, 0) / total

    def most_common(self, k: "int | None" = None) -> list[tuple[int, int]]:
        """Outcomes by descending count (ties by key)."""
        ranked = sorted(self._data.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked if k is None else ranked[:k]

    def spin_items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Iterate ``(spins, count)`` pairs."""
        for key, count in self._data.items():
            yield bits_to_spins(int_to_bits(key, self._num_qubits)), count

    def keys_array(self) -> np.ndarray:
        """Outcome keys as an int64 array, in iteration order."""
        return np.fromiter(self._data.keys(), dtype=np.int64, count=len(self._data))

    def counts_array(self) -> np.ndarray:
        """Shot counts as an int64 array, aligned with :meth:`keys_array`."""
        return np.fromiter(
            self._data.values(), dtype=np.int64, count=len(self._data)
        )

    def spins_matrix(self) -> np.ndarray:
        """All outcomes as a ``(len(self), num_qubits)`` ±1 spin matrix.

        Row order matches :meth:`keys_array`; together with
        ``IsingHamiltonian.evaluate_many`` this is the vectorized
        replacement for looping :meth:`spin_items` — the hot path when
        scanning thousands of sampled outcomes for the best assignment.
        """
        keys = self.keys_array()
        bits = (keys[:, None] >> np.arange(self._num_qubits, dtype=np.int64)) & 1
        return 1 - 2 * bits

    def map_outcomes(self, transform) -> "Counts":
        """New Counts with every key passed through ``transform`` (merging
        collisions); one Python call per outcome, so array-shaped maps
        such as :meth:`flip_all_bits` go through :meth:`from_arrays`."""
        merged: dict[int, int] = {}
        for key, count in self._data.items():
            new_key = int(transform(key))
            merged[new_key] = merged.get(new_key, 0) + count
        return Counts(merged, self._num_qubits)

    def flip_all_bits(self) -> "Counts":
        """Counts of the spin-flipped distribution (Sec. 3.7.2 mirror)."""
        mask = (1 << self._num_qubits) - 1
        return Counts.from_arrays(
            self.keys_array() ^ mask, self.counts_array(), self._num_qubits
        )

    def merge(self, other: "Counts") -> "Counts":
        """Shot-wise union of two histograms over the same qubit count."""
        if other.num_qubits != self._num_qubits:
            raise SimulationError(
                f"cannot merge counts over {other.num_qubits} qubits into "
                f"{self._num_qubits}"
            )
        merged = dict(self._data)
        for key, count in other.items():
            merged[key] = merged.get(key, 0) + count
        return Counts(merged, self._num_qubits)

    def __repr__(self) -> str:
        return (
            f"Counts(num_qubits={self._num_qubits}, outcomes={len(self._data)}, "
            f"shots={self.total_shots})"
        )


class OutcomeTable:
    """Cumulative table of one outcome distribution, for exact sampling.

    Built and validated once from a probability vector of length
    ``2**num_qubits``: no entry below ``-1e-9`` (smaller negatives are
    simulator round-off and count as zero) and a positive total. The
    vector need not be normalised; the table samples ``p / p.sum()``.

    Attributes:
        cdf: Read-only running sum of the clipped probabilities.
        total: ``cdf[-1]``, the unnormalised total mass.
        mask: XOR mask on every drawn outcome; the masked table samples
            ``p[x ^ mask]``.
        num_qubits: Width of the outcome space.
    """

    __slots__ = ("cdf", "total", "mask", "num_qubits")

    def __init__(self, probs: np.ndarray, num_qubits: int) -> None:
        p = np.asarray(probs, dtype=float)
        if p.shape != (1 << num_qubits,):
            raise SimulationError(
                f"probability vector must have length {1 << num_qubits}, "
                f"got {p.shape}"
            )
        lowest = p.min()
        if lowest < -1e-9:
            raise SimulationError("probabilities must be non-negative")
        cdf = np.cumsum(np.clip(p, 0.0, None) if lowest < 0 else p)
        total = float(cdf[-1])
        if not 0.0 < total < np.inf:
            raise SimulationError(
                f"probability vector must have a positive finite sum, got {total}"
            )
        cdf.flags.writeable = False
        self.cdf = cdf
        self.total = total
        self.mask = 0
        self.num_qubits = num_qubits

    def masked(self, mask: int) -> "OutcomeTable":
        """The same table with its outcomes XORed by ``mask`` (``O(1)``)."""
        if not 0 <= mask < 1 << self.num_qubits:
            raise SimulationError(
                f"mask {mask} out of range for {self.num_qubits} qubits"
            )
        table = copy.copy(self)
        table.mask ^= int(mask)
        return table

    def draw(self, shots: int, rng: np.random.Generator) -> np.ndarray:
        """``shots`` independent outcomes as an int64 array.

        Sorted uniforms keep the binary searches cache-friendly (the
        outcomes of an unmasked table come out ascending). The search
        finds the first running sum above ``u * total``, which always
        adds mass, and it always finds one: a generator's uniforms are at
        most ``1 - 2**-53``, and ``(1 - 2**-53) * total`` rounds below
        ``total`` for every ``total > 2**-1022``. (An index past the end,
        which only a tinier total or a stub generator could give, fails
        the outcome range check of :class:`Counts`.)
        """
        uniforms = rng.random(shots)
        uniforms.sort()
        outcomes = np.searchsorted(self.cdf, uniforms * self.total, side="right")
        if self.mask:
            outcomes ^= self.mask
        return outcomes


def outcome_table(
    probs: "np.ndarray | OutcomeTable", num_qubits: int
) -> OutcomeTable:
    """``probs`` as an :class:`OutcomeTable` (a table passes through)."""
    if isinstance(probs, OutcomeTable):
        if probs.num_qubits != num_qubits:
            raise SimulationError(
                f"outcome table over {probs.num_qubits} qubits, expected "
                f"{num_qubits}"
            )
        return probs
    return OutcomeTable(probs, num_qubits)


def draw_flip_masks(
    flip_probabilities: np.ndarray, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-shot XOR masks of independent bit flips.

    Bit ``q`` of each mask is set with probability
    ``flip_probabilities[q]``: the readout (and folded decoherence)
    channel, drawn as one ``(shots, n)`` matrix.
    """
    flips = rng.random((shots, flip_probabilities.size)) < flip_probabilities
    return flips @ (1 << np.arange(flip_probabilities.size, dtype=np.int64))


def sample_counts(
    probs: "np.ndarray | OutcomeTable",
    shots: int,
    num_qubits: int,
    seed: "int | np.random.Generator | None" = None,
) -> Counts:
    """Draw ``shots`` outcomes from a distribution and histogram them.

    Args:
        probs: Probability vector of length ``2**num_qubits`` (need not be
            normalised; see :class:`OutcomeTable` for the checks), or a
            prebuilt :class:`OutcomeTable`, possibly masked.
        shots: Number of samples.
        num_qubits: Qubit count (defines the key space).
        seed: RNG seed or generator.
    """
    if shots < 0:
        raise SimulationError(f"shots must be >= 0, got {shots}")
    table = outcome_table(probs, num_qubits)
    return Counts.from_samples(table.draw(shots, ensure_rng(seed)), num_qubits)
