"""Measurement sampling and the :class:`Counts` histogram.

A :class:`Counts` is two read-only int64 arrays: the outcomes, keyed by
basis index (bit ``i`` = qubit ``i``, LSB-first) and ascending, and their
counts. Samplers, decoders and the mirror flip build and read it as
arrays; it is also a ``Mapping``, so tests compare it with dict literals.

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
from repro.utils.rng import ensure_rng


class Counts(Mapping):
    """Histogram of measurement outcomes, iterated in ascending order.

    Both constructors sum duplicate outcomes, drop zero counts, and reject
    outcomes outside ``[0, 2**num_qubits)`` and negative counts.

    Args:
        data: Map basis-state integer -> shot count.
        num_qubits: Number of measured qubits (defines key range).
    """

    __slots__ = ("_keys", "_counts", "_num_qubits")

    def __init__(self, data: Mapping[int, int], num_qubits: int) -> None:
        self._store(list(data.keys()), list(data.values()), num_qubits)

    @classmethod
    def from_arrays(
        cls, keys: np.ndarray, counts: np.ndarray, num_qubits: int
    ) -> "Counts":
        """Histogram of aligned key/count arrays.

        Args:
            keys: Outcome integers (any integer dtype; duplicates summed).
            counts: Shot counts aligned with ``keys``.
            num_qubits: Number of measured qubits (defines the key range).
        """
        instance = cls.__new__(cls)
        instance._store(keys, counts, num_qubits)
        return instance

    @classmethod
    def from_samples(cls, outcomes: np.ndarray, num_qubits: int) -> "Counts":
        """Histogram of individual shot outcomes."""
        keys, counts = np.unique(
            np.asarray(outcomes, dtype=np.int64), return_counts=True
        )
        return cls.from_arrays(keys, counts, num_qubits)

    def _store(self, keys, counts, num_qubits: int) -> None:
        """Check ``keys``/``counts`` and hold them as read-only copies."""
        if num_qubits < 0:
            raise SimulationError(f"num_qubits must be >= 0, got {num_qubits}")
        keys = np.array(keys, dtype=np.int64)
        counts = np.array(counts, dtype=np.int64)
        if keys.shape != counts.shape or keys.ndim != 1:
            raise SimulationError(
                f"keys and counts must be aligned 1-D arrays, got "
                f"{keys.shape} and {counts.shape}"
            )
        if keys.size:
            low, high = int(keys.min()), int(keys.max())
            if low < 0 or high >= (1 << num_qubits):
                raise SimulationError(
                    f"outcome {low if low < 0 else high} out of range for "
                    f"{num_qubits} qubits"
                )
            if int(counts.min()) < 0:
                raise SimulationError("negative count")
        if not counts.all():
            keys, counts = keys[counts != 0], counts[counts != 0]
        if (keys[1:] <= keys[:-1]).any():
            order = np.argsort(keys, kind="stable")
            keys, counts = keys[order], counts[order]
            first = np.flatnonzero(np.diff(keys, prepend=-1))
            keys, counts = keys[first], np.add.reduceat(counts, first)
        keys.flags.writeable = False
        counts.flags.writeable = False
        self._keys, self._counts, self._num_qubits = keys, counts, num_qubits

    def __reduce__(self):
        # Rebuilt through the checks, so unpickled arrays are read-only too.
        return Counts.from_arrays, (self._keys, self._counts, self._num_qubits)

    @property
    def num_qubits(self) -> int:
        """Number of measured qubits."""
        return self._num_qubits

    @property
    def total_shots(self) -> int:
        """Sum of all counts."""
        return int(self._counts.sum())

    def __getitem__(self, key: int) -> int:
        index = int(self._keys.searchsorted(key))
        if index < self._keys.size and self._keys[index] == key:
            return int(self._counts[index])
        raise KeyError(key)

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys.tolist())

    def __len__(self) -> int:
        return self._keys.size

    def probability(self, key: int) -> float:
        """Empirical probability of an outcome."""
        total = self.total_shots
        if total == 0:
            raise SimulationError("counts are empty")
        return self.get(key, 0) / total

    def most_common(self, k: "int | None" = None) -> list[tuple[int, int]]:
        """Outcomes by descending count (ties by key)."""
        order = np.argsort(-self._counts, kind="stable")[:k]
        return list(zip(self._keys[order].tolist(), self._counts[order].tolist()))

    def keys_array(self) -> np.ndarray:
        """Outcomes as a read-only int64 array, ascending."""
        return self._keys

    def counts_array(self) -> np.ndarray:
        """Shot counts as a read-only int64 array, aligned with the keys."""
        return self._counts

    def spins_matrix(self) -> np.ndarray:
        """All outcomes as a ``(len(self), num_qubits)`` ±1 spin matrix.

        Row order matches :meth:`keys_array`, and bit 0 reads as spin +1;
        with ``IsingHamiltonian.evaluate_many`` this prices every sampled
        outcome in one pass.
        """
        bits = (self._keys[:, None] >> np.arange(self._num_qubits, dtype=np.int64)) & 1
        return 1 - 2 * bits

    def flip_all_bits(self) -> "Counts":
        """Counts of the spin-flipped distribution (Sec. 3.7.2 mirror);
        ``key ^ (2**n - 1)`` reverses the key order."""
        mask = (1 << self._num_qubits) - 1
        return Counts.from_arrays(
            self._keys[::-1] ^ mask, self._counts[::-1], self._num_qubits
        )

    def merge(self, other: "Counts") -> "Counts":
        """Shot-wise union of two histograms over the same qubit count."""
        if other.num_qubits != self._num_qubits:
            raise SimulationError(
                f"cannot merge counts over {other.num_qubits} qubits into "
                f"{self._num_qubits}"
            )
        return Counts.from_arrays(
            np.concatenate((self._keys, other.keys_array())),
            np.concatenate((self._counts, other.counts_array())),
            self._num_qubits,
        )

    def __repr__(self) -> str:
        return (
            f"Counts(num_qubits={self._num_qubits}, outcomes={len(self)}, "
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
