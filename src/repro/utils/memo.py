"""A small bounded LRU memo for process-wide derived-structure caches.

Several hot paths derive a read-only structure from an immutable input —
energy spectra, all-pairs coupling distances, annealing neighbor
structures — and want to pay the derivation once per process, bounded so
a sweep over many distinct inputs cannot accumulate memory without limit.
This is that one pattern, in one place, instead of a hand-rolled
``OrderedDict`` dance per call site.

Lives in ``utils`` (imports nothing) so both the ``cache`` and ``ising``
layers can use it without a layering cycle.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from typing import Generic, TypeVar

V = TypeVar("V")


class BoundedMemo(Generic[V]):
    """Key -> value memo with LRU eviction above ``max_entries``.

    Values are expected to be shared, effectively-immutable objects (the
    caller must not mutate what it gets back). Hits refresh recency;
    inserts beyond the bound evict the least recently used entry. Safe to
    share between threads: a lock guards the lookup and the insert, and
    ``build`` runs outside it, so two threads that miss the same key at
    once may both build it (the later insert wins; values are derived
    from the key, so either serves).
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        self._max_entries = max_entries
        self._lock = threading.Lock()

    def get_or_build(self, key: Hashable, build: "Callable[[], V]") -> V:
        """The memoized value for ``key``, building (and storing) on miss."""
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
                return hit
        value = build()
        with self._lock:
            self._entries[key] = value
            if len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
        return value

    def __len__(self) -> int:
        return len(self._entries)
