"""The two-tier content-addressed artifact store.

Tier 1 is an in-memory LRU keyed by ``(kind, key)``; tier 2 is an optional
on-disk artifact directory (``<cache_dir>/<kind>/<key prefix>/<key>.json``
plus a sibling ``.npz`` when a payload carries arrays) that survives
processes and can be shared between runs. Values live in memory as real
Python objects; the disk tier stores JSON payloads produced by the caller
(see :mod:`repro.cache.memo` for the per-artifact encoders), so the store
itself stays agnostic of what it holds.

Read path: memory, then disk (rebuilding the object and promoting it back
into memory), then miss. Every get/put is tallied per kind in
:attr:`SolveCache.stats`; :func:`stats_delta` turns two snapshots into the
per-run hit/miss report surfaced on ``FrozenQubitsResult``.

Disk reads are defensive: a corrupt or half-written payload is treated as a
miss, never as an error — a cache must degrade to recomputation, not take
the solve down with it. Corruption is *accounted and evicted*, though: each
bad artifact bumps the ``"corrupt"`` stats column and its files are
unlinked, so the next read of the key is a clean miss (one re-parse-and-
fail per bad artifact, not one per lookup) and the store heals itself by
re-recording the recomputed value.

Disk *writes* are defensive too: an ``OSError`` mid-persist (a full disk, a
permission flip, a yanked mount) bumps the failing kind's ``"write_error"``
counter, emits one ``RuntimeWarning``, and drops the cache to memory-only
for the rest of its life — subsequent payloads tally ``"write_error"``
without retouching the sick filesystem. A failed write never raises into a
solve: losing persistence costs future warm-starts, not the current run.

The disk tier is *sharded and shared*: keys fan out across
``shard_depth`` directory levels of ``shard_width`` hex characters each
(default ``1 x 2`` — the historical ``<kind>/<key[:2]>/<key>`` layout),
so a busy shared cache never piles every artifact into one directory.
The layout is pinned by an atomically-written ``cache_layout.json`` at
the cache root: the first writer records its sharding, later opens adopt
the recorded layout over their own constructor arguments — two processes
pointed at one directory can never address the same key through
different paths. Retention is bounded too: ``ttl_seconds`` expires
artifacts by age at read time (an expired hit degrades to a counted
``"expired"`` miss and is unlinked), and ``max_disk_bytes`` caps the
tier's footprint — each write that overflows it evicts oldest-first
(by artifact mtime) down to a 0.8 watermark, tallied per kind under
``"disk_evictions"``.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
import warnings
from collections import OrderedDict
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.exceptions import CacheError

#: Sentinel distinguishing "artifact exists but is unreadable" from a
#: plain absent entry on the disk-read path.
_CORRUPT = object()

#: Sentinel for an artifact that exists but has outlived its TTL.
_EXPIRED = object()

#: Name of the layout-metadata file pinned at the cache root.
LAYOUT_FILE = "cache_layout.json"

#: Fraction of ``max_disk_bytes`` the eviction sweep drains down to, so
#: one overflowing write does not trigger a sweep per subsequent write.
_EVICTION_WATERMARK = 0.8


class SolveCache:
    """Two-tier (memory LRU + optional disk) content-addressed cache.

    Args:
        capacity: Maximum in-memory entries; least-recently-used entries
            are evicted first. Eviction never touches the disk tier.
        cache_dir: Artifact directory for the persistent tier; ``None``
            keeps the cache memory-only. Created on first write.
        fault_injection: Optional :class:`~repro.faults.FaultInjection`
            whose cache-side faults (``cache_write_error_kinds``,
            ``torn_cache_kinds``) this store honours on its disk writes —
            the test harness of the degrade-to-memory-only and
            torn-artifact paths.
        shard_depth: Directory levels of key-prefix sharding under each
            kind (0 = flat). An existing ``cache_layout.json`` at the
            cache root overrides this argument — the recorded layout
            governs, so every process sharing the directory addresses
            keys identically.
        shard_width: Key characters consumed per shard level.
        ttl_seconds: Age bound for disk artifacts; a read older than this
            degrades to a counted ``"expired"`` miss and unlinks the
            artifact. ``None`` keeps artifacts forever. The memory tier
            is unaffected (staleness is a cross-process, on-disk
            concern).
        max_disk_bytes: Footprint cap for the disk tier; a write that
            overflows it evicts oldest-mtime artifacts down to
            ``0.8 * max_disk_bytes``, tallied under ``"disk_evictions"``.
            ``None`` leaves the tier unbounded.
    """

    def __init__(
        self,
        capacity: int = 4096,
        cache_dir: "str | None" = None,
        fault_injection: "object | None" = None,
        shard_depth: int = 1,
        shard_width: int = 2,
        ttl_seconds: "float | None" = None,
        max_disk_bytes: "int | None" = None,
    ):
        if capacity < 1:
            raise CacheError(f"capacity must be >= 1, got {capacity}")
        if shard_depth < 0:
            raise CacheError(f"shard_depth must be >= 0, got {shard_depth}")
        if shard_width < 1:
            raise CacheError(f"shard_width must be >= 1, got {shard_width}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise CacheError(f"ttl_seconds must be > 0, got {ttl_seconds}")
        if max_disk_bytes is not None and max_disk_bytes < 1:
            raise CacheError(
                f"max_disk_bytes must be >= 1, got {max_disk_bytes}"
            )
        self._capacity = capacity
        self._cache_dir = (
            os.path.expanduser(cache_dir) if cache_dir is not None else None
        )
        self._memory: "OrderedDict[tuple[str, str], Any]" = OrderedDict()
        self._stats: dict[str, dict[str, int]] = {}
        # One lock guards the memory tier and the counters (threads share
        # the session-default cache); disk I/O runs outside it.
        self._lock = threading.RLock()
        self._fault_injection = fault_injection
        self._disk_write_disabled = False
        self._shard_depth = shard_depth
        self._shard_width = shard_width
        self._ttl_seconds = ttl_seconds
        self._max_disk_bytes = max_disk_bytes
        self._layout_pinned = False
        if self._cache_dir is not None:
            self._adopt_layout()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum in-memory entries."""
        return self._capacity

    @property
    def cache_dir(self) -> "str | None":
        """Artifact directory of the disk tier (``None`` = memory only)."""
        return self._cache_dir

    @property
    def shard_depth(self) -> int:
        """Directory levels of key-prefix sharding (post layout adoption)."""
        return self._shard_depth

    @property
    def shard_width(self) -> int:
        """Key characters per shard level (post layout adoption)."""
        return self._shard_width

    @property
    def ttl_seconds(self) -> "float | None":
        """Disk-artifact age bound (``None`` = keep forever)."""
        return self._ttl_seconds

    @property
    def max_disk_bytes(self) -> "int | None":
        """Disk-tier footprint cap (``None`` = unbounded)."""
        return self._max_disk_bytes

    def disk_usage(self) -> int:
        """Total bytes currently held by the disk tier (0 if memory-only).

        Walks the artifact tree; races with concurrent unlinks are
        tolerated (a vanished file simply stops counting).
        """
        if self._cache_dir is None:
            return 0
        total = 0
        for directory, _, names in os.walk(self._cache_dir):
            for name in names:
                try:
                    total += os.stat(os.path.join(directory, name)).st_size
                except OSError:
                    continue
        return total

    def __len__(self) -> int:
        return len(self._memory)

    def __repr__(self) -> str:
        return (
            f"SolveCache(entries={len(self._memory)}, "
            f"capacity={self._capacity}, cache_dir={self._cache_dir!r})"
        )

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def _tally(self, kind: str, event: str) -> None:
        with self._lock:
            bucket = self._stats.setdefault(
                kind,
                {"memory_hits": 0, "disk_hits": 0, "misses": 0, "stores": 0,
                 "evictions": 0, "corrupt": 0, "write_error": 0,
                 "expired": 0, "disk_evictions": 0},
            )
            bucket[event] += 1

    def stats_snapshot(self) -> dict[str, dict[str, int]]:
        """Deep copy of the per-kind counters (hits/misses/stores)."""
        with self._lock:
            return {kind: dict(bucket) for kind, bucket in self._stats.items()}

    def reset_stats(self) -> None:
        """Zero every counter (entries are kept)."""
        with self._lock:
            self._stats = {}

    # ------------------------------------------------------------------
    # Core get/put
    # ------------------------------------------------------------------
    def get(
        self,
        kind: str,
        key: str,
        rebuild: "Callable[[dict], Any] | None" = None,
    ) -> Any:
        """Look a value up: memory first, then disk, else ``None``.

        Args:
            kind: Artifact family (``"params"``, ``"transpiled"``, ...).
            key: Content-addressed key within the family.
            rebuild: Turns a disk payload dict back into the live object;
                when omitted, the disk tier is skipped for this lookup.
                A rebuild that raises (or returns ``None``) marks the
                entry corrupt: the read degrades to a miss, the
                ``"corrupt"`` counter is bumped, and the artifact's files
                are unlinked so later reads miss cleanly instead of
                re-parsing and re-failing.
        """
        slot = (kind, key)
        with self._lock:
            if slot in self._memory:
                self._memory.move_to_end(slot)
                self._tally(kind, "memory_hits")
                return self._memory[slot]
        if self._cache_dir is not None and rebuild is not None:
            payload = self._read_payload(kind, key)
            if payload is _CORRUPT:
                self._discard_corrupt(kind, key)
            elif payload is _EXPIRED:
                self._discard_expired(kind, key)
            elif payload is not None:
                try:
                    value = rebuild(payload)
                except Exception:
                    value = None
                if value is not None:
                    self._tally(kind, "disk_hits")
                    self._insert(slot, value)
                    return value
                # The payload decoded but cannot become a live object:
                # corrupt in a deeper layer, same treatment.
                self._discard_corrupt(kind, key)
        self._tally(kind, "misses")
        return None

    def put(
        self,
        kind: str,
        key: str,
        value: Any,
        payload: "dict | None" = None,
    ) -> None:
        """Store a value (and optionally persist its disk payload).

        Args:
            kind: Artifact family.
            key: Content-addressed key.
            value: The live object for the memory tier.
            payload: JSON-serializable dict for the disk tier; numpy arrays
                under the reserved ``"arrays"`` entry are split into a
                sibling ``.npz``. ``None`` keeps the entry memory-only.
        """
        self._tally(kind, "stores")
        self._insert((kind, key), value)
        if payload is not None and self._cache_dir is not None:
            if self._disk_write_disabled:
                # The disk tier already failed once; keep accounting the
                # writes we are skipping, but leave the filesystem alone.
                self._tally(kind, "write_error")
                return
            try:
                self._write_payload(kind, key, payload)
            except OSError as exc:
                self._tally(kind, "write_error")
                self._disk_write_disabled = True
                warnings.warn(
                    f"solve-cache disk write failed ({exc!r}); degrading "
                    f"to memory-only for the rest of this cache's life — "
                    f"results are unaffected, persistence is lost",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def clear(self) -> None:
        """Drop every in-memory entry (the disk tier is left alone)."""
        with self._lock:
            self._memory.clear()

    def _insert(self, slot: tuple[str, str], value: Any) -> None:
        with self._lock:
            self._memory[slot] = value
            self._memory.move_to_end(slot)
            while len(self._memory) > self._capacity:
                evicted_slot, _ = self._memory.popitem(last=False)
                self._tally(evicted_slot[0], "evictions")

    # ------------------------------------------------------------------
    # Disk tier
    # ------------------------------------------------------------------
    def _shard(self, key: str) -> "list[str]":
        """The key-prefix shard directories for one key (maybe empty)."""
        parts = []
        for level in range(self._shard_depth):
            part = key[level * self._shard_width : (level + 1) * self._shard_width]
            if not part:
                break  # key shorter than the layout; stop sharding cleanly
            parts.append(part)
        return parts

    def _paths(self, kind: str, key: str) -> tuple[str, str]:
        stem = os.path.join(self._cache_dir, kind, *self._shard(key), key)
        return stem + ".json", stem + ".npz"

    def _read_payload(self, kind: str, key: str) -> "dict | None | object":
        """One artifact's payload: a dict, ``None`` (absent), ``_EXPIRED``,
        or ``_CORRUPT``.

        Absent means the json file does not exist — a plain miss. An
        artifact older than ``ttl_seconds`` is ``_EXPIRED`` (discarded,
        counted, then missed). Anything else that fails (unparsable json,
        a non-dict payload, a torn or missing ``.npz`` sibling the json
        promised) is corruption: the artifact exists but can never be
        read, so the caller should discard it rather than re-fail on
        every lookup.
        """
        json_path, npz_path = self._paths(kind, key)
        if self._ttl_seconds is not None:
            try:
                age = time.time() - os.stat(json_path).st_mtime
            except FileNotFoundError:
                return None
            except OSError:
                return _CORRUPT
            if age > self._ttl_seconds:
                return _EXPIRED
        try:
            with open(json_path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            return _CORRUPT
        if not isinstance(payload, dict):
            return _CORRUPT
        if payload.pop("__has_arrays__", False):
            try:
                with np.load(npz_path) as bundle:
                    payload["arrays"] = {
                        name: bundle[name] for name in bundle.files
                    }
            except Exception:
                # np.load raises zipfile.BadZipFile on a torn archive (and
                # OSError/ValueError on other damage) — all corruption here.
                return _CORRUPT
        return payload

    def _discard_corrupt(self, kind: str, key: str) -> None:
        """Tally and unlink a corrupt artifact (both the json and the npz).

        Unlink failures are swallowed: another process may have already
        healed or removed the entry, and a cache never raises for rot.
        """
        self._tally(kind, "corrupt")
        for path in self._paths(kind, key):
            try:
                os.unlink(path)
            except OSError:
                pass

    def _discard_expired(self, kind: str, key: str) -> None:
        """Tally and unlink an artifact that outlived its TTL."""
        self._tally(kind, "expired")
        for path in self._paths(kind, key):
            try:
                os.unlink(path)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Layout metadata
    # ------------------------------------------------------------------
    def _adopt_layout(self) -> None:
        """Adopt the sharding recorded in ``cache_layout.json``, if any.

        Called at open time. The file governs on conflict: a directory's
        first writer pins the layout and every later opener addresses
        keys through it, whatever their constructor said — otherwise two
        processes could shard the same key to different paths. A torn or
        unreadable layout file is ignored (the next pin heals it
        atomically).
        """
        path = os.path.join(self._cache_dir, LAYOUT_FILE)
        try:
            with open(path, encoding="utf-8") as handle:
                recorded = json.load(handle)
        except (OSError, ValueError):
            return
        if not isinstance(recorded, dict):
            return
        depth = recorded.get("shard_depth")
        width = recorded.get("shard_width")
        if isinstance(depth, int) and depth >= 0:
            self._shard_depth = depth
        if isinstance(width, int) and width >= 1:
            self._shard_width = width
        self._layout_pinned = True

    def _pin_layout(self) -> None:
        """Persist this cache's layout atomically before its first write.

        Write-then-rename, so a crash mid-pin leaves either no layout
        file (the next writer pins) or a complete one — never a torn
        record that would silently flatten another process's sharding.
        """
        if self._layout_pinned:
            return
        os.makedirs(self._cache_dir, exist_ok=True)
        # Another process may have pinned between our open and this
        # write; re-adopt first so we never overwrite a live layout.
        self._adopt_layout()
        if self._layout_pinned:
            return
        record = {
            "version": 1,
            "shard_depth": self._shard_depth,
            "shard_width": self._shard_width,
        }
        path = os.path.join(self._cache_dir, LAYOUT_FILE)

        def write_layout(fd: int) -> None:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(record, handle)

        self._atomic_write(self._cache_dir, ".layout.tmp", path, write_layout)
        self._layout_pinned = True

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def _enforce_disk_budget(self) -> None:
        """Evict oldest artifacts until the tier fits ``max_disk_bytes``.

        Runs after each disk write when a cap is set. Collects every
        artifact (json + optional npz sibling) with its mtime, and if the
        total exceeds the cap, unlinks oldest-first down to the 0.8
        watermark — so one sweep buys headroom instead of thrashing.
        Races with concurrent writers/readers are tolerated: a vanished
        file neither counts nor fails the sweep.
        """
        cap = self._max_disk_bytes
        artifacts = []  # (mtime, size, kind, [paths])
        total = 0
        for directory, _, names in os.walk(self._cache_dir):
            for name in names:
                if not name.endswith(".json") or name == LAYOUT_FILE:
                    continue
                json_path = os.path.join(directory, name)
                npz_path = json_path[: -len(".json")] + ".npz"
                try:
                    stat = os.stat(json_path)
                except OSError:
                    continue
                size = stat.st_size
                paths = [json_path]
                try:
                    size += os.stat(npz_path).st_size
                    paths.append(npz_path)
                except OSError:
                    pass
                relative = os.path.relpath(json_path, self._cache_dir)
                kind = relative.split(os.sep, 1)[0]
                artifacts.append((stat.st_mtime, size, kind, paths))
                total += size
        if total <= cap:
            return
        watermark = cap * _EVICTION_WATERMARK
        for _, size, kind, paths in sorted(artifacts, key=lambda a: a[0]):
            if total <= watermark:
                break
            for path in paths:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            total -= size
            self._tally(kind, "disk_evictions")

    def _write_payload(self, kind: str, key: str, payload: dict) -> None:
        injection = self._fault_injection
        if injection is not None and injection.should_fail_cache_write(kind):
            raise OSError(
                28, f"injected cache write failure (kind {kind!r})"
            )
        self._pin_layout()
        json_path, npz_path = self._paths(kind, key)
        os.makedirs(os.path.dirname(json_path), exist_ok=True)
        payload = dict(payload)
        arrays = payload.pop("arrays", None)
        payload["__has_arrays__"] = bool(arrays)
        # Write-then-rename so concurrent readers never see a torn file;
        # a failed write cleans up its temp file before propagating.
        directory = os.path.dirname(json_path)

        def write_npz(fd: int) -> None:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **arrays)

        def write_json(fd: int) -> None:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)

        if arrays:
            self._atomic_write(directory, ".npz.tmp", npz_path, write_npz)
        self._atomic_write(directory, ".json.tmp", json_path, write_json)
        if injection is not None and injection.should_tear_cache_write(kind):
            # Simulate a torn write after the fact: leave half the JSON
            # on disk, as a crash between write and rename would.
            with open(json_path, "rb") as handle:
                data = handle.read()
            with open(json_path, "wb") as handle:
                handle.write(data[: max(1, len(data) // 2)])
        if self._max_disk_bytes is not None:
            self._enforce_disk_budget()

    @staticmethod
    def _atomic_write(
        directory: str,
        suffix: str,
        final_path: str,
        write: "Callable[[int], None]",
    ) -> None:
        """mkstemp + write + rename; unlinks the temp file on failure.

        ``write`` receives the open file descriptor and must close it
        (wrapping it in ``os.fdopen`` + a context manager or a completed
        ``json.dump``/``np.savez`` call does).
        """
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=suffix)
        try:
            write(fd)
            os.replace(tmp, final_path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def stats_delta(
    before: dict[str, dict[str, int]],
    after: dict[str, dict[str, int]],
) -> dict[str, dict[str, int]]:
    """Per-kind counter difference between two snapshots (zero rows pruned)."""
    delta: dict[str, dict[str, int]] = {}
    for kind, bucket in after.items():
        base = before.get(kind, {})
        row = {
            event: count - base.get(event, 0) for event, count in bucket.items()
        }
        if any(row.values()):
            delta[kind] = {k: v for k, v in row.items() if v}
    return delta


def summarize_stats(stats: "dict[str, dict[str, int]] | None") -> str:
    """One-line human-readable rendering of a stats (or delta) dict."""
    if not stats:
        return "cache: no activity"
    parts = []
    for kind in sorted(stats):
        bucket = stats[kind]
        hits = bucket.get("memory_hits", 0) + bucket.get("disk_hits", 0)
        misses = bucket.get("misses", 0)
        parts.append(f"{kind}: {hits} hit / {misses} miss")
    return "cache: " + ", ".join(parts)
