"""Concurrent sharing of one :class:`~repro.cache.SolveCache` and its memos.

Threads: the solve service runs several solves on threads that share the
session-default cache and the process-wide memos, so their LRU
bookkeeping must hold up under a switch interval of one microsecond —
no exception escapes and every get and put is tallied exactly once.

Processes: two processes sharing one sharded cache directory.

The satellite contract: two processes hammering the same cache
directory — one with every disk write torn mid-payload, the other with
every disk write raising ``OSError`` — must never observe a corrupt
*hit* (a value whose content does not match its key). Torn artifacts
surface only as counted ``"corrupt"`` misses (tallied and unlinked),
failed writes only as counted ``"write_error"`` entries, and neither
process ever sees an exception escape the cache.

The workers are real ``multiprocessing`` children writing their verdict
to JSON files, so the test exercises genuine cross-process filesystem
interleaving, not thread-level simulation.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import threading

from repro.cache import SolveCache
from repro.faults import FaultInjection
from repro.utils.memo import BoundedMemo

_KEYS = [f"deadbeef{i:02d}" for i in range(12)]
_ROUNDS = 15


def _hammer_worker(cache_dir: str, worker_id: int, out_path: str) -> None:
    """One process's share of the hammering (module-level: picklable).

    Worker 0 tears every disk write it makes (readers must classify the
    remains as corrupt); worker 1's writes all raise ``OSError`` (its
    cache degrades to memory-only and tallies). Both read every key each
    round with a rebuild that *verifies content against the key*, so a
    torn artifact sneaking through as a hit would be caught.
    """
    if worker_id == 0:
        injection = FaultInjection(torn_cache_kinds=("demo",))
    else:
        injection = FaultInjection(cache_write_error_kinds=("demo",))
    verdict = {"bad_hits": [], "error": None}
    try:
        import warnings

        with warnings.catch_warnings():
            # Worker 1's first failed write warns about degrading to
            # memory-only; that is the behaviour under test, not noise.
            warnings.simplefilter("ignore", RuntimeWarning)
            cache = SolveCache(
                cache_dir=cache_dir,
                fault_injection=injection,
                shard_depth=2,
                shard_width=1,
            )
            for _ in range(_ROUNDS):
                for key in _KEYS:
                    value = cache.get(
                        "demo",
                        key,
                        rebuild=lambda p, k=key: p if p.get("key") == k else None,
                    )
                    if value is not None and value.get("key") != key:
                        verdict["bad_hits"].append(key)
                for key in _KEYS:
                    payload = {"key": key, "writer": worker_id}
                    cache.put("demo", key, dict(payload), payload=payload)
                # Drop the memory tier so the next round's reads must go
                # through the (contested, fault-ridden) disk tier.
                cache.clear()
            verdict["stats"] = cache.stats_snapshot().get("demo", {})
    except Exception as exc:  # noqa: BLE001 — the cache must never raise
        verdict["error"] = f"{type(exc).__name__}: {exc}"
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(verdict, handle)


def test_two_processes_share_a_torn_cache_without_corrupt_hits(tmp_path):
    cache_dir = str(tmp_path / "shared")
    reports = [str(tmp_path / f"verdict{i}.json") for i in range(2)]
    workers = [
        multiprocessing.Process(
            target=_hammer_worker, args=(cache_dir, i, reports[i])
        )
        for i in range(2)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
        assert worker.exitcode == 0, f"worker died with {worker.exitcode}"

    verdicts = []
    for path in reports:
        with open(path, encoding="utf-8") as handle:
            verdicts.append(json.load(handle))

    for worker_id, verdict in enumerate(verdicts):
        assert verdict["error"] is None, (
            f"worker {worker_id} raised: {verdict['error']}"
        )
        assert verdict["bad_hits"] == [], (
            f"worker {worker_id} observed corrupt hits: {verdict['bad_hits']}"
        )

    torn_stats, failing_stats = verdicts[0]["stats"], verdicts[1]["stats"]
    # The torn writer's artifacts are the only ones on disk; someone must
    # have tripped over them and counted the corruption.
    total_corrupt = torn_stats.get("corrupt", 0) + failing_stats.get(
        "corrupt", 0
    )
    assert total_corrupt > 0, "torn writes never surfaced as counted corrupt"
    # The failing writer degraded to memory-only and accounted every
    # skipped persist.
    assert failing_stats.get("write_error", 0) > 0
    # Disk hits are allowed — the tear lands an instant after a complete
    # atomic write, so a racing reader may catch the intact artifact —
    # but every hit's content matched its key (bad_hits above), which is
    # the contract: complete or counted-corrupt, never a torn value.


def test_concurrent_openers_agree_on_the_pinned_layout(tmp_path):
    cache_dir = str(tmp_path / "shared")
    first = SolveCache(cache_dir=cache_dir, shard_depth=3, shard_width=1)
    first.put("demo", "abcdef", {"v": 1}, payload={"v": 1})
    # A second opener with clashing constructor arguments adopts the
    # pinned layout and reads the artifact through the same path.
    second = SolveCache(cache_dir=cache_dir, shard_depth=1, shard_width=4)
    assert (second.shard_depth, second.shard_width) == (3, 1)
    assert second.get("demo", "abcdef", rebuild=lambda p: p) == {"v": 1}
    assert os.path.exists(
        os.path.join(cache_dir, "demo", "a", "b", "c", "abcdef.json")
    )


# ----------------------------------------------------------------------
# Threads
# ----------------------------------------------------------------------
_THREADS = 4
_THREAD_ROUNDS = 20000


def _hammer_threads(work) -> list:
    """Run ``work(thread_index)`` on several threads at a 1 us switch
    interval; returns every exception message a thread raised."""
    errors: list = []
    start = threading.Barrier(_THREADS)

    def run(index):
        start.wait(timeout=60)
        try:
            work(index)
        except Exception as exc:  # noqa: BLE001 — collected, then asserted
            errors.append(f"thread {index}: {type(exc).__name__}: {exc!r}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors


def test_threads_share_a_small_cache_without_errors():
    cache = SolveCache(capacity=4)
    keys = [f"key{i}" for i in range(8)]
    wrong: list = []

    def work(index):
        for step in range(_THREAD_ROUNDS):
            cache.put("demo", keys[(index + step) % 8], keys[(index + step) % 8])
            wanted = keys[(3 * index + step) % 8]
            value = cache.get("demo", wanted)
            if value is not None and value != wanted:
                wrong.append((wanted, value))

    assert _hammer_threads(work) == []
    assert wrong == []
    assert len(cache) <= 4
    stats = cache.stats_snapshot()["demo"]
    total = _THREADS * _THREAD_ROUNDS
    assert stats["stores"] == total
    assert stats["memory_hits"] + stats["misses"] == total


def test_threads_share_a_small_memo_without_errors():
    memo: BoundedMemo = BoundedMemo(max_entries=4)
    wrong: list = []

    def work(index):
        for step in range(_THREAD_ROUNDS):
            key = (3 * index + step) % 8
            value = memo.get_or_build(key, lambda key=key: ("built", key))
            if value != ("built", key):
                wrong.append((key, value))

    assert _hammer_threads(work) == []
    assert wrong == []
    assert len(memo) <= 4
