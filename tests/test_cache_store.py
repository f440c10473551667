"""Behavioral tests for the two-tier :class:`repro.cache.SolveCache`.

Covers the LRU memory tier (eviction order, promotion on hit), the disk
tier (JSON and NPZ payload round-trips, corruption tolerance, cross-
instance sharing), the stats counters, and the memoization wrappers'
bit-exactness guarantees.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.cache import (
    SolveCache,
    cache_from_dir,
    cached_brute_force,
    cached_simulated_annealing,
    cached_transpile,
    resolve_cache,
    set_default_cache,
    stats_delta,
    summarize_stats,
)
from repro.cache.keys import anneal_key, ising_fingerprint, params_key
from repro.cache.memo import params_payload, params_rebuild
from repro.devices import get_backend
from repro.exceptions import CacheError
from repro.ising.annealer import simulated_annealing
from repro.ising.bruteforce import brute_force_minimum
from repro.ising.hamiltonian import IsingHamiltonian
from repro.qaoa.circuits import build_qaoa_template


@pytest.fixture
def problem() -> IsingHamiltonian:
    return IsingHamiltonian(
        4,
        linear={0: 0.5},
        quadratic={(0, 1): 1.0, (1, 2): -1.0, (2, 3): 1.0},
    )


# ----------------------------------------------------------------------
# Memory tier
# ----------------------------------------------------------------------
def test_lru_evicts_least_recently_used():
    cache = SolveCache(capacity=2)
    cache.put("kind", "a", 1)
    cache.put("kind", "b", 2)
    assert cache.get("kind", "a") == 1  # touch "a" => "b" is now LRU
    cache.put("kind", "c", 3)
    assert len(cache) == 2
    assert cache.get("kind", "b") is None
    assert cache.get("kind", "a") == 1
    assert cache.get("kind", "c") == 3
    stats = cache.stats_snapshot()["kind"]
    assert stats["evictions"] == 1


def test_eviction_is_tallied_under_the_evicted_kind():
    cache = SolveCache(capacity=2)
    cache.put("transpiled", "t", object())
    cache.put("params", "a", 1)
    cache.put("params", "b", 2)  # evicts the transpiled entry
    stats = cache.stats_snapshot()
    assert stats["transpiled"]["evictions"] == 1
    assert stats["params"]["evictions"] == 0


def test_capacity_must_be_positive():
    with pytest.raises(CacheError):
        SolveCache(capacity=0)


def test_stats_and_delta_accounting():
    cache = SolveCache()
    before = cache.stats_snapshot()
    assert cache.get("params", "missing") is None
    cache.put("params", "k", (1.0,))
    assert cache.get("params", "k") == (1.0,)
    delta = stats_delta(before, cache.stats_snapshot())
    assert delta["params"]["misses"] == 1
    assert delta["params"]["stores"] == 1
    assert delta["params"]["memory_hits"] == 1
    assert "1 hit" in summarize_stats(delta)
    assert summarize_stats({}) == "cache: no activity"


def test_resolve_cache_forms():
    cache = SolveCache()
    assert resolve_cache(cache) is cache
    assert resolve_cache(False) is None
    set_default_cache(None)
    try:
        assert resolve_cache(None) is None
        created = resolve_cache(True)
        assert isinstance(created, SolveCache)
        assert resolve_cache(True) is created  # sticky session default
        set_default_cache(cache)
        assert resolve_cache(None) is cache
    finally:
        set_default_cache(None)
    with pytest.raises(CacheError):
        resolve_cache("yes")  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Disk tier
# ----------------------------------------------------------------------
def test_disk_round_trip_json_payload(tmp_path):
    cache = SolveCache(cache_dir=str(tmp_path))
    params = ((0.123456789012345,), (-0.987654321098765,))
    cache.put("params", "deadbeef", params, payload=params_payload(params))
    # A fresh cache over the same directory must rebuild bit-exactly.
    fresh = SolveCache(cache_dir=str(tmp_path))
    rebuilt = fresh.get("params", "deadbeef", rebuild=params_rebuild)
    assert rebuilt == params
    assert fresh.stats_snapshot()["params"]["disk_hits"] == 1
    # The rebuilt entry was promoted into memory.
    assert fresh.get("params", "deadbeef", rebuild=params_rebuild) == params
    assert fresh.stats_snapshot()["params"]["memory_hits"] == 1


def test_disk_skipped_without_rebuild(tmp_path):
    cache = SolveCache(cache_dir=str(tmp_path))
    cache.put("params", "k", 1, payload={"v": 1})
    fresh = SolveCache(cache_dir=str(tmp_path))
    assert fresh.get("params", "k") is None  # no rebuild => no disk read


def test_corrupt_disk_payload_is_a_miss(tmp_path):
    cache = SolveCache(cache_dir=str(tmp_path))
    params = ((0.5,), (0.25,))
    cache.put("params", "cafe", params, payload=params_payload(params))
    json_path = os.path.join(str(tmp_path), "params", "ca", "cafe.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        handle.write("{ not json")
    fresh = SolveCache(cache_dir=str(tmp_path))
    assert fresh.get("params", "cafe", rebuild=params_rebuild) is None
    # A structurally-valid payload that the rebuilder rejects is also a miss.
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump({"wrong": "shape"}, handle)
    assert fresh.get("params", "cafe", rebuild=params_rebuild) is None


def test_truncated_json_is_counted_corrupt_and_unlinked(tmp_path):
    cache = SolveCache(cache_dir=str(tmp_path))
    params = ((0.5,), (0.25,))
    cache.put("params", "cafe", params, payload=params_payload(params))
    json_path = os.path.join(str(tmp_path), "params", "ca", "cafe.json")
    with open(json_path, encoding="utf-8") as handle:
        text = handle.read()
    with open(json_path, "w", encoding="utf-8") as handle:
        handle.write(text[: len(text) // 2])  # torn mid-write
    fresh = SolveCache(cache_dir=str(tmp_path))
    assert fresh.get("params", "cafe", rebuild=params_rebuild) is None
    stats = fresh.stats_snapshot()["params"]
    assert stats["corrupt"] == 1
    assert stats["misses"] == 1
    # The bad artifact was evicted, so the next read is a clean miss that
    # does not re-parse and re-fail.
    assert not os.path.exists(json_path)
    assert fresh.get("params", "cafe", rebuild=params_rebuild) is None
    stats = fresh.stats_snapshot()["params"]
    assert stats["corrupt"] == 1
    assert stats["misses"] == 2


def test_torn_npz_sidecar_is_counted_corrupt_and_unlinked(tmp_path, problem):
    cache = SolveCache(cache_dir=str(tmp_path))
    cached_brute_force(problem, cache=cache)
    stem = os.path.join(str(tmp_path), "bruteforce")
    npz_paths = [
        os.path.join(root, name)
        for root, _, files in os.walk(stem)
        for name in files
        if name.endswith(".npz")
    ]
    assert len(npz_paths) == 1
    npz_path = npz_paths[0]
    json_path = npz_path[: -len(".npz")] + ".json"
    with open(npz_path, "rb") as handle:
        blob = handle.read()
    with open(npz_path, "wb") as handle:
        handle.write(blob[: len(blob) // 2])  # torn mid-write
    fresh = SolveCache(cache_dir=str(tmp_path))
    assert cached_brute_force(problem, cache=fresh) == brute_force_minimum(
        problem
    )
    stats = fresh.stats_snapshot()["bruteforce"]
    assert stats["corrupt"] == 1
    # Both halves of the artifact are gone; recomputation re-recorded it.
    # (cached_brute_force re-put the value, rewriting both files.)
    assert stats["stores"] == 1
    assert os.path.exists(json_path) and os.path.exists(npz_path)
    another = SolveCache(cache_dir=str(tmp_path))
    assert cached_brute_force(problem, cache=another) == brute_force_minimum(
        problem
    )
    assert another.stats_snapshot()["bruteforce"]["disk_hits"] == 1


def test_missing_npz_sidecar_is_corrupt(tmp_path, problem):
    cache = SolveCache(cache_dir=str(tmp_path))
    cached_brute_force(problem, cache=cache)
    stem = os.path.join(str(tmp_path), "bruteforce")
    for root, _, files in os.walk(stem):
        for name in files:
            if name.endswith(".npz"):
                os.unlink(os.path.join(root, name))
    fresh = SolveCache(cache_dir=str(tmp_path))
    assert cached_brute_force(problem, cache=fresh) == brute_force_minimum(
        problem
    )
    stats = fresh.stats_snapshot()["bruteforce"]
    assert stats["corrupt"] == 1


def test_npz_array_payload_round_trip(tmp_path, problem):
    cache = SolveCache(cache_dir=str(tmp_path))
    expected = brute_force_minimum(problem)
    first = cached_brute_force(problem, cache=cache)
    assert first == expected
    stem = os.path.join(str(tmp_path), "bruteforce")
    npz_files = [
        name
        for _, _, files in os.walk(stem)
        for name in files
        if name.endswith(".npz")
    ]
    assert npz_files, "spins should persist as an NPZ sidecar"
    fresh = SolveCache(cache_dir=str(tmp_path))
    rebuilt = cached_brute_force(problem, cache=fresh)
    assert rebuilt == expected
    assert fresh.stats_snapshot()["bruteforce"]["disk_hits"] == 1


def test_cache_from_dir_expands_user(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    cache = cache_from_dir("~/fq-cache")
    assert cache.cache_dir == str(tmp_path / "fq-cache")


# ----------------------------------------------------------------------
# Memoization wrappers
# ----------------------------------------------------------------------
def test_cached_annealing_matches_uncached_bit_for_bit(problem):
    cache = SolveCache()
    direct = simulated_annealing(problem, num_sweeps=40, num_restarts=2, seed=9)
    memoized = cached_simulated_annealing(
        problem, num_sweeps=40, num_restarts=2, seed=9, cache=cache
    )
    assert memoized == direct
    replay = cached_simulated_annealing(
        problem, num_sweeps=40, num_restarts=2, seed=9, cache=cache
    )
    assert replay == direct
    stats = cache.stats_snapshot()["anneal"]
    assert stats["memory_hits"] == 1 and stats["stores"] == 1
    # A different seed is a different key — never a false hit.
    other = cached_simulated_annealing(
        problem, num_sweeps=40, num_restarts=2, seed=10, cache=cache
    )
    assert other == simulated_annealing(
        problem, num_sweeps=40, num_restarts=2, seed=10
    )


def test_cached_annealing_bypasses_generator_seeds(problem):
    cache = SolveCache()
    rng = np.random.default_rng(3)
    cached_simulated_annealing(problem, seed=rng, cache=cache)
    assert "anneal" not in cache.stats_snapshot()
    # The caller's stream advanced exactly as the uncached call would.
    reference_rng = np.random.default_rng(3)
    simulated_annealing(problem, seed=reference_rng)
    assert rng.integers(0, 2**31) == reference_rng.integers(0, 2**31)


def test_cached_transpile_round_trips_through_disk(tmp_path, problem):
    device = get_backend("montreal")
    template = build_qaoa_template(problem, linear_support=[0, 1, 2, 3])
    cache = SolveCache(cache_dir=str(tmp_path))
    compiled, profile = cached_transpile(
        template.circuit, device, cache=cache
    )
    again, profile_again = cached_transpile(
        template.circuit, device, cache=cache
    )
    assert again is compiled and profile_again is profile
    fresh = SolveCache(cache_dir=str(tmp_path))
    rebuilt, rebuilt_profile = cached_transpile(
        template.circuit, device, cache=fresh
    )
    assert fresh.stats_snapshot()["transpiled"]["disk_hits"] == 1
    # Full instruction-stream identity (names, qubits, angles incl. the
    # symbolic coefficients by parameter name, tags) via the fingerprint.
    from repro.cache import circuit_fingerprint

    assert circuit_fingerprint(rebuilt.circuit) == circuit_fingerprint(
        compiled.circuit
    )
    assert rebuilt.cx_count == compiled.cx_count
    assert rebuilt.swap_count == compiled.swap_count
    assert rebuilt.depth == compiled.depth
    assert rebuilt.duration_ns == compiled.duration_ns
    assert rebuilt.final_layout.to_dict() == compiled.final_layout.to_dict()
    assert rebuilt_profile.fidelity == profile.fidelity
    assert rebuilt_profile.readout == profile.readout
    assert rebuilt_profile.measured_wires == profile.measured_wires
    # Symbolic angles survived: the edit surface is intact by tag.
    assert set(rebuilt.parametric_instruction_indices()) == set(
        compiled.parametric_instruction_indices()
    )


def test_cache_key_spellings_stay_stable():
    """The anneal and params keys hash to the digests that earlier
    releases wrote, so a warm ``--cache-dir`` keeps answering.

    Each key ends in a constant engine token (``|vectorized``,
    ``|opt=lbfgs``); dropping one changes every digest and silently
    cold-starts existing caches.
    """
    h = IsingHamiltonian(
        4,
        linear=[0.5, -1.0, 0.0, 2.0],
        quadratic={(0, 1): 1.0, (1, 2): -1.0, (2, 3): 0.5},
        offset=0.25,
    )
    fingerprint = ising_fingerprint(h)
    assert fingerprint == (
        "9538be790c7a953da87adfbc69d2734855706fa9c81464b8d93f170098c2f44c"
    )
    assert anneal_key(h, 500, 4, 5.0, 0.01, 7) == (
        "755210ef5d360a06bd53c574eaaae87ad03ef3346c1a1985141ee7e1d32f9f18"
    )
    assert params_key(
        fingerprint,
        num_layers=1,
        grid_resolution=12,
        maxiter=60,
        train_noisy=False,
        noise_signature="ideal",
        mode="fresh",
    ) == "67e4b2232f6f307cafe6a887d86d8ccbb0c446800c0d7522ed84096a6b6df631"


def test_cached_wrappers_are_transparent_without_a_cache(problem):
    assert cached_brute_force(problem) == brute_force_minimum(problem)
    assert cached_simulated_annealing(
        problem, num_sweeps=30, num_restarts=1, seed=4
    ) == simulated_annealing(problem, num_sweeps=30, num_restarts=1, seed=4)


# ---------------------------------------------------------------------------
# Sharded layout, TTL, and size-bounded retention
# ---------------------------------------------------------------------------
def test_default_layout_is_the_historical_one(tmp_path):
    cache = SolveCache(cache_dir=str(tmp_path))
    cache.put("params", "abcdef123", {"v": 1}, payload={"v": 1})
    assert (tmp_path / "params" / "ab" / "abcdef123.json").exists()


def test_custom_sharding_fans_keys_across_levels(tmp_path):
    cache = SolveCache(cache_dir=str(tmp_path), shard_depth=2, shard_width=1)
    cache.put("params", "abcdef123", {"v": 1}, payload={"v": 1})
    assert (tmp_path / "params" / "a" / "b" / "abcdef123.json").exists()
    fresh = SolveCache(cache_dir=str(tmp_path), shard_depth=2, shard_width=1)
    assert fresh.get("params", "abcdef123", rebuild=lambda p: p) == {"v": 1}


def test_shard_depth_zero_is_flat(tmp_path):
    cache = SolveCache(cache_dir=str(tmp_path), shard_depth=0)
    cache.put("params", "abcdef123", {"v": 1}, payload={"v": 1})
    assert (tmp_path / "params" / "abcdef123.json").exists()


def test_layout_metadata_governs_later_openers(tmp_path):
    # First writer pins a 2x1 layout; a second open with different (even
    # default) constructor arguments must adopt the pinned layout and
    # find the artifact.
    writer = SolveCache(cache_dir=str(tmp_path), shard_depth=2, shard_width=1)
    writer.put("params", "abcdef123", {"v": 7}, payload={"v": 7})
    assert (tmp_path / "cache_layout.json").exists()
    reader = SolveCache(cache_dir=str(tmp_path))  # defaults: 1 x 2
    assert reader.shard_depth == 2
    assert reader.shard_width == 1
    assert reader.get("params", "abcdef123", rebuild=lambda p: p) == {"v": 7}


def test_torn_layout_metadata_is_ignored_and_healed(tmp_path):
    (tmp_path / "cache_layout.json").write_text('{"shard_dep')  # torn
    cache = SolveCache(cache_dir=str(tmp_path), shard_depth=3, shard_width=1)
    assert cache.shard_depth == 3  # torn file did not override
    cache.put("params", "abcdef123", {"v": 1}, payload={"v": 1})
    healed = json.loads((tmp_path / "cache_layout.json").read_text())
    assert healed["shard_depth"] == 3
    assert healed["shard_width"] == 1


def test_invalid_retention_arguments_raise(tmp_path):
    with pytest.raises(CacheError):
        SolveCache(cache_dir=str(tmp_path), shard_depth=-1)
    with pytest.raises(CacheError):
        SolveCache(cache_dir=str(tmp_path), shard_width=0)
    with pytest.raises(CacheError):
        SolveCache(cache_dir=str(tmp_path), ttl_seconds=0)
    with pytest.raises(CacheError):
        SolveCache(cache_dir=str(tmp_path), max_disk_bytes=0)


def test_ttl_expires_old_artifacts_as_counted_misses(tmp_path):
    cache = SolveCache(cache_dir=str(tmp_path), ttl_seconds=3600)
    cache.put("params", "oldkey", {"v": 1}, payload={"v": 1})
    json_path = tmp_path / "params" / "ol" / "oldkey.json"
    assert json_path.exists()
    ancient = os.stat(json_path).st_mtime - 7200
    os.utime(json_path, (ancient, ancient))
    fresh = SolveCache(cache_dir=str(tmp_path), ttl_seconds=3600)
    assert fresh.get("params", "oldkey", rebuild=lambda p: p) is None
    assert fresh.stats_snapshot()["params"]["expired"] == 1
    assert not json_path.exists(), "expired artifact must be unlinked"
    # The next read is a clean miss, not another expiry.
    assert fresh.get("params", "oldkey", rebuild=lambda p: p) is None
    assert fresh.stats_snapshot()["params"]["expired"] == 1


def test_fresh_artifacts_survive_ttl(tmp_path):
    cache = SolveCache(cache_dir=str(tmp_path), ttl_seconds=3600)
    cache.put("params", "newkey", {"v": 2}, payload={"v": 2})
    fresh = SolveCache(cache_dir=str(tmp_path), ttl_seconds=3600)
    assert fresh.get("params", "newkey", rebuild=lambda p: p) == {"v": 2}


def test_disk_budget_evicts_oldest_first(tmp_path):
    payload = {"blob": "x" * 512}
    cache = SolveCache(cache_dir=str(tmp_path), max_disk_bytes=2048)
    for index in range(8):
        key = f"key{index:02d}x"
        cache.put("params", key, payload, payload=dict(payload))
        # Distinct mtimes so "oldest" is well defined on coarse clocks.
        json_path, _ = cache._paths("params", key)
        stamp = os.stat(json_path).st_mtime - (8 - index)
        os.utime(json_path, (stamp, stamp))
    assert cache.disk_usage() <= 2048
    stats = cache.stats_snapshot()["params"]
    assert stats["disk_evictions"] > 0
    # The newest artifact must have survived the sweeps.
    newest, _ = cache._paths("params", "key07x")
    assert os.path.exists(newest)


def test_disk_usage_reports_zero_for_memory_only():
    assert SolveCache().disk_usage() == 0
