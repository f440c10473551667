"""Content-addressed caching & structural dedup across the solve path.

FrozenQubits' fan-out and the paper's sweep protocol keep re-deriving the
same artifacts: sibling sub-problems share one circuit template, repeated
trials re-transpile and re-train identical instances, and the planner's
annealer probes re-solve sub-instances the classical fallback will solve
again. This package turns those recomputations into lookups:

* :mod:`repro.cache.keys` — exact content fingerprints plus the canonical,
  symmetry-aware Ising key (invariant under variable relabeling and the
  global ``h -> -h`` flip the mirror decode already exploits);
* :mod:`repro.cache.store` — the two-tier store: in-memory LRU over live
  objects, optional on-disk artifact directory with JSON/NPZ payloads;
* :mod:`repro.cache.memo` — drop-in cached wrappers for ``transpile``,
  ``simulated_annealing`` and ``brute_force_minimum``.

Everything honours the bit-identity contract: with the same seed, a solve
with caching enabled returns the same counts, expectations and spins as a
solve without it (see ``tests/test_determinism.py``), because a cached
artifact is only substituted where the uncached path would have recomputed
the exact same value.

Enable per call (``FrozenQubitsSolver(..., cache=True)``,
``solve_many(..., cache=...)``) or session-wide::

    from repro.cache import SolveCache, set_default_cache
    set_default_cache(SolveCache(cache_dir="~/.cache/frozenqubits"))

— which is exactly what the experiments CLI's ``--cache`` /
``--cache-dir`` flags do.
"""

from __future__ import annotations

from repro.cache.keys import (
    CanonicalKey,
    anneal_key,
    bruteforce_key,
    canonical_ising_key,
    canonicalize_spins,
    circuit_fingerprint,
    coupling_fingerprint,
    device_fingerprint,
    ising_fingerprint,
    params_key,
    rehydrate_spins,
    transpile_key,
)
from repro.cache.memo import (
    cached_anneal_many,
    cached_brute_force,
    cached_simulated_annealing,
    cached_transpile,
    memoized_distance_matrix,
    memoized_phase_levels,
    memoized_spectrum,
)
from repro.cache.store import (
    LAYOUT_FILE,
    SolveCache,
    stats_delta,
    summarize_stats,
)
from repro.exceptions import CacheError

_default_cache: "SolveCache | None" = None


def set_default_cache(cache: "SolveCache | None") -> None:
    """Install (or clear, with ``None``) the session-wide default cache."""
    global _default_cache
    _default_cache = cache


def get_default_cache() -> "SolveCache | None":
    """The session default cache, or ``None`` when caching is off."""
    return _default_cache


def resolve_cache(cache: "SolveCache | bool | None") -> "SolveCache | None":
    """Normalise the ``cache`` argument accepted across the solve path.

    Args:
        cache: ``None`` defers to the session default (off unless
            :func:`set_default_cache` installed one); ``True`` uses the
            session default, creating a memory-only one if none exists;
            ``False`` disables caching for this call regardless of the
            session default; a :class:`SolveCache` is used as-is.

    Raises:
        CacheError: For any other type.
    """
    global _default_cache
    if cache is None:
        return _default_cache
    if cache is True:
        if _default_cache is None:
            _default_cache = SolveCache()
        return _default_cache
    if cache is False:
        return None
    if isinstance(cache, SolveCache):
        return cache
    raise CacheError(
        f"expected a SolveCache, bool, or None, got {cache!r}"
    )


def cache_from_dir(
    cache_dir: "str | None",
    shard_depth: int = 1,
    shard_width: int = 2,
    ttl_seconds: "float | None" = None,
    max_disk_bytes: "int | None" = None,
) -> SolveCache:
    """A disk-backed cache rooted at ``cache_dir``.

    Sharding arguments are advisory: an existing ``cache_layout.json``
    in the directory governs (see :class:`SolveCache`).
    """
    return SolveCache(
        cache_dir=cache_dir,
        shard_depth=shard_depth,
        shard_width=shard_width,
        ttl_seconds=ttl_seconds,
        max_disk_bytes=max_disk_bytes,
    )


__all__ = [
    "CacheError",
    "CanonicalKey",
    "LAYOUT_FILE",
    "SolveCache",
    "anneal_key",
    "bruteforce_key",
    "cache_from_dir",
    "cached_anneal_many",
    "cached_brute_force",
    "cached_simulated_annealing",
    "cached_transpile",
    "canonical_ising_key",
    "canonicalize_spins",
    "circuit_fingerprint",
    "coupling_fingerprint",
    "device_fingerprint",
    "get_default_cache",
    "ising_fingerprint",
    "memoized_distance_matrix",
    "memoized_phase_levels",
    "memoized_spectrum",
    "params_key",
    "rehydrate_spins",
    "resolve_cache",
    "set_default_cache",
    "stats_delta",
    "summarize_stats",
    "transpile_key",
]
