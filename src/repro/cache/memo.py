"""Cache-aware wrappers for the expensive calls on the solve path.

Each wrapper is a drop-in for its uncached counterpart: with ``cache=None``
it simply delegates, so call sites stay unconditional. All wrappers obey
the bit-identity contract — a cached answer is only returned when it is
exactly what the underlying call would have recomputed:

* :func:`cached_transpile` — transpilation is a pure function of
  ``(circuit, device, options)``; the key hashes all three.
* :func:`cached_anneal_many` — the anneal memo. Annealing is stochastic,
  so each sibling's key includes its integer seed (pure memoization of the
  exact call); generator seeds carry hidden state and bypass the cache
  entirely. Keys are per sibling, so a repeated fan-out answers each hit
  individually and runs only the misses in one vectorized pass (the
  batched engine's per-sibling seeding contract guarantees a sibling's
  result is independent of batch composition, which is what makes the
  mixed hit/miss answer exact). :func:`cached_simulated_annealing` is its
  single-instance form.
* :func:`cached_brute_force` — deterministic and seedless; keyed on the
  exact instance fingerprint.

Process-wide derived-structure memos live here too:
:func:`memoized_spectrum` (energy tables), :func:`memoized_phase_levels`
(their distinct phases and compact index) and
:func:`memoized_distance_matrix` (all-pairs coupling distances) — all
fingerprint-keyed LRUs over read-only arrays, independent of any
:class:`~repro.cache.store.SolveCache`.

Trained-parameter caching lives in the solver (it needs job context —
warm-start mode, noise signature); this module only hosts its payload
encoders so the disk format is defined in one place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.utils.memo import BoundedMemo

from repro.cache.keys import (
    anneal_key,
    bruteforce_key,
    coupling_fingerprint,
    ising_fingerprint,
    transpile_key,
)
from repro.cache.store import SolveCache
from repro.ising.annealer import AnnealResult
from repro.ising.annealer_batched import anneal_many
from repro.ising.bruteforce import BruteForceResult, brute_force_minimum
from repro.ising.hamiltonian import IsingHamiltonian
from repro.sim.qaoa_kernel import PhaseLevels

if TYPE_CHECKING:
    from collections.abc import Sequence

    from repro.circuit.circuit import QuantumCircuit
    from repro.devices.coupling import CouplingMap
    from repro.devices.device import Device
    from repro.qaoa.executor import NoiseProfile
    from repro.transpile.compiler import TranspileOptions, TranspiledCircuit


# ----------------------------------------------------------------------
# Energy spectra
# ----------------------------------------------------------------------
#: Process-wide spectrum memo: exact instance fingerprint -> read-only
#: ``2**n`` energy table. Bounded so a long sweep over many instances
#: cannot accumulate unbounded 2**n arrays.
_SPECTRUM_MEMO: "BoundedMemo[np.ndarray]" = BoundedMemo(max_entries=64)


def memoized_spectrum(hamiltonian: IsingHamiltonian) -> np.ndarray:
    """The Hamiltonian's full energy table, shared across equal instances.

    :meth:`IsingHamiltonian.energy_landscape` already memoizes per
    *instance*; this adds a fingerprint-keyed LRU on top so code that
    rebuilds equal Hamiltonians (sweep harnesses re-deriving the same
    sub-problems, repeated solves of one workload) still pays the ``2**n``
    scan once per process. The returned array is read-only and shared —
    never mutate it. Memory trade-off: up to 64 spectra of ``2**n``
    float64 each.
    """
    return _SPECTRUM_MEMO.get_or_build(
        ising_fingerprint(hamiltonian), hamiltonian.energy_landscape
    )


#: Process-wide level memo beside the spectrum memo: same key, same bound.
_LEVEL_MEMO: "BoundedMemo[PhaseLevels]" = BoundedMemo(max_entries=64)


def memoized_phase_levels(hamiltonian: IsingHamiltonian) -> PhaseLevels:
    """The spectrum's distinct phases and compact index, shared across
    equal instances.

    Built once per fingerprint from :func:`memoized_spectrum` (one
    ``np.unique``), so every cost layer of the fused kernel exponentiates
    each distinct energy once and gathers. The arrays are read-only and
    shared — never mutate them. Memory trade-off: up to 64 entries of one
    ``uint8`` (``uint16`` above 256 levels) per basis state plus the
    levels.
    """

    def build() -> PhaseLevels:
        levels = PhaseLevels.from_spectrum(
            memoized_spectrum(hamiltonian), hamiltonian.offset
        )
        levels.values.setflags(write=False)
        levels.index.setflags(write=False)
        return levels

    return _LEVEL_MEMO.get_or_build(ising_fingerprint(hamiltonian), build)


# ----------------------------------------------------------------------
# Coupling distances
# ----------------------------------------------------------------------
#: Process-wide all-pairs-distance memo: coupling fingerprint -> read-only
#: distance matrix. Bounded so sweeping many device models cannot
#: accumulate unbounded n**2 arrays.
_DISTANCE_MEMO: "BoundedMemo[np.ndarray]" = BoundedMemo(max_entries=16)


def memoized_distance_matrix(coupling: "CouplingMap") -> np.ndarray:
    """All-pairs hop distances of a coupling map, shared across equal maps.

    :meth:`~repro.devices.coupling.CouplingMap.distance_matrix` caches per
    *instance*; this adds a fingerprint-keyed LRU on top so code that
    rebuilds equal coupling maps (re-instantiated device models, routing
    the same topology from different contexts) pays the all-pairs BFS once
    per process. The returned matrix is read-only and shared — never
    mutate it. Memory trade-off: up to 16 matrices of ``n**2`` int32 each.
    """

    def build() -> np.ndarray:
        distances = coupling._compute_distance_matrix()
        distances.setflags(write=False)
        return distances

    return _DISTANCE_MEMO.get_or_build(coupling_fingerprint(coupling), build)


# ----------------------------------------------------------------------
# Transpiled templates
# ----------------------------------------------------------------------
def cached_transpile(
    circuit: "QuantumCircuit",
    device: "Device",
    options: "TranspileOptions | None" = None,
    cache: "SolveCache | None" = None,
) -> "tuple[TranspiledCircuit, NoiseProfile]":
    """Compile (or rehydrate) a template and its noise profile.

    The noise profile is derived from the compiled circuit and the device
    calibration — both pinned by the cache key — so it is recomputed on a
    disk hit rather than serialized (cheaper than persisting the noise
    model, and bit-identical by construction).
    """
    from repro.qaoa.executor import noise_profile_for_transpiled
    from repro.transpile.compiler import TranspiledCircuit, transpile

    if cache is None:
        compiled = transpile(circuit, device, options)
        return compiled, noise_profile_for_transpiled(compiled)

    def rebuild(payload: dict):
        # Rehydrate to the same (compiled, profile) shape the memory tier
        # holds; the profile is derived, not persisted (see docstring).
        loaded = TranspiledCircuit.from_payload(payload, device)
        return loaded, noise_profile_for_transpiled(loaded)

    key = transpile_key(circuit, device, options)
    hit = cache.get("transpiled", key, rebuild=rebuild)
    if hit is not None:
        return hit
    compiled = transpile(circuit, device, options)
    profile = noise_profile_for_transpiled(compiled)
    cache.put("transpiled", key, (compiled, profile), payload=compiled.to_payload())
    return compiled, profile


# ----------------------------------------------------------------------
# Annealer sub-solutions
# ----------------------------------------------------------------------
def _anneal_rebuild(payload: dict) -> AnnealResult:
    # Provenance fields arrived after the first disk payloads; old entries
    # rebuild with the documented "unknown provenance" defaults.
    return AnnealResult(
        value=float(payload["value"]),
        spins=tuple(int(s) for s in payload["spins"]),
        num_sweeps=int(payload["num_sweeps"]),
        num_restarts=int(payload["num_restarts"]),
        num_replicas=int(payload.get("num_replicas", 0)),
        restart_values=tuple(
            float(v) for v in payload.get("restart_values", ())
        ),
    )


def _anneal_payload(result: AnnealResult) -> dict:
    return {
        "value": result.value,
        "spins": list(result.spins),
        "num_sweeps": result.num_sweeps,
        "num_restarts": result.num_restarts,
        "num_replicas": result.num_replicas,
        "restart_values": list(result.restart_values),
    }


def cached_simulated_annealing(
    hamiltonian: IsingHamiltonian,
    num_sweeps: int = 500,
    num_restarts: int = 4,
    initial_temperature: float = 5.0,
    final_temperature: float = 0.01,
    seed: "int | np.random.Generator | None" = None,
    cache: "SolveCache | None" = None,
) -> AnnealResult:
    """Memoized :func:`repro.ising.annealer.simulated_annealing`.

    A batch of one through :func:`cached_anneal_many`, so one function keys
    every anneal. Only integer seeds are cacheable: the key must pin the
    whole RNG stream, and a live generator's position cannot be captured
    (nor would replaying it leave the caller's stream in the right state).
    Unseeded and generator-seeded calls always run live.
    """
    return cached_anneal_many(
        [hamiltonian],
        num_sweeps=num_sweeps,
        num_restarts=num_restarts,
        initial_temperature=initial_temperature,
        final_temperature=final_temperature,
        seeds=[seed],
        cache=cache,
    )[0]


def cached_anneal_many(
    hamiltonians: "Sequence[IsingHamiltonian]",
    num_sweeps: int = 500,
    num_restarts: int = 4,
    initial_temperature: float = 5.0,
    final_temperature: float = 0.01,
    seeds: "Sequence[int | np.random.Generator | None] | None" = None,
    cache: "SolveCache | None" = None,
) -> list[AnnealResult]:
    """Batch-aware memoized :func:`repro.ising.annealer_batched.anneal_many`.

    Each integer-seeded sibling is keyed individually (see
    :func:`repro.cache.keys.anneal_key`), so a repeated fan-out answers its
    hits one by one and anneals
    only the misses — still in a single vectorized pass. This is exact
    because the batched engine's seeding contract makes every sibling's
    result independent of batch composition: the misses annealed together
    return bit-identical results to the full batch annealed cold.

    Args:
        hamiltonians: The sibling batch.
        num_sweeps: Metropolis sweeps per replica.
        num_restarts: Replicas per sibling.
        initial_temperature: Start of the cooling schedule.
        final_temperature: End of the cooling schedule.
        seeds: Per-sibling seeds; integer entries are cacheable,
            generator/None entries always anneal live.
        cache: Optional solve cache (``None`` delegates straight to
            :func:`~repro.ising.annealer_batched.anneal_many`).

    Returns:
        One :class:`~repro.ising.annealer.AnnealResult` per sibling, in
        input order.
    """
    hamiltonians = list(hamiltonians)
    if seeds is None:
        seeds = [None] * len(hamiltonians)
    seeds = list(seeds)
    if len(seeds) != len(hamiltonians):
        # Same contract as anneal_many — without this, the zip below
        # would silently truncate and misalign results with inputs.
        from repro.exceptions import HamiltonianError

        raise HamiltonianError(
            f"got {len(seeds)} seeds for {len(hamiltonians)} hamiltonians"
        )
    if cache is None:
        return anneal_many(
            hamiltonians,
            num_sweeps=num_sweeps,
            num_restarts=num_restarts,
            initial_temperature=initial_temperature,
            final_temperature=final_temperature,
            seeds=seeds,
        )
    results: "list[AnnealResult | None]" = [None] * len(hamiltonians)
    keys: "list[str | None]" = [None] * len(hamiltonians)
    misses: list[int] = []
    for index, (hamiltonian, sibling_seed) in enumerate(
        zip(hamiltonians, seeds)
    ):
        if isinstance(sibling_seed, (int, np.integer)):
            key = anneal_key(
                hamiltonian,
                num_sweeps,
                num_restarts,
                initial_temperature,
                final_temperature,
                int(sibling_seed),
            )
            keys[index] = key
            hit = cache.get("anneal", key, rebuild=_anneal_rebuild)
            if hit is not None:
                results[index] = hit
                continue
        misses.append(index)
    if misses:
        fresh = anneal_many(
            [hamiltonians[i] for i in misses],
            num_sweeps=num_sweeps,
            num_restarts=num_restarts,
            initial_temperature=initial_temperature,
            final_temperature=final_temperature,
            seeds=[seeds[i] for i in misses],
        )
        for index, result in zip(misses, fresh):
            results[index] = result
            if keys[index] is not None:
                cache.put(
                    "anneal",
                    keys[index],
                    result,
                    payload=_anneal_payload(result),
                )
    return [result for result in results if result is not None]


# ----------------------------------------------------------------------
# Brute-force sub-solutions
# ----------------------------------------------------------------------
def _bruteforce_rebuild(payload: dict) -> BruteForceResult:
    spins = payload["arrays"]["spins"]
    return BruteForceResult(
        value=float(payload["value"]),
        spins=tuple(int(s) for s in spins),
        maximum=float(payload["maximum"]),
    )


def cached_brute_force(
    hamiltonian: IsingHamiltonian,
    cache: "SolveCache | None" = None,
) -> BruteForceResult:
    """Memoized :func:`repro.ising.bruteforce.brute_force_minimum`.

    Exhaustive search is deterministic, so the exact instance fingerprint
    is the whole key — sweep harnesses that re-derive ``C_min`` for the
    same instance across figures pay the ``2**n`` scan once.
    """
    if cache is None:
        return brute_force_minimum(hamiltonian)
    key = bruteforce_key(hamiltonian)
    hit = cache.get("bruteforce", key, rebuild=_bruteforce_rebuild)
    if hit is not None:
        return hit
    result = brute_force_minimum(hamiltonian)
    cache.put(
        "bruteforce",
        key,
        result,
        payload={
            "value": result.value,
            "maximum": result.maximum,
            "arrays": {"spins": np.asarray(result.spins, dtype=np.int8)},
        },
    )
    return result


# ----------------------------------------------------------------------
# Trained-parameter payloads (encoders shared by the solver)
# ----------------------------------------------------------------------
def params_payload(
    params: "tuple[tuple[float, ...], tuple[float, ...]]",
) -> dict:
    """Disk payload of a trained ``(gammas, betas)`` pair.

    Python's ``repr``-based JSON float encoding round-trips every finite
    double exactly, so the disk tier preserves bit-identity.
    """
    gammas, betas = params
    return {"gammas": list(gammas), "betas": list(betas)}


def params_rebuild(
    payload: dict,
) -> "tuple[tuple[float, ...], tuple[float, ...]]":
    """Inverse of :func:`params_payload`."""
    return (
        tuple(float(g) for g in payload["gammas"]),
        tuple(float(b) for b in payload["betas"]),
    )
