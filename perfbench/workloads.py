"""The benchmark's four workloads: seeded inputs, the timed loop, checks.

Every workload derives its inputs from seeds, hands the program only those
inputs, and measures through the library's public API:

* ``sweep_p1`` / ``sweep_p2`` — the single-level device sweep (paper
  Fig. 4) at p=1 and p=2: one closed-loop solve at a time;
* ``recursive_1000`` — recursive freeze trees on 1000-variable instances;
* ``service_zipf`` — an open-loop Poisson request stream against the
  asyncio solve service, with Zipf-popular instances.

Inputs come from a fixed catalogue per workload (``catalogue_seed`` in
``workloads.json``) of instances, each with its own solver seed. Solve time
varies up to 3x between instances, and on the recursive route with the
planning seed, so a run of a few heavy solves would otherwise measure which
inputs it drew more than the code. Every closed-loop run therefore times
the same ``entries`` catalogue entries, in passes whose order ``--seed``
draws, until ``--seconds`` have passed. The service replays one fixed
schedule for every seed (see :meth:`Service.schedule`).

Each finished operation is reduced at once to an :class:`Op` summary (the
values the checks need plus a digest of every scientific field, which the
service takes after its timed window), so the benchmark holds no solve
results and peak memory is the program's own.
Reference values (ground energies, the classical baseline, direct solves)
are computed only after the timed region, so they warm no memo a timed
solve uses.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PARAMS: dict = json.loads(Path(__file__).with_name("workloads.json").read_text())

# Salts that keep the derived seed streams of one run independent.
_INSTANCE, _SOLVER, _WARMUP, _SCHEDULE = 1, 2, 3, 4


def derived_seed(seed: int, *path: int) -> int:
    """A 32-bit seed drawn deterministically from ``(seed, *path)``."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def ba_instance(nodes: int, attachment: int, seed: int):
    """A Barabasi-Albert power-law instance with random +-1 couplings."""
    from repro import IsingHamiltonian, barabasi_albert_graph

    graph = barabasi_albert_graph(nodes, attachment=attachment, seed=seed)
    return IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=seed)


def _hex(value: float) -> str:
    return float(value).hex()


class _Counts:
    """Sampled counts whose ``repr`` is their digest, taken only when a
    signature is formed."""

    __slots__ = ("counts",)

    def __init__(self, counts) -> None:
        self.counts = counts

    def __repr__(self) -> str:
        if self.counts is None:
            return "''"
        return repr(hashlib.sha256(
            self.counts.keys_array().tobytes()
            + self.counts.counts_array().tobytes()
        ).hexdigest())


def scientific_fields(result) -> list:
    """Every scientific field of a solve result, by reference: cheap to take
    and small to keep, unlike the result itself."""
    if hasattr(result, "tree"):  # RecursiveResult
        return [
            result.best_spins, _hex(result.best_value), _hex(result.ev_ideal),
            _hex(result.ev_noisy), result.num_circuits_executed,
            result.num_leaves, result.num_deduplicated_leaves,
            result.num_classical_nodes,
            sorted((path, scientific_fields(leaf))
                   for path, leaf in result.leaf_results.items()),
        ]
    return [  # FrozenQubitsResult
        tuple(result.frozen_qubits), result.best_spins,
        _hex(result.best_value), _hex(result.ev_ideal),
        _hex(result.ev_noisy), result.num_circuits_executed,
        [(o.subproblem.index, o.source, o.best_spins, _hex(o.best_value),
          _hex(o.ev_ideal), _hex(o.ev_noisy), _Counts(o.decoded_counts))
         for o in result.outcomes],
    ]


def digest(fields: list) -> str:
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def signature(result) -> str:
    """Digest of every scientific field of a solve result, bit for bit."""
    return digest(scientific_fields(result))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass
class Op:
    """One finished operation: a solve (closed loop) or a request (open).

    ``wall`` is the solve's wall time, or for a request the time from when
    it was due to when its answer arrived.
    """

    index: int
    instance: object
    wall: float
    ok: bool = True
    circuits: int = 0
    best_value: float = 0.0
    best_spins: tuple = ()
    ev_ideal: float = 0.0
    signature: str = ""
    info: dict = field(default_factory=dict)


def summarize(index: int, instance, wall: float, result, **info) -> Op:
    return Op(index, instance, wall, circuits=result.num_circuits_executed,
              best_value=result.best_value, best_spins=result.best_spins,
              ev_ideal=result.ev_ideal, signature=signature(result),
              info=info)


@dataclass
class RunRecord:
    ops: list
    attempted: int
    failed: int
    window_s: float
    cpu_s: float
    peak_rss_mb: float
    started: float = 0.0  # perf_counter bounds of the timed window
    ended: float = 0.0
    extra: dict = field(default_factory=dict)


class ClosedLoop:
    """Solves catalogue entries one at a time for ``seconds``.

    The loop makes passes over entries ``0 .. entries - 1``, each pass in
    a fresh seeded order, and stops at the first pass boundary after
    ``seconds`` once ``min_passes`` passes are done, so every entry is
    solved the same number of times and every run and every commit times
    the same work. The host this runs on changes speed by up to 30% for
    stretches of seconds, so each entry's time is its fastest pass, and the
    per-solve statistics are over those best walls. ``min_passes`` is what
    the parent commit completes in 20 s: without it, a run on a slower
    stretch fitted one pass fewer, took its best of fewer samples, and read
    up to 15% slower. With ``max_ops`` the loop runs exactly that many
    solves of the first pass instead.
    """

    top_span = ""

    def __init__(self, name: str, seed: int, params: dict) -> None:
        self.name = name
        self.seed = seed
        self.params = params

    def instance(self, index: int):
        p = self.params
        return ba_instance(p["nodes"], p["attachment"],
                           derived_seed(p["catalogue_seed"], _INSTANCE, index))

    def setup(self) -> None:
        p = self.params
        warmup = ba_instance(p["warmup_nodes"], p["attachment"],
                             derived_seed(p["catalogue_seed"], _WARMUP))
        self.solve(warmup, derived_seed(p["catalogue_seed"], _WARMUP, 1))

    def run(self, seconds: float, max_ops=None, tracer=None) -> RunRecord:
        ops, failed, position = [], 0, 0
        catalogue = self.params["catalogue_seed"]
        fixed = self.params["entries"]
        min_ops = max(1, fixed * self.params["min_passes"])
        rng = np.random.default_rng(derived_seed(self.seed, _SCHEDULE))
        order: list = []
        cpu_start = time.process_time()
        start = time.perf_counter()
        while True:
            if max_ops is not None:
                if position >= max_ops:
                    break
            elif not order and position >= min_ops and (
                time.perf_counter() - start >= seconds
            ):
                break
            if not order:
                order = [int(index) for index in rng.permutation(fixed)]
            index = order.pop(0)
            position += 1
            hamiltonian = self.instance(index)
            solver_seed = derived_seed(catalogue, _SOLVER, index)
            began = time.perf_counter()
            try:
                if tracer is None:
                    result = self.solve(hamiltonian, solver_seed)
                else:
                    with tracer.span(self.top_span, tag=f"op{index}"):
                        result = self.solve(hamiltonian, solver_seed)
            except Exception:  # noqa: BLE001 — counted, reported, run goes on
                traceback.print_exc(file=sys.stderr)
                failed += 1
            else:
                wall = time.perf_counter() - began
                ops.append(self.summarize(index, hamiltonian, wall, result))
        ended = time.perf_counter()
        return RunRecord(ops, position, failed, ended - start,
                         time.process_time() - cpu_start, peak_rss_mb(),
                         started=start, ended=ended)

    def summarize(self, index, hamiltonian, wall, result) -> Op:
        return summarize(index, hamiltonian, wall, result)

    def check(self, record: RunRecord, refs: dict) -> list[str]:
        errors = []
        first = self.fixed_ops(record)
        for op in record.ops:
            if op.best_value != op.instance.evaluate(op.best_spins):
                errors.append(f"op{op.index}: best_value != H(best_spins)")
            if op.signature != first[op.index].signature:
                errors.append(f"op{op.index}: a repeat solve differs from "
                              "the first solve of the same entry")
        return errors

    def fixed_ops(self, record: RunRecord) -> dict:
        """Entry index -> its first solve, carrying its fastest wall."""
        best: dict = {}
        for op in record.ops:
            if op.index not in best:
                best[op.index] = Op(**{**op.__dict__})
            best[op.index].wall = min(best[op.index].wall, op.wall)
        return best

    def end_to_end(self, record: RunRecord, refs: dict) -> dict:
        fixed = list(self.fixed_ops(record).values())
        walls = [op.wall for op in fixed]
        solve_s = statistics.median(walls)
        return {
            "solve_s_p50": solve_s,
            "circuits_per_s": sum(op.circuits for op in fixed) / sum(walls),
            "best_ratio": statistics.fmean(
                op.best_value / refs["best_ref"][op.index] for op in fixed
            ),
            "ev_ratio": statistics.fmean(
                refs["ev"][op.index] / refs["ev_ref"][op.index]
                for op in fixed
            ),
            # Latency and goodput measure the service; every workload
            # prints them only because every end-to-end metric must be
            # printed. One client waiting on each answer: a solve is due
            # when the previous one ends, so its latency is its wall, and
            # with one best wall per entry no tail percentile has ten
            # samples beyond it. Both are therefore the median solve and
            # goodput its inverse, copies that move only with solve_s_p50.
            "latency_p50_s": solve_s,
            "latency_p95_s": solve_s,
            "goodput_rps": 1.0 / solve_s,
        }


class Sweep(ClosedLoop):
    """Single-level FrozenQubits on a device, every sibling executed."""

    top_span = "core.solve"

    def setup(self) -> None:
        from repro import FrozenQubitsSolver, SolverConfig, get_backend
        from repro.backend import SerialBackend

        p = self.params
        self._device = get_backend(p["device"])
        self._config = SolverConfig(num_layers=p["num_layers"])
        self._solver_cls = FrozenQubitsSolver
        self._backend = SerialBackend()
        super().setup()

    def solve(self, hamiltonian, solver_seed: int):
        p = self.params
        solver = self._solver_cls(
            num_frozen=p["num_frozen"], prune_symmetric=p["prune_symmetric"],
            config=self._config, seed=solver_seed, cache=False,
        )
        return solver.solve(hamiltonian, device=self._device,
                            backend=self._backend)

    def references(self, record: RunRecord) -> dict:
        from repro.ising.bruteforce import brute_force_minimum

        ground = {index: brute_force_minimum(op.instance).value
                  for index, op in self.fixed_ops(record).items()}
        return {
            "best_ref": ground,
            "ev_ref": ground,
            "ev": {op.index: op.ev_ideal for op in record.ops},
        }

    def check(self, record: RunRecord, refs: dict) -> list[str]:
        errors = super().check(record, refs)
        expected = self.params["circuits_per_solve"]
        for op in record.ops:
            if op.circuits != expected:
                errors.append(f"op{op.index}: executed {op.circuits} "
                              f"circuits, expected {expected}")
            if op.best_value < refs["best_ref"][op.index]:
                errors.append(f"op{op.index}: best_value below ground energy")
        return errors


class Recursive(ClosedLoop):
    """Recursive freeze trees under an execution budget, ideal execution."""

    top_span = "recursive.solve_recursive"

    def setup(self) -> None:
        from repro import SolverConfig
        from repro.backend import SerialBackend
        from repro.cache import SolveCache
        from repro.planning import ExecutionBudget
        from repro.recursive import RecursiveConfig, solve_recursive

        p = self.params
        self._solve = solve_recursive
        self._cache_cls = SolveCache
        self._config = SolverConfig(num_layers=p["num_layers"])
        self._recursive_config = RecursiveConfig(
            max_leaf_qubits=p["max_leaf_qubits"],
            max_frozen_per_level=p["max_frozen_per_level"],
        )
        self._budget = ExecutionBudget(max_circuits=p["max_circuits"])
        self._backend = SerialBackend()
        super().setup()

    def solve(self, hamiltonian, solver_seed: int):
        return self._solve(
            hamiltonian, backend=self._backend, config=self._config,
            recursive_config=self._recursive_config, budget=self._budget,
            seed=solver_seed, cache=self._cache_cls(),
        )

    def summarize(self, index, hamiltonian, wall, result) -> Op:
        leaves = [(leaf.hamiltonian, leaf.ev_ideal)
                  for leaf in result.leaf_results.values()]
        # The tree is validated by check(), after the timed loop.
        return summarize(
            index, hamiltonian, wall, result, tree=result.tree, leaves=leaves,
            num_leaves=result.num_leaves,
            num_deduplicated_leaves=result.num_deduplicated_leaves,
            cache_stats=result.cache_stats,
        )

    def references(self, record: RunRecord) -> dict:
        from repro.ising.annealer import simulated_annealing
        from repro.ising.bruteforce import brute_force_minimum

        fixed = self.fixed_ops(record)
        baseline = {index: simulated_annealing(op.instance, seed=5).value
                    for index, op in fixed.items()}
        # The quantum part's quality: executed leaves' expectations against
        # their own ground energies, summed over the leaves of one solve.
        ev, ev_ref = {}, {}
        for op in fixed.values():
            leaves = op.info["leaves"]
            ev[op.index] = sum(value for _, value in leaves)
            ev_ref[op.index] = sum(brute_force_minimum(leaf).value
                                   for leaf, _ in leaves)
        return {"best_ref": baseline, "ev": ev, "ev_ref": ev_ref}

    def check(self, record: RunRecord, refs: dict) -> list[str]:
        errors = super().check(record, refs)
        bar = self.params["quality_bar"]
        for op in record.ops:
            try:
                op.info["tree"].validate_partition()
            except Exception as exc:  # noqa: BLE001 — reported as a check
                errors.append(f"op{op.index}: invalid partition: "
                              f"{str(exc) or type(exc).__name__}")
            ratio = op.best_value / refs["best_ref"][op.index]
            if ratio < bar:
                errors.append(f"op{op.index}: quality ratio {ratio:.4f} "
                              f"below the {bar} bar")
        return errors


class Service:
    """Open-loop Zipf request stream against ``SolveService``."""

    def __init__(self, name: str, seed: int, params: dict) -> None:
        self.name = name
        self.seed = seed
        self.params = p = params
        catalogue = p["catalogue_seed"]
        rng = np.random.default_rng(derived_seed(catalogue, _INSTANCE))
        sizes = rng.integers(p["min_nodes"], p["max_nodes"] + 1,
                             size=p["pool_size"])
        self.pool = [
            ba_instance(int(n), p["attachment"],
                        derived_seed(catalogue, _INSTANCE, k))
            for k, n in enumerate(sizes)
        ]
        # Each instance has a fixed solver seed, so repeats are identical
        # requests: cache reads when sequential, coalescing when concurrent.
        self.pool_seeds = [derived_seed(catalogue, _SOLVER, k)
                           for k in range(p["pool_size"])]

    def schedule(self, seconds: float) -> list[tuple[float, int]]:
        """``(due offset, pool index)`` per request.

        A Poisson process conditioned on its count: ``rate * seconds``
        arrivals, uniform over the window, so every run offers the same
        load. Pool index ``k`` has Zipf popularity ``1 / (k + 1) ** s``;
        the draws are stratified (each instance gets its popularity's
        share of the requests, by largest remainder), so the mix is fixed.

        Arrival times and order come from ``catalogue_seed``, not from the
        run's seed: the latency tail is set by where the first, uncached
        request of each instance lands among the others, and schedules
        drawn per seed moved ``latency_p95_s`` by 26-33 ms over six seeds,
        as much as its bound. One fixed schedule makes every run and
        every commit serve the same requests at the same times, as the
        closed loops time the same catalogue entries.
        """
        p = self.params
        rng = np.random.default_rng(derived_seed(p["catalogue_seed"],
                                                 _SCHEDULE))
        count = max(1, round(p["rate_rps"] * seconds))
        offsets = np.sort(rng.uniform(0.0, seconds, size=count))
        weights = 1.0 / np.arange(1, p["pool_size"] + 1) ** p["zipf_exponent"]
        shares = count * weights / weights.sum()
        quotas = np.floor(shares).astype(int)
        remainder = count - quotas.sum()
        quotas[np.argsort(quotas - shares, kind="stable")[:remainder]] += 1
        keys = rng.permutation(np.repeat(np.arange(p["pool_size"]), quotas))
        return [(float(t), int(k)) for t, k in zip(offsets, keys)]

    def setup(self) -> None:
        from repro import SolverConfig
        from repro.cache import SolveCache, set_default_cache, stats_delta
        from repro.exceptions import ServiceOverloaded
        from repro.service import ServiceConfig, SolveRequest, SolveService

        p = self.params
        self._config = SolverConfig(num_layers=p["num_layers"],
                                    shots=p["shots"])
        self._service_cls = SolveService
        self._service_config = ServiceConfig(
            max_concurrency=p["max_concurrency"]
        )
        self._request_cls = SolveRequest
        self._overloaded = ServiceOverloaded
        self._cache_cls = SolveCache
        self._set_default_cache = set_default_cache
        self._stats_delta = stats_delta
        catalogue = p["catalogue_seed"]
        warmup = ba_instance(p["warmup_nodes"], p["attachment"],
                             derived_seed(catalogue, _WARMUP))

        async def one_request():
            async with SolveService(self._service_config) as service:
                result = await service.solve(
                    warmup, num_frozen=p["num_frozen"],
                    seed=derived_seed(catalogue, _WARMUP, 1),
                    backend=p["backend"],
                    solver_options={"config": self._config},
                )
            return result.raise_for_status()

        asyncio.run(one_request())

    def request(self, index: int, key: int):
        p = self.params
        return self._request_cls(
            hamiltonian=self.pool[key], request_id=f"q{index}",
            num_frozen=p["num_frozen"], seed=self.pool_seeds[key],
            backend=p["backend"], solver_options={"config": self._config},
        )

    def run(self, seconds: float, max_ops=None, tracer=None) -> RunRecord:
        """``passes`` replays of one schedule that share ``seconds``, each
        against a fresh service and a fresh session-default cache, so every
        pass serves the same requests at the same offsets, cold misses
        included (``max_ops`` does not apply: the schedule fixes the
        requests)."""
        passes = self.params["passes"]
        schedule = self.schedule(seconds / passes)
        cpu_start = time.process_time()
        records = []
        for number in range(passes):
            cache = self._cache_cls()
            self._set_default_cache(cache)
            try:
                before = cache.stats_snapshot()
                record = asyncio.run(self._drive(schedule, number, tracer))
                record.extra["cache_stats"] = self._stats_delta(
                    before, cache.stats_snapshot()
                )
            finally:
                self._set_default_cache(None)
            records.append(record)
        return RunRecord(
            [op for r in records for op in r.ops],
            sum(r.attempted for r in records),
            sum(r.failed for r in records),
            sum(r.window_s for r in records),
            time.process_time() - cpu_start, peak_rss_mb(),
            started=records[0].started, ended=records[-1].ended,
            extra={
                "passes": passes,
                "lags": [lag for r in records for lag in r.extra["lags"]],
                "events": [e for r in records for e in r.extra["events"]],
                "stats": {name: sum(r.extra["stats"].get(name, 0)
                                    for r in records)
                          for name in ("admitted", "coalesced", "shed",
                                       "dispatches")},
                "cache_stats": [r.extra["cache_stats"] for r in records],
            },
        )

    async def _drive(self, schedule, number, tracer) -> RunRecord:
        loop = asyncio.get_running_loop()
        ops: dict[int, Op] = {}
        lags, futures, events = [], [], []
        shed = 0

        def finished(index, key, due, future):
            # Runs on the loop as each answer arrives: time it and keep its
            # fields by reference; the digests are taken after the window.
            wall = loop.time() - due
            response = future.result()
            op_index = number * len(schedule) + index
            info = {"key": key, "request": index}
            if response.status != "ok":
                ops[index] = Op(op_index, self.pool[key], wall, ok=False,
                                info={**info, "status": response.status})
                return
            result = response.value
            ops[index] = Op(
                op_index, self.pool[key], wall,
                # Coalesced requests rode another request's circuits.
                circuits=(0 if response.coalesced_with
                          else result.num_circuits_executed),
                best_value=result.best_value, best_spins=result.best_spins,
                ev_ideal=result.ev_ideal,
                info={**info, "elapsed_s": response.elapsed_seconds,
                      "fields": scientific_fields(result)},
            )

        async with self._service_cls(self._service_config) as service:
            queue = service.subscribe() if tracer is not None else None
            consumer = (asyncio.create_task(_collect(queue, events))
                        if queue is not None else None)
            start = loop.time()
            started = time.perf_counter()
            for index, (offset, key) in enumerate(schedule):
                due = start + offset
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                lags.append(loop.time() - due)
                try:
                    future = await service.submit(self.request(index, key))
                except self._overloaded:
                    shed += 1
                    continue
                future.add_done_callback(
                    lambda f, i=index, k=key, d=due: finished(i, k, d, f)
                )
                futures.append(future)
            # Every done callback was registered before gather's, so all
            # answers are in once gather returns.
            await asyncio.gather(*futures)
            end = loop.time()
            stats = service.stats()
            if consumer is not None:
                await asyncio.sleep(0)  # let the last events land
                consumer.cancel()
                try:
                    await consumer
                except asyncio.CancelledError:
                    pass
                service.unsubscribe(queue)
        ordered = [ops[index] for index in sorted(ops)]
        for op in ordered:
            if op.ok:
                op.signature = digest(op.info.pop("fields"))
        failed = shed + sum(1 for op in ordered if not op.ok)
        return RunRecord(
            ordered, len(schedule), failed, end - start, 0.0, 0.0,
            started=started, ended=started + (end - start),
            extra={"lags": lags, "stats": stats, "events": events},
        )

    def references(self, record: RunRecord) -> dict:
        from repro import FrozenQubitsSolver
        from repro.ising.bruteforce import brute_force_minimum

        p = self.params
        keys = sorted({op.info["key"] for op in record.ops})
        ground = {k: brute_force_minimum(self.pool[k]).value for k in keys}
        direct = {}
        for k in keys:
            solver = FrozenQubitsSolver(
                num_frozen=p["num_frozen"], seed=self.pool_seeds[k],
                config=self._config, cache=False,
            )
            direct[k] = signature(solver.solve(self.pool[k],
                                               backend=p["backend"]))
        return {"ground": ground, "direct": direct}

    def check(self, record: RunRecord, refs: dict) -> list[str]:
        errors = []
        for op in record.ops:
            if not op.ok:
                continue
            if op.best_value != op.instance.evaluate(op.best_spins):
                errors.append(f"q{op.index}: best_value != H(best_spins)")
            if op.signature != refs["direct"][op.info["key"]]:
                errors.append(f"q{op.index}: response differs from a direct "
                              "solve of the same instance and seed")
        return errors

    def end_to_end(self, record: RunRecord, refs: dict) -> dict:
        """Latencies are per request, each its best over the passes: as in
        the closed loops, the host slows for stretches of seconds, and a
        slowdown only ever makes a request look worse."""
        limit = self.params["latency_limit_s"]
        ok = [op for op in record.ops if op.ok]
        ground = refs["ground"]
        walls: dict[int, float] = {}
        elapsed: dict[int, float] = {}
        good: set = set()
        for op in record.ops:
            request = op.info["request"]
            walls[request] = min(walls.get(request, op.wall), op.wall)
            if op.ok:
                took = op.info["elapsed_s"]
                elapsed[request] = min(elapsed.get(request, took), took)
                if op.wall <= limit:
                    good.add(request)
        latencies = list(walls.values())
        pass_window = record.window_s / record.extra["passes"]
        return {
            # As the service reports it: submit to resolution.
            "solve_s_p50": statistics.median(elapsed.values()),
            "circuits_per_s": sum(op.circuits for op in ok) / record.window_s,
            "best_ratio": statistics.fmean(
                op.best_value / ground[op.info["key"]] for op in ok
            ),
            "ev_ratio": statistics.fmean(
                op.ev_ideal / ground[op.info["key"]] for op in ok
            ),
            "latency_p50_s": statistics.median(latencies),
            "latency_p95_s": percentile(latencies, 95),
            "goodput_rps": len(good) / pass_window,
        }


async def _collect(queue, events: list) -> None:
    while True:
        events.append(await queue.get())


def make(name: str, seed: int, overrides: "dict | None" = None):
    """The workload ``name`` at ``seed``; ``overrides`` replace parameters."""
    params = {**PARAMS[name], **(overrides or {})}
    cls = {"sweep": Sweep, "recursive": Recursive,
           "service": Service}[params["kind"]]
    return cls(name, seed, params)
