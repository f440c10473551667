"""In-memory span recorder and the per-layer instrumentation of the traced run.

A span is one wrapped call: its name, start and end on ``perf_counter``,
the span that was open when it started (its parent), and the operation
tag (solve or request id) active at the time. The parent and tag ride a
``contextvars`` context, so spans opened in ``asyncio.to_thread`` workers
keep the request that caused them.

:func:`instrument` installs one wrapper per public call at the module
attribute its caller looks up, and restores every original on exit. It is
used by the traced run only; the untraced run calls the program unchanged.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    tag: str


_current_parent: "contextvars.ContextVar[int]" = contextvars.ContextVar(
    "perfbench_parent", default=-1
)
_current_tag: "contextvars.ContextVar[str]" = contextvars.ContextVar(
    "perfbench_tag", default=""
)


class Tracer:
    """Spans plus exact counters, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.results: dict[str, list] = {}
        self._lock = threading.Lock()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _open(self, name: str) -> "tuple[int, contextvars.Token]":
        span = Span(name, time.perf_counter(), 0.0, _current_parent.get(),
                    _current_tag.get())
        with self._lock:  # service worker threads open spans concurrently
            index = len(self.spans)
            self.spans.append(span)
        return index, _current_parent.set(index)

    def _close(self, index: int, token: "contextvars.Token") -> None:
        self.spans[index].end = time.perf_counter()
        _current_parent.reset(token)

    @contextlib.contextmanager
    def span(self, name: str, tag: "str | None" = None):
        tag_token = _current_tag.set(tag) if tag is not None else None
        index, token = self._open(name)
        try:
            yield
        finally:
            self._close(index, token)
            if tag_token is not None:
                _current_tag.reset(tag_token)

    def wrap(self, name: str, function, on_call=None, keep_result=False,
             tag_of=None):
        """``function`` with a span around every call.

        ``on_call(args, kwargs)`` runs before the call (work counters);
        ``keep_result`` stores each return value under ``name``;
        ``tag_of(args, kwargs)`` names the operation the call serves.
        """
        tracer = self

        def after(result):
            if keep_result:
                tracer.results.setdefault(name, []).append(result)
            return result

        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def wrapped_async(*args, **kwargs):
                if on_call is not None:
                    on_call(args, kwargs)
                index, token = tracer._open(name)
                try:
                    return after(await function(*args, **kwargs))
                finally:
                    tracer._close(index, token)

            return wrapped_async

        @functools.wraps(function)
        def wrapped(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            tag_token = (_current_tag.set(tag_of(args, kwargs))
                         if tag_of is not None else None)
            index, token = tracer._open(name)
            try:
                return after(function(*args, **kwargs))
            finally:
                tracer._close(index, token)
                if tag_token is not None:
                    _current_tag.reset(tag_token)

        return wrapped

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def inclusive(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        return sum(self_times(self.spans)[i]
                   for i, s in enumerate(self.spans) if s.name == name)

    def uncovered(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` that no top-level span covers."""
        tops = [(s.start, s.end) for s in self.spans if s.parent < 0]
        return (end - start) - covered_length(tops, start, end)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: "list[Span]") -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start)
        - covered_length(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


# ----------------------------------------------------------------------
# Instrumentation targets
# ----------------------------------------------------------------------
def _num_qubits(args, kwargs) -> int:
    hamiltonian = args[0] if args else kwargs["hamiltonian"]
    return hamiltonian.num_qubits


def _targets(tracer: Tracer) -> list:
    """``(module, owner attribute or None, attribute, span name, options)``.

    Each entry names the module attribute the *caller* resolves at call
    time: ``repro.core.solver`` imported ``qaoa_probabilities`` by name, so
    that is where the sampling kernel is wrapped; ``_coalesce_key`` and the
    recursive planner import lazily from their defining modules.
    """

    def amplitudes(args, kwargs):
        tracer.count("sim.amplitudes_touched", 2 ** _num_qubits(args, kwargs))

    def anneal_instances(args, kwargs):
        hamiltonians = args[0] if args else kwargs["hamiltonians"]
        tracer.count("ising.anneal_many.instances", len(hamiltonians))

    return [
        ("repro.qaoa.executor", None, "qaoa_value_and_grad",
         "sim.qaoa_value_and_grad", {"on_call": amplitudes}),
        ("repro.core.solver", None, "qaoa_probabilities",
         "sim.qaoa_probabilities", {}),
        ("repro.core.solver", None, "noisy_counts", "sim.noisy_counts", {}),
        ("repro.core.solver", None, "optimize_qaoa", "qaoa.optimize_qaoa",
         {"keep_result": True}),
        ("repro.core.solver", None, "transpile", "transpile.transpile", {}),
        ("repro.backend.serial", "SerialBackend", "run", "backend.run",
         {"keep_result": True}),
        ("repro.backend.base", None, "train_job", "backend.train_job", {}),
        ("repro.backend.base", None, "finish_qaoa_instance",
         "backend.finish", {}),
        ("repro.core.solver", "FrozenQubitsSolver", "prepare_jobs",
         "core.prepare_jobs", {}),
        ("repro.core.solver", "FrozenQubitsSolver", "finalize",
         "core.finalize", {}),
        ("repro.cache.memo", None, "anneal_many", "ising.anneal_many",
         {"on_call": anneal_instances}),
        ("repro.planning.pruning", None, "rank_assignments",
         "planning.rank_assignments", {}),
        ("repro.recursive.solve", None, "plan_tree", "recursive.plan_tree",
         {}),
        ("repro.cache.keys", None, "canonical_ising_key",
         "cache.canonical_ising_key", {}),
        ("repro.recursive.solve", None, "canonical_ising_key",
         "cache.canonical_ising_key", {}),
        ("repro.service.service", "SolveService", "submit",
         "service.submit", {}),
        ("repro.service.service", None, "default_execute",
         "service.execute",
         {"tag_of": lambda args, kwargs: args[0].request_id}),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore."""
    from repro.ising.hamiltonian import IsingHamiltonian

    installed = []
    try:
        for module_name, owner_name, attribute, span_name, options in (
            _targets(tracer)
        ):
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attribute] if owner_name else getattr(
                owner, attribute
            )
            setattr(owner, attribute, tracer.wrap(span_name, original, **options))
            installed.append((owner, attribute, original))

        original_landscape = IsingHamiltonian.energy_landscape

        def energy_landscape(self):
            # A build is a call on an instance whose per-instance table is
            # not yet filled: the spectrum memo missed.
            if getattr(self, "_landscape", None) is None:
                tracer.count("ising.energy_landscape.calls")
            return original_landscape(self)

        IsingHamiltonian.energy_landscape = energy_landscape
        installed.append((IsingHamiltonian, "energy_landscape",
                          original_landscape))
        yield tracer
    finally:
        for owner, attribute, original in reversed(installed):
            setattr(owner, attribute, original)
