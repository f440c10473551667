"""The resilient asyncio solve service.

:class:`SolveService` multiplexes many concurrent solve requests over
the existing execution backends while keeping every production concern
explicit:

* **Bounded admission + load shedding** — requests wait in a bounded
  queue; when it is full they are *rejected* with
  :class:`~repro.exceptions.ServiceOverloaded` instead of growing
  memory without bound. Backpressure is a feature, not a failure.
* **Deadlines with cooperative cancellation** — a request's deadline
  propagates into the backend fan-out as an
  :class:`~repro.backend.ExecutionControl`: backends stop between jobs
  once the deadline passes, backoff sleeps wake early, and the caller
  gets a structured :class:`~repro.exceptions.ServiceTimeout` carrying
  provenance (stage reached, jobs finished) — never a hang.
* **Request coalescing** — concurrent requests for the same instance
  (same exact Ising fingerprint, same solver options) ride one
  training run: the leader executes, every sibling's future is fed
  from the same result. N identical requests cost one solve and each
  response stays bit-identical to a direct ``solver.solve()``.
* **Circuit breaking with classical degradation** — consecutive
  dispatch failures open a breaker; while open, requests degrade to the
  classical baseline (:func:`repro.baselines.solve_classically`) or
  fail fast, and half-open probes close the breaker once the backend
  recovers. Cooperative cancellations never count as failures.
* **Graceful drain** — :meth:`SolveService.drain` stops admission,
  finishes everything in flight, and only then lets the workers exit;
  :meth:`SolveService.aclose` is drain plus teardown.
* **Observability** — every lifecycle transition streams as a typed
  :class:`~repro.service.events.ServiceEvent` to bounded subscriber
  queues, and :meth:`SolveService.stats` snapshots the counters
  (admitted/coalesced/shed/dispatches/timeouts/...) plus breaker and
  queue state.

The service runs solves in worker threads (``asyncio.to_thread``) so
the event loop stays responsive; determinism is untouched because each
request's solve still runs the library's seeded pipeline unchanged.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections.abc import AsyncIterator, Callable
from dataclasses import dataclass, field

from repro.backend.base import ExecutionControl
from repro.exceptions import (
    DeadlineExceeded,
    ExecutionCancelled,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    ServiceTimeout,
    ServiceUnavailable,
)
from repro.ising.hamiltonian import IsingHamiltonian
from repro.service.breaker import CircuitBreaker
from repro.service.events import (
    BreakerStateChanged,
    RequestAdmitted,
    RequestCoalesced,
    RequestFinished,
    RequestShed,
    RequestStarted,
    ServiceDraining,
    ServiceEvent,
    SiblingProgress,
)


@dataclass(frozen=True)
class ServiceConfig:
    """Operational knobs of a :class:`SolveService`.

    Attributes:
        max_queue_depth: Admission-queue bound; a submit finding it full
            is shed with :class:`~repro.exceptions.ServiceOverloaded`.
        max_concurrency: Worker tasks draining the queue (each runs one
            solve at a time in a thread).
        default_deadline_seconds: Deadline applied to requests that do
            not carry their own (``None`` = unbounded).
        coalesce: Whether identical concurrent requests share one solve.
        breaker_failure_threshold: Consecutive dispatch failures that
            open the circuit breaker.
        breaker_reset_seconds: Open-breaker cooldown before probing.
        half_open_probes: Concurrent probes allowed while half-open.
        classical_fallback: While the breaker is open, serve requests
            with the classical baseline (``"degraded"`` status) instead
            of failing them with
            :class:`~repro.exceptions.ServiceUnavailable`.
        event_buffer: Per-subscriber event-queue bound; a slow
            subscriber loses oldest events, never blocks the service.
        fault_injection: Optional :class:`~repro.faults.FaultInjection`
            whose service-side faults (``fail_requests``,
            ``slow_requests``) this service fires; ``None`` defers to
            the ``REPRO_FAULTS`` environment hook.
    """

    max_queue_depth: int = 256
    max_concurrency: int = 4
    default_deadline_seconds: "float | None" = None
    coalesce: bool = True
    breaker_failure_threshold: int = 5
    breaker_reset_seconds: float = 30.0
    half_open_probes: int = 1
    classical_fallback: bool = True
    event_buffer: int = 256
    fault_injection: "object | None" = None

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ServiceError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.max_concurrency < 1:
            raise ServiceError(
                f"max_concurrency must be >= 1, got {self.max_concurrency}"
            )
        if (
            self.default_deadline_seconds is not None
            and self.default_deadline_seconds <= 0
        ):
            raise ServiceError(
                f"default_deadline_seconds must be > 0, got "
                f"{self.default_deadline_seconds}"
            )
        if self.event_buffer < 1:
            raise ServiceError(
                f"event_buffer must be >= 1, got {self.event_buffer}"
            )


@dataclass
class SolveRequest:
    """One caller's solve, as the service sees it.

    Attributes:
        hamiltonian: The Ising problem to solve.
        request_id: Caller-chosen id (auto-assigned ``"r<n>"`` when
            empty); echoed in results, events, and fault plans.
        num_frozen: Qubits to freeze, m.
        seed: Solver seed — part of the coalescing identity, because two
            requests only share a solve if their answers are
            bit-identical.
        deadline_seconds: Relative deadline; ``None`` defers to
            :attr:`ServiceConfig.default_deadline_seconds`.
        backend: Execution backend (instance, registry name, or ``None``
            for the session default).
        solver_options: Extra :class:`~repro.core.FrozenQubitsSolver`
            keyword arguments (``hotspot_policy``, ``config``, ...).
    """

    hamiltonian: IsingHamiltonian
    request_id: str = ""
    num_frozen: int = 1
    seed: "int | None" = None
    deadline_seconds: "float | None" = None
    backend: "object | None" = None
    solver_options: dict = field(default_factory=dict)


@dataclass
class ServiceResult:
    """The service's answer to one request — success or not, never a hang.

    Attributes:
        request_id: The request answered.
        status: ``"ok"`` (quantum pipeline result), ``"degraded"``
            (classical fallback while the breaker was open),
            ``"timeout"`` (deadline expired), ``"cancelled"``
            (cooperatively abandoned), or ``"failed"``.
        value: The solve result (:class:`~repro.core.FrozenQubitsResult`
            for ``"ok"``, :class:`~repro.baselines.ClassicalResult` for
            ``"degraded"``, else ``None``).
        error: The structured failure (``None`` on success).
        coalesced_with: Leader request id when this request rode another
            request's solve (``""`` = it was the leader / ran alone).
        elapsed_seconds: Submit-to-resolution wall clock.
        provenance: Post-mortem context: deadline/stage details on
            timeouts, per-partition failure provenance on degraded
            fan-outs.
    """

    request_id: str
    status: str
    value: "object | None" = None
    error: "BaseException | None" = None
    coalesced_with: str = ""
    elapsed_seconds: float = 0.0
    provenance: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether the request produced a usable value."""
        return self.status in ("ok", "degraded")

    def raise_for_status(self) -> "object":
        """Return :attr:`value`, raising the stored error on failure."""
        if not self.ok:
            if self.error is not None:
                raise self.error
            raise ServiceError(
                f"request {self.request_id!r} finished with status "
                f"{self.status!r} and no error"
            )
        return self.value


class _Member:
    """One request's bookkeeping inside a coalesced group."""

    __slots__ = (
        "request", "future", "deadline_at", "submitted_at", "timer", "is_leader"
    )

    def __init__(self, request, future, deadline_at, submitted_at, is_leader):
        self.request = request
        self.future = future
        self.deadline_at = deadline_at
        self.submitted_at = submitted_at
        self.timer = None
        self.is_leader = is_leader


class _Group:
    """A set of coalesced requests sharing one solve dispatch."""

    __slots__ = ("key", "members", "control", "started", "jobs_done", "live")

    def __init__(self, key):
        self.key = key
        self.members: "list[_Member]" = []
        self.control: "ExecutionControl | None" = None
        self.started = False
        self.jobs_done = 0
        self.live = 0

    @property
    def leader(self) -> _Member:
        return self.members[0]

    def deadline(self) -> "float | None":
        """The group's effective deadline: the *latest* live member's.

        A shorter-deadline member times out individually (its future
        resolves, the solve keeps going for the others); only when every
        member has given up is the run cancelled — so coalescing never
        shortens anyone's deadline.
        """
        deadlines = [
            m.deadline_at
            for m in self.members
            if not m.future.done()
        ]
        if not deadlines or any(d is None for d in deadlines):
            return None
        return max(deadlines)


def default_execute(request: SolveRequest, control: ExecutionControl):
    """The default dispatch: a fresh seeded solver run for the request.

    Injectable via ``SolveService(execute=...)`` so tests can stand in a
    stub without touching the orchestration under test.
    """
    from repro.core.solver import FrozenQubitsSolver

    solver = FrozenQubitsSolver(
        num_frozen=request.num_frozen,
        seed=request.seed,
        **request.solver_options,
    )
    return solver.solve(
        request.hamiltonian, backend=request.backend, control=control
    )


class SolveService:
    """Deadline-aware, backpressured, coalescing solve frontend.

    Args:
        config: Operational knobs (:class:`ServiceConfig`).
        execute: Dispatch function ``(request, control) -> result``;
            defaults to :func:`default_execute`. Runs in a worker
            thread and must honour the control's checkpoints.
        clock: Monotonic time source shared by deadlines, events, and
            the breaker (injectable for tests).

    Use as an async context manager (``async with SolveService() as
    svc``) or call :meth:`start` / :meth:`aclose` explicitly. All
    methods must be called from the owning event loop.
    """

    def __init__(
        self,
        config: "ServiceConfig | None" = None,
        execute: "Callable[[SolveRequest, ExecutionControl], object] | None" = None,
        clock: "Callable[[], float]" = time.monotonic,
    ) -> None:
        self._config = config or ServiceConfig()
        self._execute = execute or default_execute
        self._clock = clock
        self._breaker = CircuitBreaker(
            failure_threshold=self._config.breaker_failure_threshold,
            reset_seconds=self._config.breaker_reset_seconds,
            half_open_probes=self._config.half_open_probes,
            clock=clock,
            on_state_change=self._on_breaker_change,
        )
        self._queue: "asyncio.Queue[_Group] | None" = None
        self._workers: "list[asyncio.Task]" = []
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._inflight: "dict[tuple, _Group]" = {}
        self._subscribers: "list[asyncio.Queue]" = []
        self._draining = False
        self._next_id = 0
        self._dispatch_counts: dict[str, int] = {}
        self._counters = {
            "submitted": 0,
            "admitted": 0,
            "coalesced": 0,
            "shed": 0,
            "dispatches": 0,
            "degraded": 0,
            "ok": 0,
            "failed": 0,
            "timeouts": 0,
            "cancelled": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "SolveService":
        """Spin up the admission queue and worker tasks (idempotent)."""
        if self._queue is not None:
            return self
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self._config.max_queue_depth)
        self._workers = [
            asyncio.create_task(self._worker(), name=f"solve-worker-{i}")
            for i in range(self._config.max_concurrency)
        ]
        return self

    async def drain(self) -> None:
        """Stop admitting, finish everything in flight, leave workers idle.

        New submissions raise :class:`~repro.exceptions.ServiceClosed`
        from the moment this is called; every already-admitted (or
        coalesced) request runs to its normal resolution — result,
        timeout, or failure — before ``drain`` returns.
        """
        if self._queue is None:
            self._draining = True
            return
        if not self._draining:
            self._draining = True
            self._emit(
                ServiceDraining(
                    timestamp=self._clock(),
                    in_flight=len(self._inflight),
                )
            )
        await self._queue.join()
        # Coalesced members always resolve with their group's dispatch,
        # which task_done() covers — so the queue joining means every
        # future is settled.

    async def aclose(self) -> None:
        """Drain, then tear the worker tasks down."""
        await self.drain()
        for worker in self._workers:
            worker.cancel()
        for worker in self._workers:
            try:
                await worker
            except asyncio.CancelledError:
                pass
        self._workers = []
        self._queue = None

    async def __aenter__(self) -> "SolveService":
        return await self.start()

    async def __aexit__(self, *_exc) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(self, request: SolveRequest) -> "asyncio.Future":
        """Admit one request; returns a future resolving to its
        :class:`ServiceResult`.

        The future never raises a solve error — failures come back as a
        result with ``status != "ok"`` (call
        :meth:`ServiceResult.raise_for_status` to re-raise). Admission
        itself can raise: :class:`~repro.exceptions.ServiceClosed` when
        draining, :class:`~repro.exceptions.ServiceOverloaded` when the
        queue is full.
        """
        await self.start()
        self._counters["submitted"] += 1
        if self._draining:
            raise ServiceClosed(
                f"service is draining; request "
                f"{request.request_id or '<unassigned>'!r} rejected"
            )
        if not request.request_id:
            self._next_id += 1
            request.request_id = f"r{self._next_id}"
        now = self._clock()
        deadline_seconds = request.deadline_seconds
        if deadline_seconds is None:
            deadline_seconds = self._config.default_deadline_seconds
        deadline_at = None if deadline_seconds is None else now + deadline_seconds
        future = self._loop.create_future()

        key = self._coalesce_key(request)
        group = self._inflight.get(key) if self._config.coalesce else None
        if group is not None:
            member = _Member(request, future, deadline_at, now, is_leader=False)
            group.members.append(member)
            group.live += 1
            if group.control is not None:
                # A running group adopts the longest live deadline so
                # attaching never shortens (and may extend) the run.
                group.control.deadline = group.deadline()
            self._arm_timer(group, member, deadline_seconds)
            self._counters["coalesced"] += 1
            self._emit(
                RequestCoalesced(
                    timestamp=now,
                    request_id=request.request_id,
                    leader_id=group.leader.request.request_id,
                )
            )
            return future

        group = _Group(key)
        member = _Member(request, future, deadline_at, now, is_leader=True)
        group.members.append(member)
        group.live = 1
        try:
            self._queue.put_nowait(group)
        except asyncio.QueueFull:
            self._counters["shed"] += 1
            self._emit(
                RequestShed(
                    timestamp=now,
                    request_id=request.request_id,
                    queue_depth=self._queue.qsize(),
                )
            )
            raise ServiceOverloaded(
                f"admission queue full "
                f"({self._config.max_queue_depth} waiting); request "
                f"{request.request_id!r} shed"
            ) from None
        self._inflight[key] = group
        self._arm_timer(group, member, deadline_seconds)
        self._counters["admitted"] += 1
        self._emit(
            RequestAdmitted(
                timestamp=now,
                request_id=request.request_id,
                queue_depth=self._queue.qsize(),
            )
        )
        return future

    async def solve(
        self,
        hamiltonian: IsingHamiltonian,
        **request_fields,
    ) -> ServiceResult:
        """Submit and await one request (see :class:`SolveRequest` for
        the accepted fields)."""
        future = await self.submit(
            SolveRequest(hamiltonian=hamiltonian, **request_fields)
        )
        return await future

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Health/stats snapshot: counters + queue/breaker/drain state."""
        snapshot = dict(self._counters)
        snapshot.update(
            queue_depth=self._queue.qsize() if self._queue is not None else 0,
            in_flight=len(self._inflight),
            draining=self._draining,
            breaker_state=self._breaker.state,
            breaker_consecutive_failures=self._breaker.consecutive_failures,
        )
        return snapshot

    def subscribe(self) -> "asyncio.Queue[ServiceEvent]":
        """A bounded queue receiving every future event (oldest dropped
        on overflow — a slow subscriber never blocks the service)."""
        queue: "asyncio.Queue[ServiceEvent]" = asyncio.Queue(
            maxsize=self._config.event_buffer
        )
        self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: "asyncio.Queue[ServiceEvent]") -> None:
        """Detach a subscriber queue (unknown queues are ignored)."""
        try:
            self._subscribers.remove(queue)
        except ValueError:
            pass

    async def events(self) -> "AsyncIterator[ServiceEvent]":
        """Async iterator over the live event stream (until cancelled)."""
        queue = self.subscribe()
        try:
            while True:
                yield await queue.get()
        finally:
            self.unsubscribe(queue)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _coalesce_key(request: SolveRequest) -> tuple:
        """The in-flight identity two requests must share to ride one solve.

        The exact Ising fingerprint (a canonical key would also group
        relabeled twins, whose spin frames differ, and fan-out must be
        bit-identical), plus everything else that shapes the answer:
        m, seed, backend, and solver options.
        """
        from repro.cache.keys import ising_fingerprint

        return (
            ising_fingerprint(request.hamiltonian),
            request.num_frozen,
            request.seed,
            repr(request.backend),
            repr(sorted(request.solver_options.items())),
        )

    def _arm_timer(self, group, member, deadline_seconds) -> None:
        if deadline_seconds is None:
            return
        member.timer = self._loop.call_later(
            deadline_seconds, self._expire_member, group, member
        )

    def _expire_member(self, group: _Group, member: _Member) -> None:
        """A member's deadline fired before its solve resolved."""
        if member.future.done():
            return
        now = self._clock()
        stage = "running" if group.started else "queued"
        error = ServiceTimeout(
            f"request {member.request.request_id!r} deadline expired "
            f"while {stage} (jobs finished: {group.jobs_done})",
            request_id=member.request.request_id,
            provenance={
                "stage": stage,
                "jobs_done": group.jobs_done,
                "elapsed_seconds": now - member.submitted_at,
                "deadline_at": member.deadline_at,
            },
        )
        self._finish_member(
            group,
            member,
            ServiceResult(
                request_id=member.request.request_id,
                status="timeout",
                error=error,
                coalesced_with=(
                    "" if member.is_leader
                    else group.leader.request.request_id
                ),
                elapsed_seconds=now - member.submitted_at,
                provenance=dict(error.provenance),
            ),
        )
        if group.live == 0 and group.control is not None:
            # Nobody is waiting any more: tell the solve thread to stop
            # at its next checkpoint instead of finishing unwanted work.
            group.control.cancel.set()

    def _finish_member(
        self, group: _Group, member: _Member, result: ServiceResult
    ) -> None:
        if member.future.done():
            return
        if member.timer is not None:
            member.timer.cancel()
            member.timer = None
        group.live -= 1
        member.future.set_result(result)
        self._counters[
            {
                "ok": "ok",
                "degraded": "degraded",
                "timeout": "timeouts",
                "cancelled": "cancelled",
                "failed": "failed",
            }[result.status]
        ] += 1
        self._emit(
            RequestFinished(
                timestamp=self._clock(),
                request_id=result.request_id,
                status=result.status,
                elapsed_seconds=result.elapsed_seconds,
            )
        )

    async def _worker(self) -> None:
        while True:
            group = await self._queue.get()
            try:
                await self._dispatch(group)
            except Exception:  # noqa: BLE001 — a dispatch bug must not
                # kill the worker; surviving members fail structurally.
                self._fail_group(
                    group,
                    ServiceError(
                        f"internal dispatch failure for request "
                        f"{group.leader.request.request_id!r}"
                    ),
                )
            finally:
                self._inflight.pop(group.key, None)
                self._queue.task_done()

    async def _dispatch(self, group: _Group) -> None:
        if group.live == 0:
            return  # every member expired while queued; nothing to run
        leader_id = group.leader.request.request_id

        if not self._breaker.allow():
            await self._dispatch_degraded(group)
            return

        group.started = True
        self._emit(
            RequestStarted(
                timestamp=self._clock(),
                request_id=leader_id,
                group_size=len(group.members),
            )
        )
        group.control = ExecutionControl(
            deadline=group.deadline(),
            cancel=threading.Event(),
            on_job_done=self._progress_callback(group),
            clock=self._clock,
        )
        dispatch = self._dispatch_counts.get(leader_id, 0)
        self._dispatch_counts[leader_id] = dispatch + 1
        self._counters["dispatches"] += 1
        injection = self._active_injection()
        delay = 0.0
        if injection is not None:
            delay = injection.request_delay(leader_id)
        try:
            if injection is not None:
                injection.fire_request(leader_id, dispatch)
            result = await asyncio.to_thread(
                self._execute_sync, group, delay
            )
        except DeadlineExceeded as exc:
            self._breaker.release()
            self._timeout_group(group, exc)
            return
        except ExecutionCancelled:
            self._breaker.release()
            self._cancel_group(group)
            return
        except Exception as exc:  # noqa: BLE001 — contained per request
            self._breaker.record_failure()
            self._fail_group(group, exc)
            return
        self._breaker.record_success()
        self._resolve_group(group, result, status="ok")

    def _execute_sync(self, group: _Group, delay: float):
        """The worker-thread half of a dispatch (fault delay + solve)."""
        control = group.control
        if delay > 0.0:
            # An injected slow request: an interruptible sleep, then a
            # checkpoint — so a deadline that passed mid-sleep surfaces
            # as DeadlineExceeded, exactly like a genuinely slow solve.
            control.cancel.wait(delay)
            control.checkpoint("injected request delay")
        control.checkpoint("dispatch")
        return self._execute(group.leader.request, control)

    async def _dispatch_degraded(self, group: _Group) -> None:
        """Breaker is open: classical fallback or fail-fast."""
        leader = group.leader.request
        if not self._config.classical_fallback:
            self._fail_group(
                group,
                ServiceUnavailable(
                    f"circuit breaker open; request "
                    f"{leader.request_id!r} refused (classical fallback "
                    f"disabled)"
                ),
            )
            return
        group.started = True
        self._emit(
            RequestStarted(
                timestamp=self._clock(),
                request_id=leader.request_id,
                group_size=len(group.members),
            )
        )
        from repro.baselines.classical import solve_classically

        try:
            value = await asyncio.to_thread(
                solve_classically, leader.hamiltonian, seed=leader.seed
            )
        except Exception as exc:  # noqa: BLE001 — contained per request
            self._fail_group(group, exc)
            return
        self._resolve_group(group, value, status="degraded")

    def _progress_callback(self, group: _Group):
        """Per-job progress bridge from the solve thread to the loop.

        The counter update happens right in the solve thread (it is the
        only writer; the loop merely reads ``jobs_done`` for timeout
        provenance), and the loop is only woken for the event fan-out
        when someone actually subscribed — per-job cross-thread wakeups
        would otherwise tax every solve just for idle observability.
        """
        loop = self._loop

        def on_job_done(job_id: str, failed: bool) -> None:
            group.jobs_done += 1
            if self._subscribers:
                loop.call_soon_threadsafe(
                    self._emit_progress, group, job_id, failed
                )

        return on_job_done

    def _emit_progress(
        self, group: _Group, job_id: str, failed: bool
    ) -> None:
        self._emit(
            SiblingProgress(
                timestamp=self._clock(),
                request_id=group.leader.request.request_id,
                job_id=job_id,
                failed=failed,
                jobs_done=group.jobs_done,
            )
        )

    def _resolve_group(self, group: _Group, value, status: str) -> None:
        now = self._clock()
        leader_id = group.leader.request.request_id
        provenance = {}
        failure_provenance = getattr(value, "failure_provenance", None)
        if failure_provenance:
            provenance["failure_provenance"] = {
                str(index): dict(record)
                for index, record in failure_provenance.items()
            }
        for member in group.members:
            self._finish_member(
                group,
                member,
                ServiceResult(
                    request_id=member.request.request_id,
                    status=status,
                    value=value,
                    coalesced_with="" if member.is_leader else leader_id,
                    elapsed_seconds=now - member.submitted_at,
                    provenance=dict(provenance),
                ),
            )

    def _timeout_group(self, group: _Group, exc: DeadlineExceeded) -> None:
        """The solve itself hit the group deadline: time the rest out."""
        now = self._clock()
        for member in list(group.members):
            if member.future.done():
                continue
            error = ServiceTimeout(
                f"request {member.request.request_id!r} deadline expired "
                f"during execution: {exc}",
                request_id=member.request.request_id,
                provenance={
                    "stage": "running",
                    "jobs_done": group.jobs_done,
                    "elapsed_seconds": now - member.submitted_at,
                    "deadline_at": member.deadline_at,
                },
            )
            self._finish_member(
                group,
                member,
                ServiceResult(
                    request_id=member.request.request_id,
                    status="timeout",
                    error=error,
                    coalesced_with=(
                        "" if member.is_leader
                        else group.leader.request.request_id
                    ),
                    elapsed_seconds=now - member.submitted_at,
                    provenance=dict(error.provenance),
                ),
            )

    def _cancel_group(self, group: _Group) -> None:
        """The solve stopped because every waiter was already gone."""
        now = self._clock()
        for member in list(group.members):
            if member.future.done():
                continue
            self._finish_member(
                group,
                member,
                ServiceResult(
                    request_id=member.request.request_id,
                    status="cancelled",
                    error=ExecutionCancelled(
                        f"request {member.request.request_id!r} was "
                        f"cancelled cooperatively"
                    ),
                    coalesced_with=(
                        "" if member.is_leader
                        else group.leader.request.request_id
                    ),
                    elapsed_seconds=now - member.submitted_at,
                ),
            )

    def _fail_group(self, group: _Group, exc: BaseException) -> None:
        now = self._clock()
        leader_id = group.leader.request.request_id
        provenance = {"error_type": type(exc).__name__}
        traceback_str = getattr(exc, "traceback_str", "")
        if traceback_str:
            provenance["traceback"] = traceback_str
        for member in list(group.members):
            if member.future.done():
                continue
            self._finish_member(
                group,
                member,
                ServiceResult(
                    request_id=member.request.request_id,
                    status="failed",
                    error=exc,
                    coalesced_with="" if member.is_leader else leader_id,
                    elapsed_seconds=now - member.submitted_at,
                    provenance=dict(provenance),
                ),
            )

    def _active_injection(self):
        from repro.faults import active_fault_injection

        return active_fault_injection(self._config)

    def _on_breaker_change(self, old_state: str, new_state: str) -> None:
        self._emit(
            BreakerStateChanged(
                timestamp=self._clock(),
                old_state=old_state,
                new_state=new_state,
            )
        )

    def _emit(self, event: ServiceEvent) -> None:
        for queue in self._subscribers:
            while True:
                try:
                    queue.put_nowait(event)
                    break
                except asyncio.QueueFull:
                    # Drop the oldest event: a stalled subscriber loses
                    # history, the service never blocks on it.
                    try:
                        queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break


__all__ = [
    "ServiceConfig",
    "ServiceResult",
    "SolveRequest",
    "SolveService",
    "default_execute",
]
