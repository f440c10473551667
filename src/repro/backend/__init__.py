"""Pluggable execution backends for sub-problem and workload fan-out.

FrozenQubits' state-space partition produces independent QAOA jobs; this
package decides how they run:

* :class:`SerialBackend` — one at a time, in-process (the default and the
  reference semantics);
* :class:`ProcessPoolBackend` — multiprocessing fan-out, bit-identical to
  serial thanks to deterministic per-job child seeds.

Pick one per call (``solver.solve(h, backend=...)``, ``solve_many(...,
backend=...)``) or set a session-wide default with
:func:`set_default_backend` — the CLI's ``--backend`` flag does exactly
that.

Every backend runs its jobs under a :class:`FaultPolicy`: bounded seeded
retries for transient errors, cooperative timeouts, pool-crash recovery
(process backend), and a submission-level failure budget. A backend built
without one runs under :data:`FAIL_FAST` — no retries, budget zero — so
the first failing job aborts the submission as a
:class:`~repro.exceptions.JobError` naming it. See
:mod:`repro.backend.policy` and :mod:`repro.faults`.
"""

from __future__ import annotations

from repro.backend.base import (
    ExecutionBackend,
    ExecutionControl,
    JobResult,
    JobSpec,
    dependency_levels,
    execute_job,
    execute_job_with_policy,
    execute_jobs_serially,
    failed_job_result,
    inject_warm_start,
    set_backoff_sleeper,
    train_job,
    trained_params,
)
from repro.backend.policy import FAIL_FAST, FaultPolicy, classify_error
from repro.backend.process_pool import ProcessPoolBackend
from repro.backend.serial import SerialBackend
from repro.exceptions import SolverError

#: Registry names accepted anywhere a backend can be passed.
BACKEND_REGISTRY: dict[str, type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    ProcessPoolBackend.name: ProcessPoolBackend,
}

_default_backend: "ExecutionBackend | None" = None


def set_default_backend(backend: "ExecutionBackend | str | None") -> None:
    """Set the session-wide backend used when a call site passes ``None``.

    Args:
        backend: An instance, a registry name, or ``None`` to reset to the
            built-in default (serial).
    """
    global _default_backend
    _default_backend = None if backend is None else resolve_backend(backend)


def get_default_backend() -> ExecutionBackend:
    """The session default: serial unless overridden."""
    if _default_backend is not None:
        return _default_backend
    return SerialBackend()


def resolve_backend(
    backend: "ExecutionBackend | str | None",
) -> ExecutionBackend:
    """Normalise any accepted backend form to an instance.

    Args:
        backend: ``None`` (=> session default), a registry name
            (``"serial"`` or ``"process"``), or an
            :class:`ExecutionBackend` instance (returned unchanged).

    Raises:
        SolverError: For unknown names or wrong types.
    """
    if backend is None:
        return get_default_backend()
    if isinstance(backend, ExecutionBackend):
        return backend
    if isinstance(backend, str):
        try:
            return BACKEND_REGISTRY[backend]()
        except KeyError:
            known = ", ".join(sorted(BACKEND_REGISTRY))
            raise SolverError(
                f"unknown backend {backend!r}; known backends: {known}"
            ) from None
    raise SolverError(
        f"expected an ExecutionBackend, name, or None, got {backend!r}"
    )


__all__ = [
    "BACKEND_REGISTRY",
    "ExecutionBackend",
    "ExecutionControl",
    "FAIL_FAST",
    "FaultPolicy",
    "JobResult",
    "JobSpec",
    "ProcessPoolBackend",
    "SerialBackend",
    "classify_error",
    "dependency_levels",
    "execute_job",
    "execute_job_with_policy",
    "execute_jobs_serially",
    "failed_job_result",
    "get_default_backend",
    "inject_warm_start",
    "resolve_backend",
    "set_backoff_sleeper",
    "set_default_backend",
    "train_job",
    "trained_params",
]
