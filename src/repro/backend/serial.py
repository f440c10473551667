"""The default backend: one job at a time, in order, in-process.

This is the reference semantics ``ProcessPoolBackend`` must match
bit-for-bit. Every job runs through
:func:`~repro.backend.base.execute_jobs_serially` under the backend's
fault policy (``FAIL_FAST`` unless one is given).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.backend.base import (
    ExecutionBackend,
    ExecutionControl,
    JobResult,
    JobSpec,
    execute_jobs_serially,
)
from repro.backend.policy import FAIL_FAST, FaultPolicy


class SerialBackend(ExecutionBackend):
    """Execute jobs sequentially in the calling process.

    Args:
        fault_policy: :class:`~repro.backend.FaultPolicy` for retrying and
            containing job failures; ``None`` installs
            :data:`~repro.backend.FAIL_FAST` (the first failing job aborts
            the submission as a :class:`~repro.exceptions.JobError`).
    """

    name = "serial"

    def __init__(self, fault_policy: "FaultPolicy | None" = None) -> None:
        self._fault_policy = fault_policy or FAIL_FAST

    @property
    def fault_policy(self) -> FaultPolicy:
        """The installed fault policy."""
        return self._fault_policy

    def run(
        self,
        jobs: Sequence[JobSpec],
        control: "ExecutionControl | None" = None,
    ) -> list[JobResult]:
        """Execute every job, warm-start sources before their dependents."""
        return execute_jobs_serially(jobs, self._fault_policy, control)

    def __repr__(self) -> str:
        return f"SerialBackend(fault_policy={self._fault_policy!r})"
