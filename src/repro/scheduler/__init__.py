"""``repro.scheduler`` — generic persistent-worker task scheduling.

The reusable process-pool layer extracted from the evaluation harness:
:class:`Scheduler` runs picklable ``fn(payload, ctx)`` tasks over
long-lived forked workers with deterministic result ordering, per-attempt
timeouts, crash-retry, and policy-driven worker recycling
(:class:`RecyclePolicy`).  Job-specific layers sit on top:
:func:`repro.evaluation.run_sweep` runs a figure sweep as one batch, and
:mod:`repro.serve` multiplexes whole job streams from network clients.
Either way a task's :class:`TaskOutcome` is its one record — attempts,
seconds, the ``crashed`` / ``timed_out`` flags, the metrics delta and
the task function's return value.

Test hooks: ``repro.scheduler.worker._TEST_WORKER_CHAOS`` injects
crashes, hangs and corrupt payloads by task index (see that module's
docstring); it is surfaced as ``python -m repro.serve serve --chaos``
for the CI kill-a-worker smoke test.
"""

from .core import (
    DEFAULT_RETRIES,
    NO_RECYCLE,
    RecyclePolicy,
    Scheduler,
    SchedulerClosed,
    Task,
    TaskOutcome,
)
from .worker import CHAOS_MODES, TaskContext, rss_bytes

__all__ = [
    "CHAOS_MODES",
    "DEFAULT_RETRIES",
    "NO_RECYCLE",
    "RecyclePolicy",
    "Scheduler",
    "SchedulerClosed",
    "Task",
    "TaskContext",
    "TaskOutcome",
    "rss_bytes",
]
