"""Worker-process side of the generic task scheduler.

A worker is a *persistent* process: it is forked once, then serves many
tasks over a duplex pipe until the parent stops it, its recycle policy
trips, or it dies.  That amortizes process startup, interpreter warm-up
and module imports across tasks, at the price of *in-process state
outliving a task*.  Two consequences:

* **recycling** — after ``RecyclePolicy.max_tasks`` tasks or once the
  process RSS exceeds ``RecyclePolicy.max_rss_bytes``, the worker
  retires itself (flushing its worker-lifetime metrics snapshot in the
  goodbye message) and the parent forks a fresh replacement, so slow
  memory growth can never accumulate unboundedly;
* **quarantine** — a task that raises may have left memoized results
  half-written on functions that outlive it (analysis bundles and
  lowered programs on ``Function.memo``, whose fingerprints are keyed on
  object *identities* and therefore cannot detect a poisoned entry).
  After any task failure the worker retires every such entry before
  accepting the next task, so a crashing task cannot poison a later
  task's — or a retry's — state
  (``tests/scheduler/test_chaos.py::TestMemoQuarantine``).

Fault injection: ``_TEST_WORKER_CHAOS`` maps a scheduler task index to
a chaos mode applied on that task's **first attempt only**, so the retry
path being exercised can actually succeed:

* ``"exit"``          — hard-kill the worker before running the task;
* ``"exit-after"``    — run the task (side effects like disk compile
  cache writes land), then die before reporting;
* ``"raise"``         — fail the task with an in-band Python exception;
* ``"hang"``          — sleep far past any sane timeout;
* ``"corrupt"``       — run the task, then report a malformed message.

Never set outside tests (the CLI exposes it as the ``--chaos`` flag for
the CI ``serve-smoke`` job's kill-a-worker-mid-run step).
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.ir import retire_memos
from repro.obs import MetricsRegistry, current_registry, set_registry

#: task index -> chaos mode, consulted on attempt 1 only.  Forked
#: workers inherit the parent's value, so tests set it before the
#: scheduler starts.
_TEST_WORKER_CHAOS: Dict[int, str] = {}

CHAOS_MODES = ("exit", "exit-after", "raise", "hang", "corrupt")

#: exit code for chaos-killed workers (distinguishable in error text)
_CHAOS_EXIT_CODE = 13


@dataclass(frozen=True)
class TaskContext:
    """What a task callable learns about its own execution."""

    index: int
    attempt: int
    worker: int


@dataclass(frozen=True)
class Task:
    """One unit of work: a picklable module-level callable + payload."""

    fn: Callable[[Any, TaskContext], Any]
    payload: Any = None
    #: run under a fresh repro.obs.MetricsRegistry; its snapshot rides
    #: back on TaskOutcome.metrics_delta (partial on failure)
    metrics: bool = False


def rss_bytes() -> Optional[int]:
    """Resident set size of this process, or None where unknowable.

    Stdlib-only: reads ``/proc/self/statm`` (Linux).  On platforms
    without procfs, RSS-based recycling silently disables itself —
    ``max_tasks`` recycling still works everywhere.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            pages = int(handle.read().split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return pages * (os.sysconf("SC_PAGESIZE") if hasattr(os, "sysconf")
                    else 4096)


def _quarantine() -> None:
    """Retire every ``Function.memo`` entry after a failed task.

    Analysis bundles and lowered programs alike are guarded by
    identity-keyed fingerprints, so an entry planted by a task that
    crashed mid-compile is indistinguishable from a valid one: the retry
    recomputes everything from the IR.
    """
    retire_memos()


def run_attempt(task: Task, ctx: TaskContext, catch: type = Exception
                ) -> Tuple[Any, Optional[BaseException],
                           Optional[Dict[str, object]], float]:
    """Run one attempt of ``task``.

    The one attempt runner, shared by inline mode and :func:`worker_main`:
    ``task.metrics`` installs a fresh :class:`~repro.obs.MetricsRegistry`
    for the call, a raised ``catch`` quarantines the process.  Returns
    ``(value, exception, metrics_delta, seconds)`` — ``exception`` is the
    object itself (``None`` on success; formatting it is the caller's
    business), ``metrics_delta`` the registry's snapshot, which on a
    failure is whatever the task flushed before raising.
    """
    registry = MetricsRegistry() if task.metrics else current_registry()
    value = error = None
    start = time.perf_counter()
    previous = set_registry(registry)
    try:
        value = task.fn(task.payload, ctx)
    except catch as exc:  # noqa: BLE001 — report, never die silently
        error = exc
        _quarantine()
    finally:
        set_registry(previous)
    delta = registry.snapshot() if task.metrics else None
    return value, error, delta, time.perf_counter() - start


def _chaos_raise(payload, ctx: TaskContext):
    raise RuntimeError(f"chaos: injected worker exception (task {ctx.index})")


def worker_main(worker_id: int, slot: int, conn, max_tasks: Optional[int],
                max_rss_bytes: Optional[int]) -> None:
    """Serve tasks from ``conn`` until stopped, recycled, or killed.

    Messages in: ``("task", index, attempt, fn, payload, metrics)`` and
    ``("stop",)``.  Messages out: ``("result", index, attempt, ok,
    value, error, seconds, metrics_delta, retiring)`` after each task —
    ``retiring`` rides on the result so the parent never dispatches to a
    worker that is about to leave — then ``("retire", snapshot)`` when
    the recycle policy trips, or ``("goodbye", snapshot)`` in answer to
    a stop; both carry the worker-lifetime metrics snapshot so recycling
    never loses telemetry.
    """
    lifetime = MetricsRegistry()
    tasks_total = lifetime.counter(
        "repro_sched_worker_tasks_total",
        "Tasks served, by worker slot and outcome")
    rss_gauge = lifetime.gauge(
        "repro_sched_worker_rss_bytes",
        "Resident set size sampled after each task, by worker slot")
    served = 0

    def goodbye(kind: str) -> None:
        try:
            conn.send((kind, lifetime.snapshot()))
        except (BrokenPipeError, OSError):  # parent already gone
            pass
        finally:
            conn.close()

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent died; nothing left to serve
            return
        if message[0] == "stop":
            goodbye("goodbye")
            return
        _, index, attempt, fn, payload, metrics = message
        mode = _TEST_WORKER_CHAOS.get(index) if attempt == 1 else None
        if mode == "exit":
            os._exit(_CHAOS_EXIT_CODE)
        elif mode == "hang":
            time.sleep(3600)
        elif mode == "raise":
            fn = _chaos_raise
        value, exc, delta, seconds = run_attempt(
            Task(fn, payload, metrics),
            TaskContext(index=index, attempt=attempt, worker=worker_id),
            BaseException)
        ok, error = exc is None, None
        if exc is not None:
            trace = "".join(traceback.format_exception(
                type(exc), exc, exc.__traceback__))
            error = f"{type(exc).__name__}: {exc}\n{trace}"
        served += 1
        tasks_total.labels(slot=str(slot),
                           outcome="ok" if ok else "error").inc()
        rss = rss_bytes()
        if rss is not None:
            rss_gauge.labels(slot=str(slot)).set(rss)

        retiring = (max_tasks is not None and served >= max_tasks) or (
            max_rss_bytes is not None and rss is not None
            and rss >= max_rss_bytes)

        if mode == "exit-after":
            os._exit(_CHAOS_EXIT_CODE)
        try:
            if mode == "corrupt":
                conn.send(("result", index))  # malformed on purpose
                retiring = False  # stay alive so the retry has a worker
            else:
                conn.send(("result", index, attempt, ok, value, error,
                           seconds, delta, retiring))
        except (BrokenPipeError, OSError):
            return
        except Exception:  # unpicklable task value: report the failure
            try:
                conn.send(("result", index, attempt, False, None,
                           "TypeError: task returned an unpicklable value\n",
                           seconds, delta, retiring))
            except (BrokenPipeError, OSError):
                return

        if retiring:
            goodbye("retire")
            return
