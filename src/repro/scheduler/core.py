"""Parent-side generic task scheduler over a persistent worker pool.

A :class:`Scheduler` owns N long-lived worker processes (forked once,
serving many tasks each) and a dispatcher thread, and runs arbitrary
:class:`Task` callables with

* **deterministic ordering** — :meth:`Scheduler.run` returns outcomes in
  submission order regardless of completion order;
* **per-attempt timeout** — a task past its wall-clock budget has its
  worker terminated and is retried in a replacement;
* **crash recovery** — a worker that dies mid-task (or reports a corrupt
  payload) is respawned and the task retried, up to ``retries`` extra
  attempts;
* **graceful recycling** — workers self-retire per
  :class:`RecyclePolicy` (after N tasks or M bytes RSS), flushing their
  lifetime metrics snapshot, and the pool replaces them transparently.

Task callables must be **module-level functions** (they cross a pickle
boundary) with signature ``fn(payload, ctx) -> value``; ``ctx`` is a
:class:`~repro.scheduler.worker.TaskContext` carrying the task's index,
attempt number and worker id.  Values and payloads must pickle.

``workers=0`` is **inline mode**: tasks execute synchronously in the
calling process (the serial reference path the determinism tests compare
against), through the same attempt runner the workers use
(:func:`repro.scheduler.worker.run_attempt`).  Inline failures report
``"Type: message"``; worker failures append the remote traceback.

The scheduler keeps its own self-telemetry in :attr:`Scheduler.registry`
(``repro_sched_*`` families).  Every task of every job kind settles
through ``_settled``, which counts it once: five ``repro_sched_tasks_*``
counters and ``repro_sched_task_seconds``.  Sweeps merge this registry
(:func:`repro.evaluation.fold_sweep_metrics`), the job server exposes
it; no layer above counts tasks again.  Retired and stopped workers'
lifetime snapshots are folded in as they leave, so recycling never
loses telemetry.  Job-layer consumers live above this: see
:func:`repro.evaluation.run_sweep` for sweeps and :mod:`repro.serve`
for the long-running job service; both keep each task's
:class:`TaskOutcome` as its record rather than copying it.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from repro.obs import MetricsRegistry

from .worker import Task, TaskContext, run_attempt, worker_main

#: crashed / timed-out / corrupt task attempts are retried this many times
DEFAULT_RETRIES = 1

#: how long a graceful stop waits for each worker's goodbye snapshot
_STOP_GRACE_SECONDS = 5.0

OutcomeCallback = Callable[["TaskOutcome"], None]


class SchedulerClosed(RuntimeError):
    """Raised by :meth:`Scheduler.submit` after :meth:`Scheduler.close`."""


@dataclass(frozen=True)
class RecyclePolicy:
    """When a worker should retire in favor of a fresh process.

    ``max_tasks`` counts tasks served; ``max_rss_bytes`` is checked
    against ``/proc/self/statm`` after each task (no-op on platforms
    without procfs).  ``None`` disables that trigger; the default
    disables both.
    """

    max_tasks: Optional[int] = None
    max_rss_bytes: Optional[int] = None


NO_RECYCLE = RecyclePolicy()


@dataclass
class TaskOutcome:
    """Terminal result of one task, after any retries — the task's one
    record; job layers read it as is."""

    index: int
    ok: bool
    value: Any = None
    error: Optional[str] = None
    attempts: int = 1
    seconds: float = 0.0
    #: the task's process raised or died instead of reporting cleanly
    crashed: bool = False
    #: the final attempt was terminated at the wall-clock timeout
    timed_out: bool = False
    #: id of the worker that produced the terminal attempt (-1 if none)
    worker: int = -1
    #: metrics snapshot from the task's registry (see Task.metrics); on a
    #: failure, whatever the final attempt flushed before it raised
    metrics_delta: Optional[Dict[str, object]] = None


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


@dataclass
class _Busy:
    index: int
    task: Task
    attempt: int
    callback: Optional[OutcomeCallback]
    started: float  # monotonic


@dataclass
class _WorkerHandle:
    process: Any
    conn: Any
    slot: int
    id: int
    busy: Optional[_Busy] = None
    retiring: bool = False


class Scheduler:
    """Run :class:`Task` objects over a pool of persistent workers.

    ``timeout`` is per task *attempt*, in seconds; ``None`` disables it.
    Inline mode (``workers=0``) cannot preempt a running task, so the
    timeout is advisory there — exactly as in the old serial runner.
    Usable as a context manager (graceful close on exit).
    """

    def __init__(self, workers: int = 1, timeout: Optional[float] = None,
                 retries: int = DEFAULT_RETRIES,
                 recycle: RecyclePolicy = NO_RECYCLE) -> None:
        self.workers = max(0, int(workers))
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.recycle = recycle
        #: scheduler self-telemetry + folded worker-lifetime snapshots
        self.registry = MetricsRegistry()
        # Set once here too: an inline scheduler's queue is always empty.
        self._queue_depth = self.registry.gauge(
            "repro_sched_queue_depth", "Tasks admitted but not yet dispatched")
        self._queue_depth.set(0)
        #: concurrency-slot id -> busy seconds (rebuilt per run())
        self.slot_busy: Dict[int, float] = {}
        self._ctx = _mp_context()
        self._lock = threading.Lock()
        self._idle_cv = threading.Condition(self._lock)
        self._pending: Deque = deque()  # (index, Task, attempt, callback)
        self._live: List[_WorkerHandle] = []
        self._thread: Optional[threading.Thread] = None
        self._wake_r: Optional[int] = None
        self._wake_w: Optional[int] = None
        self._next_index = 0
        self._next_worker_id = 0
        self._inflight = 0
        self._started = False
        self._closing = False
        self._abort = False

    # ---- lifecycle --------------------------------------------------------

    def start(self) -> "Scheduler":
        if self._started:
            return self
        self._started = True
        if self.workers == 0:
            return self
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_w, False)
        for slot in range(self.workers):
            self._spawn(slot)
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-scheduler", daemon=True)
        self._thread.start()
        return self

    def close(self, graceful: bool = True) -> None:
        """Stop the pool.

        Graceful: finish every queued and in-flight task, collect each
        worker's goodbye metrics snapshot, then join.  Non-graceful:
        terminate workers immediately; queued and in-flight tasks settle
        as failures (``error="cancelled: scheduler shut down"``).
        """
        with self._lock:
            if not self._started or self._closing:
                self._closing = True
                return
            self._closing = True
            self._abort = not graceful
        if self.workers == 0:
            return
        self._wake()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "Scheduler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close(graceful=exc_info[0] is None)

    # ---- submission -------------------------------------------------------

    def submit(self, fn: Callable[[Any, TaskContext], Any],
               payload: Any = None, metrics: bool = False,
               on_outcome: Optional[OutcomeCallback] = None) -> int:
        """Queue one task; returns its scheduler-wide index.

        ``on_outcome`` fires exactly once with the terminal
        :class:`TaskOutcome` — from the dispatcher thread in pool mode,
        synchronously before ``submit`` returns in inline mode.
        """
        if not self._started:
            raise RuntimeError("Scheduler.submit before start()")
        task = fn if isinstance(fn, Task) else Task(fn, payload, metrics)
        with self._lock:
            if self._closing:
                raise SchedulerClosed("scheduler is shutting down")
            index = self._next_index
            self._next_index += 1
            self._inflight += 1
            if self.workers > 0:
                self._pending.append((index, task, 1, on_outcome))
        if self.workers == 0:
            self._run_inline(index, task, on_outcome)
        else:
            self._wake()
        return index

    def drain(self) -> None:
        """Block until every submitted task has settled."""
        with self._idle_cv:
            while self._inflight:
                self._idle_cv.wait()

    def run(self, tasks: Sequence[Task],
            on_outcome: Optional[OutcomeCallback] = None
            ) -> List[TaskOutcome]:
        """Submit a batch and return outcomes in submission order.

        ``on_outcome`` additionally fires per terminal outcome in
        completion order (progress reporting).
        """
        tasks = list(tasks)
        if not tasks:
            return []
        if not self._started:
            self.start()
        outcomes: Dict[int, TaskOutcome] = {}
        done = threading.Event()
        lock = threading.Lock()

        def collect(outcome: TaskOutcome) -> None:
            with lock:
                outcomes[outcome.index] = outcome
                finished = len(outcomes) == len(tasks)
            if on_outcome is not None:
                on_outcome(outcome)
            if finished:
                done.set()

        indices = [self.submit(task, on_outcome=collect) for task in tasks]
        done.wait()
        return [outcomes[index] for index in indices]

    # ---- telemetry --------------------------------------------------------

    def _count(self, name: str, help: str, amount: int = 1) -> None:
        self.registry.counter(name, help).inc(amount)

    def _settled(self, outcome: TaskOutcome,
                 callback: Optional[OutcomeCallback]) -> None:
        if outcome.ok:
            self._count("repro_sched_tasks_completed_total",
                        "Tasks that settled successfully")
        else:
            self._count("repro_sched_tasks_failed_total",
                        "Tasks that failed after exhausting retries")
        if outcome.attempts > 1:
            self._count("repro_sched_tasks_retried_total",
                        "Extra attempts beyond each task's first",
                        outcome.attempts - 1)
        if outcome.timed_out:
            self._count("repro_sched_tasks_timed_out_total",
                        "Task attempts terminated at the wall-clock timeout")
        if outcome.crashed:
            self._count("repro_sched_tasks_crashed_total",
                        "Tasks whose worker raised or died mid-flight")
        if outcome.worker >= 0:  # an attempt ran
            self.registry.histogram(
                "repro_sched_task_seconds",
                "Wall time of a task's terminal attempt"
            ).observe(outcome.seconds)
        if callback is not None:
            callback(outcome)
        with self._idle_cv:
            self._inflight -= 1
            self._idle_cv.notify_all()

    # ---- inline mode ------------------------------------------------------

    def _run_inline(self, index: int, task: Task,
                    callback: Optional[OutcomeCallback]) -> None:
        attempt = 0
        while True:
            attempt += 1
            value, exc, delta, seconds = run_attempt(
                task, TaskContext(index=index, attempt=attempt, worker=0))
            if exc is None or attempt > self.retries:
                break
        outcome = TaskOutcome(
            index=index, ok=exc is None, value=value,
            error=None if exc is None else f"{type(exc).__name__}: {exc}",
            attempts=attempt, seconds=seconds, crashed=exc is not None,
            worker=0, metrics_delta=delta)
        self.slot_busy[0] = self.slot_busy.get(0, 0.0) + outcome.seconds
        self._settled(outcome, callback)

    # ---- pool internals (dispatcher thread unless noted) ------------------

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except (BlockingIOError, OSError):
            pass  # dispatcher already has a wake-up pending

    def _spawn(self, slot: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, slot, child_conn, self.recycle.max_tasks,
                  self.recycle.max_rss_bytes),
            daemon=True)
        process.start()
        child_conn.close()
        handle = _WorkerHandle(process=process, conn=parent_conn,
                               slot=slot, id=worker_id)
        self._live.append(handle)
        self.registry.gauge("repro_sched_workers_alive",
                            "Worker processes currently in the pool"
                            ).set(len(self._live))
        return handle

    def _reap(self, handle: _WorkerHandle, respawn: bool) -> None:
        """Remove a dead/dying worker; optionally refill its slot."""
        if handle in self._live:
            self._live.remove(handle)
        try:
            handle.conn.close()
        except OSError:
            pass
        handle.process.join()
        self.registry.gauge("repro_sched_workers_alive",
                            "Worker processes currently in the pool"
                            ).set(len(self._live))
        if respawn:
            self._count("repro_sched_workers_respawned_total",
                        "Replacement workers forked into the pool")
            self._spawn(handle.slot)

    def _release_slot(self, handle: _WorkerHandle) -> None:
        busy = handle.busy
        handle.busy = None
        if busy is not None:
            self.slot_busy[handle.slot] = (
                self.slot_busy.get(handle.slot, 0.0)
                + time.monotonic() - busy.started)

    def _fail_or_retry(self, busy: _Busy, error: str, worker_id: int,
                       crashed: bool = False, timed_out: bool = False,
                       seconds: Optional[float] = None,
                       metrics_delta: Optional[Dict[str, object]] = None
                       ) -> None:
        if busy.attempt <= self.retries:
            with self._lock:
                self._pending.appendleft(
                    (busy.index, busy.task, busy.attempt + 1, busy.callback))
            return
        self._settled(TaskOutcome(
            index=busy.index, ok=False, error=error, attempts=busy.attempt,
            seconds=(seconds if seconds is not None
                     else time.monotonic() - busy.started),
            crashed=crashed, timed_out=timed_out, worker=worker_id,
            metrics_delta=metrics_delta), busy.callback)

    def _dispatch(self) -> None:
        while True:
            idle = next((w for w in self._live
                         if w.busy is None and not w.retiring), None)
            if idle is None:
                break
            with self._lock:
                if not self._pending or self._abort:
                    break
                index, task, attempt, callback = self._pending.popleft()
            idle.busy = _Busy(index=index, task=task, attempt=attempt,
                              callback=callback, started=time.monotonic())
            try:
                idle.conn.send(("task", index, attempt, task.fn,
                                task.payload, task.metrics))
            except (BrokenPipeError, OSError):
                # Worker died while idle; put the task back untouched
                # (same attempt — the task never ran) and refill the slot.
                busy, idle.busy = idle.busy, None
                with self._lock:
                    self._pending.appendleft(
                        (busy.index, busy.task, busy.attempt, busy.callback))
                self._reap(idle, respawn=True)
        with self._lock:
            depth = len(self._pending)
        self._queue_depth.set(depth)

    def _on_retire(self, handle: _WorkerHandle, respawn: bool) -> None:
        """Collect the retire/goodbye snapshot from a leaving worker."""
        try:
            message = handle.conn.recv()
            if message[0] in ("retire", "goodbye"):
                self.registry.merge(message[1])
        except (EOFError, OSError, IndexError):
            pass
        self._count("repro_sched_workers_recycled_total",
                    "Workers that self-retired per the recycle policy")
        self._reap(handle, respawn=respawn)

    def _on_message(self, handle: _WorkerHandle) -> None:
        try:
            message = handle.conn.recv()
        except (EOFError, OSError):
            busy = handle.busy
            self._release_slot(handle)
            handle.process.join()
            exitcode = handle.process.exitcode
            with self._lock:
                keep_pool = not self._closing or bool(self._pending) \
                    or busy is not None
            self._reap(handle, respawn=keep_pool)
            if busy is not None:
                self._fail_or_retry(
                    busy,
                    "worker process died without reporting "
                    f"(exit code {exitcode})",
                    handle.id, crashed=True)
            return
        kind = message[0]
        if kind in ("retire", "goodbye"):  # death while idle (rare path)
            if len(message) > 1:
                self.registry.merge(message[1])
            self._reap(handle, respawn=not self._closing)
            return
        busy = handle.busy
        self._release_slot(handle)
        if busy is None:
            return  # stray message from a worker we already timed out
        if len(message) != 9:
            # The payload is unusable but the worker's message framing
            # is intact (the "corrupt" chaos mode): keep the worker and
            # retry the task.
            self._fail_or_retry(
                busy, "worker returned a corrupt payload", handle.id,
                crashed=True)
            return
        (_, index, attempt, ok, value, error, seconds, delta,
         retiring) = message
        if retiring:
            handle.retiring = True
        if ok:
            self._settled(TaskOutcome(
                index=index, ok=True, value=value, attempts=attempt,
                seconds=seconds, worker=handle.id, metrics_delta=delta),
                busy.callback)
        else:
            self._fail_or_retry(busy, error, handle.id, crashed=True,
                                seconds=seconds, metrics_delta=delta)
        if retiring:
            with self._lock:
                keep_pool = not self._closing or bool(self._pending)
            self._on_retire(handle, respawn=keep_pool)

    def _check_timeouts(self) -> None:
        if self.timeout is None:
            return
        now = time.monotonic()
        for handle in list(self._live):
            busy = handle.busy
            if busy is None or now - busy.started <= self.timeout:
                continue
            handle.process.terminate()
            self._release_slot(handle)
            with self._lock:
                keep_pool = not self._closing or bool(self._pending) \
                    or busy.attempt <= self.retries
            self._reap(handle, respawn=keep_pool)
            self._fail_or_retry(busy, f"timed out after {self.timeout:g}s",
                                handle.id, timed_out=True,
                                seconds=now - busy.started)

    def _loop(self) -> None:
        while True:
            with self._lock:
                abort = self._abort
            if abort:
                self._abort_all()
                return
            self._dispatch()
            with self._lock:
                closing = self._closing
                has_pending = bool(self._pending)
            any_busy = any(w.busy is not None for w in self._live)
            if closing and not has_pending and not any_busy:
                break
            wait_for: Optional[float] = None
            if self.timeout is not None and any_busy:
                now = time.monotonic()
                wait_for = max(0.0, min(
                    w.busy.started + self.timeout - now
                    for w in self._live if w.busy is not None))
            waitables: List[Any] = [w.conn for w in self._live]
            waitables.append(self._wake_r)
            ready = _connection_wait(waitables, timeout=wait_for)
            if self._wake_r in ready:
                os.read(self._wake_r, 65536)
            for handle in [w for w in self._live if w.conn in ready]:
                self._on_message(handle)
            self._check_timeouts()
        self._stop_workers()

    def _abort_all(self) -> None:
        """Non-graceful shutdown: kill workers, fail everything queued."""
        for handle in list(self._live):
            handle.process.terminate()
            busy = handle.busy
            self._release_slot(handle)
            self._reap(handle, respawn=False)
            if busy is not None:
                self._settled(TaskOutcome(
                    index=busy.index, ok=False,
                    error="cancelled: scheduler shut down",
                    attempts=busy.attempt,
                    seconds=time.monotonic() - busy.started,
                    worker=handle.id), busy.callback)
        while True:
            with self._lock:
                if not self._pending:
                    break
                index, task, attempt, callback = self._pending.popleft()
            self._settled(TaskOutcome(
                index=index, ok=False,
                error="cancelled: scheduler shut down",
                attempts=attempt), callback)
        self._close_wake_pipe()

    def _stop_workers(self) -> None:
        """Graceful: ask each worker to leave, collect goodbye snapshots."""
        for handle in list(self._live):
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                self._reap(handle, respawn=False)
        deadline = time.monotonic() + _STOP_GRACE_SECONDS
        while self._live:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            ready = _connection_wait([w.conn for w in self._live],
                                     timeout=remaining)
            if not ready:
                break
            for handle in [w for w in self._live if w.conn in ready]:
                try:
                    message = handle.conn.recv()
                    if message[0] in ("goodbye", "retire"):
                        self.registry.merge(message[1])
                except (EOFError, OSError, IndexError):
                    pass
                self._reap(handle, respawn=False)
        for handle in list(self._live):  # stragglers past the grace window
            handle.process.terminate()
            self._reap(handle, respawn=False)
        self._close_wake_pipe()

    def _close_wake_pipe(self) -> None:
        for fd in (self._wake_r, self._wake_w):
            if fd is not None:
                try:
                    os.close(fd)
                except OSError:
                    pass
        self._wake_r = self._wake_w = None
