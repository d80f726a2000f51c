"""Parallel sweep engine for the evaluation harness.

Every ``(kernel, block size, config)`` comparison in a figure sweep is
independent — :func:`repro.evaluation.runner.compare` builds fresh
:class:`~repro.kernels.common.KernelCase` objects per call — so
:class:`ParallelRunner` fans them out across worker processes:

* **deterministic ordering** — results come back in task-submission
  order regardless of which worker finishes first, so a parallel sweep
  produces row-for-row identical output to a serial one;
* **fault isolation** — each task runs in a worker process with an
  optional wall-clock ``timeout``; a diverging simulation is terminated
  and retried once (fresh worker) before being reported as a failure,
  so one bad configuration cannot hang a whole figure;
* **compile caching** — every task uses a :class:`CompileCache`, so the
  ``-O3`` stage runs once per comparison instead of once per arm; with
  :attr:`SweepTask.cache_dir` (or ``REPRO_COMPILE_CACHE`` in the
  environment) the cache is disk-backed and **shared across worker
  processes and sweep repeats** — a warm sweep replays whole pipelines
  instead of compiling.

This module is the sweep-shaped job layer over the generic
:class:`repro.scheduler.Scheduler`: the scheduler owns worker processes,
queueing, retry, timeout and recycling; this layer owns what a sweep
task *is* (:class:`SweepTask` → :func:`run_task` → :class:`TaskResult`)
and how its telemetry folds into the ambient metrics registry.

``workers <= 1`` runs tasks serially in-process (the scheduler's inline
mode — the reference path the determinism tests compare against);
``workers > 1`` uses a pool of **persistent** worker processes, each
serving many tasks, with an optional :class:`~repro.scheduler.RecyclePolicy`
retiring workers after N tasks or M bytes RSS.  A task that fails in a
persistent worker quarantines that worker's in-process lowering memo
(see :func:`repro.simt.clear_lowering_memo`) before the next dispatch,
so a crash cannot poison a later task's — or its own retry's — cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core import CFMConfig
from repro.kernels.common import KernelCase
from repro.obs import (
    MetricsRegistry,
    Tracer,
    bridge_to_tracer,
    current_registry,
    record_task_seconds,
    update_cache_hit_ratio,
    use as use_tracer,
    use_registry,
)
from repro.scheduler import NO_RECYCLE, RecyclePolicy, Scheduler, Task
from repro.simt import MachineConfig

from .runner import Comparison, CompileCache, compare

#: forcibly terminated / crashed tasks are retried this many times
DEFAULT_RETRIES = 1

#: callback invoked after each terminal task result:
#: ``progress(done, total, result)``
ProgressCallback = Callable[[int, int, "TaskResult"], None]


@dataclass(frozen=True)
class SweepTask:
    """One comparison to run: kernel builder + launch configuration."""

    kernel: str
    builder: Callable[..., KernelCase]
    block_size: int
    grid_dim: int = 2
    seed: int = 1234
    config: Optional[CFMConfig] = None
    #: machine model override (warp size, latency tables, executor);
    #: None runs on repro.simt.DEFAULT_CONFIG
    machine: Optional[MachineConfig] = None
    #: capture a repro.obs trace of this task (pass spans, melding
    #: decisions, warp divergence events) into TaskResult.trace_events
    trace: bool = False
    #: directory of the persistent cross-process compile cache; None
    #: falls back to the REPRO_COMPILE_CACHE environment variable
    #: (unset/"off" → per-task in-process cache only)
    cache_dir: Optional[str] = None
    #: collect an aggregate-metrics delta for this task (a fresh
    #: repro.obs.MetricsRegistry installed for the task's duration; its
    #: snapshot rides back on TaskResult.metrics_delta so the parent can
    #: fold worker deltas into one sweep-level registry)
    metrics: bool = False


@dataclass
class TaskResult:
    """Outcome of one :class:`SweepTask` (success or terminal failure)."""

    index: int
    kernel: str
    block_size: int
    comparison: Optional[Comparison] = None
    error: Optional[str] = None
    attempts: int = 1
    seconds: float = 0.0
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0
    #: disk-layer counters ({"hits", "misses", "evictions", "writes"})
    #: when the task ran against a persistent cache, else None
    compile_cache_disk: Optional[Dict[str, int]] = None
    #: Chrome trace events captured when SweepTask.trace was set
    trace_events: Optional[List[Dict[str, object]]] = None
    #: aggregate-metrics snapshot of this task's registry (see
    #: SweepTask.metrics); on a crashed task this still carries whatever
    #: was flushed before the failure, so partial telemetry survives
    metrics_delta: Optional[Dict[str, object]] = None
    #: the task's process raised (or died) instead of reporting cleanly
    crashed: bool = False

    @property
    def ok(self) -> bool:
        return self.comparison is not None

    @classmethod
    def from_outcome(cls, outcome, index: int, kernel: str,
                     block_size: int) -> "TaskResult":
        """The result a settled scheduler outcome stands for: the task's
        own on success, a terminal-failure record otherwise."""
        if outcome.ok:
            return outcome.value
        return cls(index=index, kernel=kernel, block_size=block_size,
                   error=outcome.error, attempts=outcome.attempts,
                   seconds=outcome.seconds,
                   metrics_delta=outcome.metrics_delta,
                   crashed=outcome.crashed)


class SweepError(RuntimeError):
    """One or more sweep tasks failed after exhausting retries."""

    def __init__(self, failures: List[TaskResult]) -> None:
        self.failures = list(failures)
        detail = "; ".join(
            f"{f.kernel}-{f.block_size} (attempts={f.attempts}): {f.error}"
            for f in self.failures)
        super().__init__(f"{len(self.failures)} sweep task(s) failed: {detail}")


def run_task(task: SweepTask, index: int = 0, attempts: int = 1) -> TaskResult:
    """Execute one comparison with a per-task compile cache.

    With ``task.trace`` set the comparison runs under a fresh
    :class:`~repro.obs.Tracer` (installed for this task only) and the
    captured events ride back on :attr:`TaskResult.trace_events`.

    With ``task.metrics`` set the comparison additionally runs under a
    fresh :class:`~repro.obs.MetricsRegistry`; its snapshot rides back
    on :attr:`TaskResult.metrics_delta`.  If the task raises, the
    partial snapshot is attached to the exception
    (``exc._metrics_delta``) so crash handlers can still report it.
    """
    if not task.metrics:
        return _task_body(task, index, attempts)
    registry = MetricsRegistry()
    try:
        with use_registry(registry):
            result = _task_body(task, index, attempts)
    except BaseException as exc:  # noqa: BLE001 — annotate and re-raise
        exc._metrics_delta = registry.snapshot()
        raise
    result.metrics_delta = registry.snapshot()
    return result


def _task_body(task: SweepTask, index: int, attempts: int) -> TaskResult:
    if task.cache_dir is not None:
        cache = CompileCache(disk=task.cache_dir)
    else:
        cache = CompileCache.from_env()
    start = time.perf_counter()
    events: Optional[List[Dict[str, object]]] = None
    if task.trace:
        with use_tracer(Tracer()) as tracer:
            comparison = compare(
                task.builder, task.block_size, grid_dim=task.grid_dim,
                seed=task.seed, config=task.config, machine=task.machine,
                name=task.kernel, cache=cache, collect_ir_stats=True)
            # Counter tracks next to the task's spans in Perfetto.
            bridge_to_tracer(current_registry(), tracer)
        events = list(tracer.events)
    else:
        comparison = compare(
            task.builder, task.block_size, grid_dim=task.grid_dim,
            seed=task.seed, config=task.config, machine=task.machine,
            name=task.kernel, cache=cache, collect_ir_stats=True)
    seconds = time.perf_counter() - start
    record_task_seconds(seconds)
    return TaskResult(
        index=index, kernel=task.kernel, block_size=task.block_size,
        comparison=comparison, attempts=attempts, seconds=seconds,
        compile_cache_hits=cache.hits, compile_cache_misses=cache.misses,
        compile_cache_disk=(cache.disk.counters()
                            if cache.disk is not None else None),
        trace_events=events)


def _sweep_fn(task: SweepTask, ctx) -> TaskResult:
    """Scheduler task adapter: one sweep comparison per scheduler task.

    Metrics stay ``Task.metrics=False`` at the scheduler layer —
    :func:`run_task` manages its own per-task registry (and annotates
    exceptions with the partial snapshot), which keeps the serial and
    pooled paths byte-identical in what they collect.
    """
    return run_task(task, index=ctx.index, attempts=ctx.attempt)


def fold_sweep_metrics(results: Sequence[TaskResult], wall_seconds: float,
                       slot_busy: Optional[Dict[int, float]] = None) -> None:
    """Merge task deltas + sweep counters into the ambient registry.

    Deltas merge in task-index order — the same order the serial path
    produced them in — so an N-worker sweep's merged snapshot is
    bit-identical to the serial run's (modulo wall-clock-valued samples,
    which are nondeterministic in any mode).  Shared by
    :class:`ParallelRunner` and the :mod:`repro.serve` sweep job so a
    sweep's metric families are the same no matter which surface ran it.
    """
    registry = current_registry()
    if not registry.enabled or not results:
        return
    for result in sorted(results, key=lambda r: r.index):
        if result.metrics_delta:
            registry.merge(result.metrics_delta)
    registry.counter(
        "repro_eval_tasks_completed_total",
        "Sweep tasks that produced a comparison"
    ).inc(sum(1 for r in results if r.ok))
    registry.counter(
        "repro_eval_tasks_failed_total",
        "Sweep tasks that failed after exhausting retries"
    ).inc(sum(1 for r in results if not r.ok))
    registry.counter(
        "repro_eval_tasks_retried_total",
        "Extra attempts beyond each task's first"
    ).inc(sum(r.attempts - 1 for r in results))
    registry.counter(
        "repro_eval_tasks_timed_out_total",
        "Task attempts terminated at the wall-clock timeout"
    ).inc(sum(1 for r in results
              if r.error is not None and "timed out" in r.error))
    registry.counter(
        "repro_eval_tasks_crashed_total",
        "Tasks whose process raised or died mid-flight"
    ).inc(sum(1 for r in results if r.crashed))
    if wall_seconds > 0:
        registry.gauge(
            "repro_eval_rows_per_second",
            "Completed sweep tasks per wall-clock second"
        ).set(sum(1 for r in results if r.ok) / wall_seconds)
        utilization = registry.gauge(
            "repro_eval_worker_utilization",
            "Busy seconds / wall seconds, per concurrency slot")
        for slot in sorted(slot_busy or {}):
            utilization.labels(worker=str(slot)).set(
                min(1.0, slot_busy[slot] / wall_seconds))
    # The merged hit ratio, not the last task's.
    update_cache_hit_ratio(registry)


class ParallelRunner:
    """Run :class:`SweepTask` lists with bounded parallelism.

    ``timeout`` is per task attempt, in seconds (``None`` disables it —
    only meaningful with ``workers > 1``, since the serial path cannot
    preempt a running task).  ``recycle`` forwards a
    :class:`~repro.scheduler.RecyclePolicy` to the worker pool
    (irrelevant for ``workers <= 1``).
    """

    def __init__(self, workers: int = 1, timeout: Optional[float] = None,
                 retries: int = DEFAULT_RETRIES,
                 recycle: RecyclePolicy = NO_RECYCLE) -> None:
        self.workers = max(1, int(workers))
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.recycle = recycle
        #: concurrency-slot id -> busy seconds, rebuilt by each run()
        self._slot_busy: Dict[int, float] = {}
        #: repro_sched_* snapshot of the last run()'s pool (worker
        #: lifetimes, recycling, respawns); None before the first run
        self.scheduler_metrics: Optional[Dict[str, object]] = None

    def _fold_metrics(self, results: Sequence[TaskResult],
                      wall_seconds: float) -> None:
        fold_sweep_metrics(results, wall_seconds, self._slot_busy)

    # ---- public API -------------------------------------------------------

    def run(self, tasks: Sequence[SweepTask],
            progress: Optional[ProgressCallback] = None) -> List[TaskResult]:
        """Run every task; results are ordered by task index.

        ``progress`` is called after each terminal result with
        ``(done, total, result)`` — completion order, not index order.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        self._slot_busy = {}
        start = time.perf_counter()
        total = len(tasks)
        by_index: Dict[int, TaskResult] = {}

        def on_outcome(outcome) -> None:
            # Runs on the scheduler's dispatcher thread, one outcome at
            # a time — no extra synchronization needed here.
            task = tasks[outcome.index]
            result = TaskResult.from_outcome(
                outcome, outcome.index, task.kernel, task.block_size)
            by_index[result.index] = result
            if progress is not None:
                progress(len(by_index), total, result)

        scheduler = Scheduler(
            workers=0 if self.workers <= 1 else self.workers,
            timeout=self.timeout, retries=self.retries, recycle=self.recycle)
        with scheduler:
            scheduler.run([Task(_sweep_fn, task) for task in tasks],
                          on_outcome=on_outcome)
        self._slot_busy = dict(scheduler.slot_busy)
        self.scheduler_metrics = scheduler.metrics_snapshot()
        results = [by_index[index] for index in range(total)]
        self._fold_metrics(results, time.perf_counter() - start)
        return results
