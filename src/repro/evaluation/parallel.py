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
  instead of compiling.  Its counters ride back on
  :attr:`TaskResult.compile_cache`.

This module is the sweep-shaped job layer over the generic
:class:`repro.scheduler.Scheduler`: the scheduler owns worker processes,
queueing, retry, timeout and recycling; this layer owns what a sweep
task *is* (:class:`SweepTask` → :func:`run_task` → :class:`TaskResult`)
and how its telemetry folds into the ambient metrics registry.

A sweep task is an ordinary scheduler task — ``Task(run_task,
SweepTask(...))`` — whether :class:`ParallelRunner` or the
:mod:`repro.serve` sweep job submits it (DESIGN.md, "The task path").
``workers <= 1`` runs tasks serially in-process (the scheduler's inline
mode — the reference path the determinism tests compare against);
``workers > 1`` uses a pool of **persistent** worker processes, each
serving many tasks.  A task that fails — inline or in a persistent
worker — retires every ``Function.memo`` entry of its process (analysis
bundles and lowered programs alike, see :func:`repro.ir.retire_memos`)
before the next dispatch, so a crash cannot poison a later task's — or
its own retry's — state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core import CFMConfig
from repro.kernels.common import KernelCase
from repro.obs import (
    Tracer,
    bridge_to_tracer,
    current_registry,
    current_tracer,
    record_task_seconds,
    update_cache_hit_ratio,
    use as use_tracer,
)
from repro.scheduler import DEFAULT_RETRIES, Scheduler, Task, TaskContext
from repro.simt import MachineConfig

from .runner import Comparison, CompileCache, compare

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
    #: the task's ``CompileCache.counters()`` (hits, disk_hits, misses,
    #: evictions, writes, write_errors); empty when the task failed
    compile_cache: Dict[str, int] = field(default_factory=dict)
    #: Chrome trace events captured when SweepTask.trace was set
    trace_events: Optional[List[Dict[str, object]]] = None
    #: the scheduler outcome's aggregate-metrics snapshot (Task.metrics);
    #: on a crashed task this still carries whatever was flushed before
    #: the failure, so partial telemetry survives
    metrics_delta: Optional[Dict[str, object]] = None
    #: the task's process raised (or died) instead of reporting cleanly
    crashed: bool = False
    #: the final attempt was terminated at the wall-clock timeout
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return self.comparison is not None

    @classmethod
    def from_outcome(cls, outcome, index: int, kernel: str,
                     block_size: int) -> "TaskResult":
        """The result a settled scheduler outcome stands for — the task's
        own on success, a terminal-failure record otherwise — at the
        caller's position ``index`` and with the outcome's telemetry."""
        result = outcome.value if outcome.ok else cls(
            index=index, kernel=kernel, block_size=block_size,
            error=outcome.error, attempts=outcome.attempts,
            seconds=outcome.seconds, crashed=outcome.crashed,
            timed_out=outcome.timed_out)
        result.index = index
        result.metrics_delta = outcome.metrics_delta
        return result


class SweepError(RuntimeError):
    """One or more sweep tasks failed after exhausting retries."""

    def __init__(self, failures: List[TaskResult]) -> None:
        self.failures = list(failures)
        detail = "; ".join(
            f"{f.kernel}-{f.block_size} (attempts={f.attempts}): {f.error}"
            for f in self.failures)
        super().__init__(f"{len(self.failures)} sweep task(s) failed: {detail}")


def run_task(task: SweepTask,
             ctx: TaskContext = TaskContext(index=0, attempt=1, worker=0)
             ) -> TaskResult:
    """Execute one comparison with a per-task compile cache — the
    scheduler task function of every sweep (``Task(run_task, task)``).

    With ``task.trace`` set the comparison runs under a fresh
    :class:`~repro.obs.Tracer` (installed for this task only) and the
    captured events ride back on :attr:`TaskResult.trace_events`.
    """
    if task.cache_dir is not None:
        cache = CompileCache(disk=task.cache_dir)
    else:
        cache = CompileCache.from_env()
    start = time.perf_counter()
    with use_tracer(Tracer() if task.trace else current_tracer()) as tracer:
        comparison = compare(
            task.builder, task.block_size, grid_dim=task.grid_dim,
            seed=task.seed, config=task.config, machine=task.machine,
            name=task.kernel, cache=cache, collect_ir_stats=True)
        if task.trace:
            # Counter tracks next to the task's spans in Perfetto.
            bridge_to_tracer(current_registry(), tracer)
    seconds = time.perf_counter() - start
    record_task_seconds(seconds)
    return TaskResult(
        index=ctx.index, kernel=task.kernel, block_size=task.block_size,
        comparison=comparison, attempts=ctx.attempt, seconds=seconds,
        compile_cache=cache.counters(),
        trace_events=list(tracer.events) if task.trace else None)


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
    ).inc(sum(1 for r in results if r.timed_out))
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
    preempt a running task).
    """

    def __init__(self, workers: int = 1, timeout: Optional[float] = None,
                 retries: int = DEFAULT_RETRIES) -> None:
        self.workers = max(1, int(workers))
        self.timeout = timeout
        self.retries = max(0, int(retries))

    def run(self, tasks: Sequence[SweepTask],
            progress: Optional[ProgressCallback] = None) -> List[TaskResult]:
        """Run every task; results are ordered by task index.

        ``progress`` is called after each terminal result with
        ``(done, total, result)`` — completion order, not index order.
        When the ambient :func:`~repro.obs.current_registry` is enabled,
        every task collects a metrics delta and they fold into it.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        start = time.perf_counter()
        collect = current_registry().enabled
        by_index: Dict[int, TaskResult] = {}

        def on_outcome(outcome) -> None:
            # Runs on the scheduler's dispatcher thread, one outcome at
            # a time — no extra synchronization needed here.
            task = tasks[outcome.index]
            by_index[outcome.index] = result = TaskResult.from_outcome(
                outcome, outcome.index, task.kernel, task.block_size)
            if progress is not None:
                progress(len(by_index), len(tasks), result)

        scheduler = Scheduler(
            workers=0 if self.workers <= 1 else self.workers,
            timeout=self.timeout, retries=self.retries)
        with scheduler:
            scheduler.run([Task(run_task, task, metrics=collect)
                           for task in tasks], on_outcome=on_outcome)
        results = [by_index[index] for index in range(len(tasks))]
        fold_sweep_metrics(results, time.perf_counter() - start,
                           scheduler.slot_busy)
        return results
