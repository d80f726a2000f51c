"""What a sweep task is, and how a finished sweep's telemetry folds.

Every ``(kernel, block size, config)`` comparison in a figure sweep is
independent — :func:`repro.evaluation.runner.compare` builds fresh
:class:`~repro.kernels.common.KernelCase` objects per call — so a sweep
is a list of ordinary scheduler tasks, ``Task(run_task, SweepTask(...))``,
whether :func:`~repro.evaluation.experiments.run_sweep` or the
:mod:`repro.serve` sweep job submits them (DESIGN.md, "The task path").
The scheduler owns worker processes, queueing, retry, timeout,
recycling and the memo quarantine after a failure; this module owns:

* :class:`SweepTask` → :func:`run_task` → :class:`TaskResult`, the
  value of a successful task's :class:`~repro.scheduler.TaskOutcome`.
  The outcome is the task's one record: attempts, seconds, the
  ``crashed`` / ``timed_out`` flags and the metrics delta live there
  and nowhere else;
* **compile caching** — every task uses a :class:`CompileCache`, so the
  ``-O3`` stage runs once per comparison instead of once per arm; with
  :attr:`SweepTask.cache_dir` the cache is disk-backed and **shared
  across worker processes and sweep repeats** (the directory travels
  in the task, never the environment).  Its counters ride back on
  :attr:`TaskResult.compile_cache`;
* :func:`fold_sweep_metrics` — the one fold of a sweep's outcomes into
  the ambient metrics registry, in position order
  (:func:`merge_deltas`, which every served job's fold shares), so a
  serial, N-worker or served sweep yields the same deterministic
  families.
  It counts no task: the scheduler counts each settled task once, and
  the fold merges that registry instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import CFMConfig
from repro.kernels.common import KernelCase
from repro.obs import (
    Tracer,
    bridge_to_tracer,
    current_registry,
    current_tracer,
    use as use_tracer,
)
from repro.scheduler import Scheduler, TaskContext, TaskOutcome
from repro.simt import MachineConfig

from .runner import Comparison, CompileCache, compare

#: callback invoked after each terminal task outcome, in completion
#: order: ``progress(done, total, task, outcome)``
ProgressCallback = Callable[[int, int, "SweepTask", TaskOutcome], None]


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
    #: keeps the task's cache in-process only
    cache_dir: Optional[str] = None

    @property
    def label(self) -> str:
        return f"{self.kernel}-{self.block_size}"


@dataclass
class TaskResult:
    """What :func:`run_task` produces: ``TaskOutcome.value`` of a
    successful sweep task."""

    comparison: Comparison
    #: the task's ``CompileCache.counters()`` (hits, disk_hits, misses,
    #: evictions, writes, write_errors)
    compile_cache: Dict[str, int]
    #: Chrome trace events captured when SweepTask.trace was set
    trace_events: Optional[List[Dict[str, object]]] = None


class SweepError(RuntimeError):
    """One or more sweep tasks failed after exhausting retries."""

    def __init__(self,
                 failures: Sequence[Tuple[SweepTask, TaskOutcome]]) -> None:
        self.failures = list(failures)
        detail = "; ".join(
            f"{task.label} (attempts={outcome.attempts}): {outcome.error}"
            for task, outcome in self.failures)
        super().__init__(f"{len(self.failures)} sweep task(s) failed: {detail}")


def run_task(task: SweepTask,
             ctx: Optional[TaskContext] = None) -> TaskResult:
    """Execute one comparison with a per-task compile cache over
    ``task.cache_dir`` — the scheduler task function of every sweep
    (``Task(run_task, task)``; ``ctx`` is the scheduler's, unused).

    With ``task.trace`` set the comparison runs under a fresh
    :class:`~repro.obs.Tracer` (installed for this task only) and the
    captured events ride back on :attr:`TaskResult.trace_events`.
    """
    cache = CompileCache(disk=task.cache_dir)
    with use_tracer(Tracer() if task.trace else current_tracer()) as tracer:
        comparison = compare(
            task.builder, task.block_size, grid_dim=task.grid_dim,
            seed=task.seed, config=task.config, machine=task.machine,
            name=task.kernel, cache=cache)
        if task.trace:
            # Counter tracks next to the task's spans in Perfetto.
            bridge_to_tracer(current_registry(), tracer)
    return TaskResult(
        comparison=comparison, compile_cache=cache.counters(),
        trace_events=list(tracer.events) if task.trace else None)


def merge_deltas(registry, outcomes: Sequence[Optional[TaskOutcome]]
                 ) -> None:
    """Merge each outcome's metrics delta into ``registry`` in position
    order (``None`` for a task that never settled): the order a serial
    run emits them, so gauges end at the same value in every mode."""
    for outcome in outcomes:
        if outcome is not None and outcome.metrics_delta:
            registry.merge(outcome.metrics_delta)


def fold_sweep_metrics(outcomes: Sequence[Optional[TaskOutcome]],
                       wall_seconds: float,
                       scheduler: Optional[Scheduler] = None) -> None:
    """Merge a sweep's task deltas into the ambient registry.

    ``outcomes`` are in sweep-position order (``None`` for a task that
    never settled), the order the serial path produced them in, so an
    N-worker or served sweep's merged snapshot is bit-identical to the
    serial run's (modulo wall-clock-valued samples, nondeterministic in
    any mode).  A sweep that owns its ``scheduler`` passes it: its
    registry — the one count of each settled task — is merged too, and
    its ``slot_busy`` gives the per-slot utilization.  A served sweep
    shares the server's scheduler and passes none.
    """
    registry = current_registry()
    outcomes = [outcome for outcome in outcomes if outcome is not None]
    if registry is None or not outcomes:
        return
    merge_deltas(registry, outcomes)
    if scheduler is not None:
        registry.merge(scheduler.registry)
    if wall_seconds > 0:
        registry.gauge(
            "repro_eval_rows_per_second",
            "Completed sweep tasks per wall-clock second"
        ).set(sum(1 for o in outcomes if o.ok) / wall_seconds)
        utilization = registry.gauge(
            "repro_eval_worker_utilization",
            "Busy seconds / wall seconds, per concurrency slot")
        slot_busy = scheduler.slot_busy if scheduler is not None else {}
        for slot in sorted(slot_busy):
            utilization.labels(worker=str(slot)).set(
                min(1.0, slot_busy[slot] / wall_seconds))
