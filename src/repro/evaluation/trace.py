"""Structured sweep traces: machine-readable observability for the
evaluation harness.

One ``sweep_trace.json`` per harness run: for every ``(kernel, block
size)`` configuration, the wall-clock cost, compile breakdown (including
cache hits), per-pass events for both arms (the event shape lives in
:mod:`repro.obs.passes`), and the full serialized metrics of both runs.
Written alongside ``report.txt`` so perf regressions between PRs are
diffable.

The file also embeds a top-level ``traceEvents`` list — the merged
Chrome trace events of every traced task (pass spans, melding decisions,
warp divergence timelines).  Because Perfetto ignores unknown top-level
keys, a ``sweep_trace.json`` loads directly in ``ui.perfetto.dev`` /
``chrome://tracing`` *and* stays a structured sweep record; ``python -m
repro.obs report sweep_trace.json`` renders its divergence heatmaps.

A top-level ``"metrics"`` key holds the aggregate-metrics snapshot
(:meth:`repro.obs.MetricsRegistry.snapshot`) of the whole harness run —
compile-cache hit rates, per-pass latency histograms, divergence
distributions, task throughput — folded across every worker process.
``python -m repro.obs metrics sweep_trace.json`` renders it as
Prometheus text or JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs import COMPILE_PID, SIM_PID_BASE, pass_timing_events

from .parallel import TaskResult

#: bump when the trace layout changes; consumers key off this
SWEEP_TRACE_SCHEMA = "repro.evaluation.sweep_trace/v4"

#: task-tracing policies for sweeps: nothing, the first block size of
#: each kernel (bounded file size), or every task
TRACE_EVENT_POLICIES = ("off", "first", "all")


def task_entry(result: TaskResult) -> Dict[str, object]:
    """One sweep-trace entry for a finished (or failed) task."""
    entry: Dict[str, object] = {
        "kernel": result.kernel,
        "block_size": result.block_size,
        "index": result.index,
        "ok": result.ok,
        "attempts": result.attempts,
        "seconds": round(result.seconds, 6),
        "compile_cache": dict(result.compile_cache),
    }
    if not result.ok:
        entry["error"] = result.error
        return entry
    comparison = result.comparison
    entry.update({
        "speedup": comparison.speedup,
        "melds": comparison.melds,
        "baseline_cycles": comparison.baseline.cycles,
        "cfm_cycles": comparison.melded.cycles,
        "compile": {
            "baseline": {
                "o3_seconds": comparison.baseline_compile.o3_seconds,
                "o3_cached": comparison.baseline_compile.o3_cached,
                "passes": pass_timing_events(
                    comparison.baseline_compile.pass_timings),
            },
            "cfm": {
                "o3_seconds": comparison.cfm_compile.o3_seconds,
                "o3_cached": comparison.cfm_compile.o3_cached,
                "cfm_cached": comparison.cfm_compile.cfm_cached,
                "cfm_seconds": comparison.cfm_compile.cfm_seconds,
                "passes": pass_timing_events(
                    comparison.cfm_compile.pass_timings),
            },
        },
        "baseline_metrics": comparison.baseline.as_dict(),
        "cfm_metrics": comparison.melded.as_dict(),
    })
    return entry


@dataclass
class SweepTraceCollector:
    """Accumulates per-task entries across one harness invocation.

    Tasks run under their own per-process tracer (each starting at
    ``COMPILE_PID`` / ``SIM_PID_BASE``), so when a traced task's events
    arrive the collector rebases them onto collector-unique pids and
    prefixes every process name with ``<kernel>-<block>:`` — the merged
    ``traceEvents`` list stays one consistent Perfetto timeline no
    matter how many tasks contributed.
    """

    workers: int = 1
    timeout: Optional[float] = None
    #: which tasks run under a tracer — one of TRACE_EVENT_POLICIES
    #: ("first" = the first block size of each kernel; bounds file size)
    policy: str = "first"
    sections: Dict[str, List[Dict[str, object]]] = field(default_factory=dict)
    #: merged Chrome trace events of every traced task (pid-rebased)
    events: List[Dict[str, object]] = field(default_factory=list)
    #: aggregate-metrics snapshot of the run (schema v3+); set by the
    #: harness after all sections are recorded, None when metrics were
    #: not collected
    metrics: Optional[Dict[str, object]] = None
    _next_pid: int = SIM_PID_BASE

    def __post_init__(self) -> None:
        if self.policy not in TRACE_EVENT_POLICIES:
            raise ValueError(
                f"unknown trace-events policy {self.policy!r}; expected "
                f"one of {TRACE_EVENT_POLICIES}")

    def record(self, section: str, results: Sequence[TaskResult]) -> None:
        self.sections.setdefault(section, []).extend(
            task_entry(result) for result in results)
        for result in results:
            if result.trace_events:
                self._merge_task_events(result)

    def _merge_task_events(self, result: TaskResult) -> None:
        label = f"{result.kernel}-{result.block_size}"
        pid_map: Dict[int, int] = {}
        named: set = set()
        for event in result.trace_events:
            pid = event.get("pid", 0)
            if pid not in pid_map:
                pid_map[pid] = self._next_pid
                self._next_pid += 1
            rebased = dict(event)
            rebased["pid"] = pid_map[pid]
            if rebased.get("ph") == "M" and rebased.get("name") == "process_name":
                args = dict(rebased.get("args", {}))
                args["name"] = f"{label}:{args.get('name', '')}"
                rebased["args"] = args
                named.add(rebased["pid"])
            self.events.append(rebased)
        # The compile pid never names itself; synthesize its metadata so
        # Perfetto labels the track.
        for old_pid, new_pid in pid_map.items():
            if new_pid in named:
                continue
            name = "compile" if old_pid == COMPILE_PID else f"pid{old_pid}"
            self.events.append({
                "name": "process_name", "ph": "M", "ts": 0,
                "pid": new_pid, "tid": 0,
                "args": {"name": f"{label}:{name}"}})

    @property
    def task_count(self) -> int:
        return sum(len(entries) for entries in self.sections.values())

    @property
    def traced_pid_count(self) -> int:
        """How many task pids have been merged into :attr:`events`."""
        return self._next_pid - SIM_PID_BASE

    def payload(self) -> Dict[str, object]:
        return {
            "schema": SWEEP_TRACE_SCHEMA,
            "workers": self.workers,
            "timeout": self.timeout,
            "task_count": self.task_count,
            "sections": self.sections,
            "metrics": self.metrics,
            "traceEvents": self.events,
            "displayTimeUnit": "ms",
        }

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.payload(), handle, indent=2)
            handle.write("\n")


def load_sweep_trace(path: str) -> Dict[str, object]:
    """Read a ``sweep_trace.json``; any other schema is rejected."""
    with open(path) as handle:
        data = json.load(handle)
    schema = data.get("schema")
    if schema != SWEEP_TRACE_SCHEMA:
        raise ValueError(
            f"{path}: unknown sweep-trace schema {schema!r} "
            f"(readable: {SWEEP_TRACE_SCHEMA})")
    return data
