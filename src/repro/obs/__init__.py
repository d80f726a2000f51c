"""``repro.obs`` — the span-based observability layer.

One tracer model serves all three layers of the system (see
``docs/observability.md``):

* **compile side** — :class:`~repro.transforms.PassPipeline` emits one
  span per pass execution (IR-size deltas in the args) and the CFM pass
  emits its structured melding decision log as instant events;
* **runtime side** — kernel launches under an enabled tracer record
  per-warp divergence/reconvergence events and active-lane occupancy
  (:mod:`repro.obs.runtime`), rendered by ``python -m repro.obs report``
  as a text divergence heatmap;
* **harness side** — evaluation sweeps and the difftest oracle attach
  these events to their own artifacts (sweep trace, corpus entries).

Tracing is *ambient*: instrumented code reads :func:`current_tracer`,
which defaults to the no-op :data:`NULL_TRACER`.  Enable it for a scope
with :func:`use` (install an existing tracer) or :func:`trace` (create
one and optionally write Chrome trace-event JSON on exit)::

    import repro

    with repro.trace("trace.json"):
        repro.compile(kernel, cfm=True)
        repro.launch(kernel, grid=1, block=32, args={...})
    # trace.json now loads in Perfetto / chrome://tracing

The disabled path is allocation-free: :data:`NULL_TRACER` is a shared
singleton whose operations are no-ops, and the simulator skips its
instrumentation entirely when no tracer is enabled.

The *aggregate* view lives in :mod:`repro.obs.metrics`: an ambient
:class:`MetricsRegistry` of labeled counters/gauges/histograms (none
installed — :func:`current_registry` is None — means metrics off),
cross-process snapshot/merge semantics, and Prometheus text
exposition — see ``docs/observability.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .tracer import (
    COMPILE_PID,
    NULL_TRACER,
    NullTracer,
    SIM_PID_BASE,
    Span,
    Tracer,
)
from .decisions import (
    ACTIONS,
    BlockPairScore,
    MeldingDecision,
    emit_decisions,
)
from .metrics import (
    CYCLES_BUCKETS,
    MetricsRegistry,
    RATE_BUCKETS,
    SECONDS_BUCKETS,
    SNAPSHOT_SCHEMA,
    bridge_to_tracer,
    collect_metrics,
    current_registry,
    exponential_buckets,
    linear_buckets,
    occupancy_buckets,
    record_cache_event,
    record_cfm_decisions,
    record_pass_seconds,
    record_validate_verdict,
    render_prometheus,
    runtime_sink,
    set_registry,
    use_registry,
)
from .passes import emit_pass_timing, pass_timing_event, pass_timing_events
from .report import (
    BlockStat,
    LaunchSummary,
    divergence_summary,
    load_trace_events,
    render_heatmap,
    render_report,
    report_json,
    summary_dict,
)
from .runtime import WarpTrace, flush_warp_trace

__all__ = [
    "Tracer", "NullTracer", "NULL_TRACER", "Span",
    "COMPILE_PID", "SIM_PID_BASE",
    "current_tracer", "set_tracer", "use", "trace",
    "MeldingDecision", "BlockPairScore", "ACTIONS", "emit_decisions",
    "pass_timing_event", "pass_timing_events", "emit_pass_timing",
    "WarpTrace", "flush_warp_trace",
    "BlockStat", "LaunchSummary", "divergence_summary",
    "load_trace_events", "render_heatmap", "render_report",
    "report_json", "summary_dict",
    "MetricsRegistry", "SNAPSHOT_SCHEMA",
    "current_registry", "set_registry", "use_registry", "collect_metrics",
    "exponential_buckets", "linear_buckets", "occupancy_buckets",
    "SECONDS_BUCKETS", "CYCLES_BUCKETS", "RATE_BUCKETS",
    "render_prometheus", "bridge_to_tracer", "runtime_sink",
    "record_pass_seconds", "record_cache_event",
    "record_cfm_decisions", "record_validate_verdict",
]

#: the ambient tracer every instrumentation site reads
_current = NULL_TRACER


def current_tracer():
    """The ambient tracer (:data:`NULL_TRACER` unless one is installed)."""
    return _current


def set_tracer(tracer) -> object:
    """Install ``tracer`` as the ambient tracer; returns the previous one.

    Prefer the scoped :func:`use` / :func:`trace` context managers; this
    exists for REPL sessions and harnesses that manage scope themselves.
    """
    global _current
    previous = _current
    _current = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def use(tracer) -> Iterator[object]:
    """Install ``tracer`` as the ambient tracer for the ``with`` scope."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


@contextmanager
def trace(path: Optional[str] = None, tracer: Optional[Tracer] = None
          ) -> Iterator[Tracer]:
    """Trace everything in the ``with`` scope; write Chrome JSON on exit.

    ``path=None`` skips the write — the yielded :class:`Tracer` still
    holds every event for programmatic use.  This is also exported as
    ``repro.trace``.
    """
    active = tracer if tracer is not None else Tracer()
    with use(active):
        yield active
    if path is not None:
        active.write(path)
