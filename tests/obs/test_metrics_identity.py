"""Identity gate for the metrics registry: snapshot JSON and Prometheus
text, byte for byte.

``metrics_identity.json`` holds the ``snapshot()`` JSON and the
``render_prometheus`` text of one fixed sequence of counter, gauge and
histogram operations, a merge of two registries among them, and a
histogram that adopts the incoming side's buckets.  Every shipped
snapshot (served tasks, sweep tasks, difftest campaigns, the sweep
trace's ``"metrics"`` key) is read by code that expects this layout, so
a rewrite of the registry must reproduce it exactly: the same sections,
key order, sample keys, values and exposition lines.

Regenerate (only for an intended layout change) with
``PYTHONPATH=src python -m tests.obs.test_metrics_identity``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs import (
    CYCLES_BUCKETS,
    MetricsRegistry,
    occupancy_buckets,
    render_prometheus,
)

FIXTURE = Path(__file__).with_name("metrics_identity.json")


def _worker_delta(worker: int) -> MetricsRegistry:
    """One task-shaped registry, as a worker would ship it."""
    registry = MetricsRegistry()
    hits = registry.counter("repro_compile_cache_hits_total",
                            "Compile-cache hits, by layer")
    hits.labels(source="memory").inc(2 + worker)
    hits.labels(source="disk").inc()
    registry.counter("repro_compile_cache_misses_total",
                     "Compile-cache misses").inc(worker)
    lanes = registry.histogram("repro_runtime_active_lanes",
                               "Active lanes at block entry",
                               buckets=occupancy_buckets(32))
    for value in (32, 16, 7.5, 0, 33):
        lanes.labels(policy="ipdom", executor="fast").observe(value + worker)
    registry.histogram("repro_runtime_launch_cycles", "Issue cycles",
                       buckets=CYCLES_BUCKETS).labels(
        policy="min-pc", executor="reference").observe(1000 * (worker + 1))
    registry.gauge("repro_eval_rows_per_second",
                   "Rows per second").set(12.5 * (worker + 1))
    return registry


def build() -> MetricsRegistry:
    """The fixed operation sequence the fixture pins."""
    registry = MetricsRegistry()
    decisions = registry.counter("repro_compile_cfm_decisions_total",
                                 "CFM decisions\nby action \\ melded")
    for action in ("accepted", "rejected", "accepted", "unprofitable"):
        decisions.labels(action=action).inc()
    registry.counter("repro_unlabeled_total").inc(0.25)
    clients = registry.gauge("repro_serve_clients", "Connected clients")
    clients.labels().inc()
    clients.labels().inc(3)
    clients.labels().dec()
    utilization = registry.gauge("repro_eval_worker_utilization",
                                 "Busy / wall seconds, per slot")
    utilization.labels(worker="1").set(0.75)
    utilization.labels(worker="0").set(1.0)
    multi = registry.counter("repro_multi_label_total", "Two labels")
    multi.labels(b="x", a="y").inc(7)
    multi.labels(a="y", b="w").inc()
    seconds = registry.histogram("repro_compile_pass_seconds",
                                 "Pass wall time, by pass")
    for value in (1e-5, 2e-4, 0.5, 30.0):
        seconds.labels(**{"pass": "dce"}).observe(value)
    seconds.labels(**{"pass": "licm"}).observe(1e-3)
    # An empty histogram at other buckets adopts the merged side's.
    registry.histogram("repro_runtime_active_lanes", buckets=(1.0, 2.0))
    registry.merge(_worker_delta(0))
    registry.merge(_worker_delta(1).snapshot())
    registry.gauge("repro_eval_rows_per_second").set(3)
    return registry


def render() -> dict:
    snapshot = build().snapshot()
    return {"snapshot": json.dumps(snapshot, indent=1),
            "prom": render_prometheus(snapshot)}


def test_snapshot_json_is_unchanged():
    assert render()["snapshot"] == json.loads(FIXTURE.read_text())["snapshot"]


def test_prometheus_text_is_unchanged():
    assert render()["prom"] == json.loads(FIXTURE.read_text())["prom"]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(render(), indent=1) + "\n")
