"""``python -m repro.obs`` — trace and metrics inspection CLI.

Subcommands:

``report TRACE.json [--json]``
    Render the divergence heatmap(s) of a trace produced by
    ``repro.trace(...)``, ``python -m repro.evaluation --trace`` (the
    sweep trace embeds ``traceEvents``) or a difftest ``--trace`` run.
    ``--json`` emits the same numbers as a machine-readable document.

``summary TRACE.json``
    One line per traced launch: divergent / total branch executions.

``metrics SOURCE [--format prom|json]``
    Re-render an aggregate-metrics snapshot.  ``SOURCE`` is either a
    sweep trace (schema v3+; its top-level ``"metrics"`` key) or a raw
    snapshot JSON written by :meth:`MetricsRegistry.snapshot`.  The
    default ``prom`` format is Prometheus text exposition v0.0.4.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .metrics import SNAPSHOT_SCHEMA, render_prometheus
from .report import (
    divergence_summary,
    load_trace_events,
    render_report,
    report_json,
)


def _load_metrics_snapshot(path: str) -> dict:
    """A metrics snapshot from a raw snapshot file or a sweep trace."""
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: not a JSON object")
    if data.get("schema") == SNAPSHOT_SCHEMA:
        return data
    metrics = data.get("metrics")
    if isinstance(metrics, dict) and metrics.get("schema") == SNAPSHOT_SCHEMA:
        return metrics
    raise ValueError(
        f"{path}: no metrics snapshot found — expected a raw "
        f"{SNAPSHOT_SCHEMA!r} document or a sweep trace (schema v3+) whose "
        "top-level \"metrics\" key carries one (older sweep traces and "
        "metric-less runs store null there)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect traces and metrics produced by repro.obs.")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="render divergence heatmaps")
    report.add_argument("trace", help="trace JSON (Chrome / sweep v2+)")
    report.add_argument("--json", action="store_true",
                        help="emit the heatmap data as JSON instead of text")

    summary = sub.add_parser("summary", help="per-launch divergence totals")
    summary.add_argument("trace", help="trace JSON (Chrome / sweep v2+)")

    metrics = sub.add_parser(
        "metrics", help="re-render an aggregate-metrics snapshot")
    metrics.add_argument("source",
                         help="sweep trace (schema v3+) or raw snapshot JSON")
    metrics.add_argument("--format", choices=("prom", "json"),
                         default="prom", dest="fmt",
                         help="output format (default: prom — Prometheus "
                              "text exposition)")

    args = parser.parse_args(argv)

    if args.command == "metrics":
        try:
            snapshot = _load_metrics_snapshot(args.source)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        if args.fmt == "json":
            print(json.dumps(snapshot, indent=2, sort_keys=True))
        else:
            print(render_prometheus(snapshot), end="")
        return 0

    events = load_trace_events(args.trace)

    if args.command == "report":
        if args.json:
            print(json.dumps(report_json(events), indent=2))
        else:
            print(render_report(events), end="")
        return 0

    summaries = divergence_summary(events)
    if not summaries:
        print("no runtime events")
        return 1
    for entry in summaries:
        print(f"{entry.name}: {entry.divergent_branch_executions} divergent "
              f"/ {entry.branch_executions} branch executions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
