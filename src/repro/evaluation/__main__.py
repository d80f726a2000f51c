"""Regenerate the paper's full evaluation from the command line:

    python -m repro.evaluation [--out report.txt] [--quick] [--workers N]

Runs Table I, Figures 7–10 and Table II and prints (or writes) the
formatted report.  ``--quick`` shrinks the sweeps for a fast smoke run;
``--workers N`` fans the figure sweeps across N worker processes (rows
are deterministic — identical to the serial run); ``--kernels A,B``
restricts the sweeps to the named kernels (skipping the whole-suite
tables), which is what CI's smoke job uses; ``--compile-cache DIR``
points every worker at one persistent compile cache (see
``docs/performance.md``), so re-running the evaluation replays
compilation instead of redoing it.

A machine-readable ``sweep_trace.json`` (per-config pass timings, cache
stats, full metrics — see ``docs/evaluation.md``) is written alongside
the report unless ``--no-trace`` is given.  It embeds Chrome
trace events (compile-pass spans, melding decisions, per-warp divergence
timelines) for the tasks selected by ``--trace-events`` — the file loads
directly in Perfetto, and ``python -m repro.obs report sweep_trace.json``
renders its divergence heatmaps — plus the run's aggregate-metrics
snapshot under a top-level ``"metrics"`` key.

``--metrics FILE`` additionally writes that snapshot as Prometheus text
exposition (scrapeable / pushable to a Pushgateway); ``--progress``
paints a live per-sweep status line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compile_cache import CACHE_ENV_VAR, cache_dir_setting
from repro.kernels import REAL_WORLD_BUILDERS, SYNTHETIC_BUILDERS
from repro.obs import MetricsRegistry, use_registry
from repro.simt import RECONVERGENCE_POLICIES, MachineConfig

from .experiments import (
    REAL_BLOCK_SIZES,
    SpeedupRow,
    best_improvement_rows,
    counters,
    figure7,
    figure8,
    table1,
    table2,
)
from .progress import ProgressLine
from .reporting import (
    format_counters,
    format_figure8,
    format_policy_comparison,
    format_speedups,
    format_table1,
    format_table2,
)
from .trace import SweepTraceCollector, TRACE_EVENT_POLICIES


def _json_rows(rows: List[SpeedupRow]) -> List[Dict[str, object]]:
    return [{"kernel": r.kernel, "block": r.block_size,
             "speedup": r.speedup,
             "baseline": r.comparison.baseline.as_dict(),
             "cfm": r.comparison.melded.as_dict()} for r in rows]


def build_report(quick: bool = False, workers: int = 1,
                 timeout: Optional[float] = None,
                 kernels: Optional[Sequence[str]] = None,
                 trace: Optional[SweepTraceCollector] = None,
                 cache_dir: Optional[str] = None,
                 reconvergence: Sequence[str] = ("ipdom",),
                 progress: bool = False) -> Tuple[str, Dict[str, object]]:
    """Run every table and figure once; returns the formatted report and
    the ``--json`` view of the same rows (the first policy's Figure 7/8
    sweeps; a figure the run skipped is absent)."""
    sections = []
    data: Dict[str, object] = {}
    start = time.perf_counter()

    def progress_line(label: str) -> Optional[ProgressLine]:
        return ProgressLine(label) if progress else None

    for policy in reconvergence:
        if policy not in RECONVERGENCE_POLICIES:
            raise SystemExit(
                f"unknown reconvergence policy {policy!r} "
                f"(available: {', '.join(RECONVERGENCE_POLICIES)})")

    synthetic = {name: builder for name, builder in SYNTHETIC_BUILDERS.items()
                 if not kernels or name in kernels}
    real = {name: builder for name, builder in REAL_WORLD_BUILDERS.items()
            if not kernels or name in kernels}
    if kernels:
        unknown = set(kernels) - set(synthetic) - set(real)
        if unknown:
            available = sorted(SYNTHETIC_BUILDERS) + sorted(REAL_WORLD_BUILDERS)
            raise SystemExit(
                f"unknown kernel(s): {', '.join(sorted(unknown))} "
                f"(available: {', '.join(available)})")

    # Whole-suite tables only make sense over the full kernel set.
    if not kernels:
        sections.append(format_table1(table1()))

    # One figure sweep per requested reconvergence policy; the Chrome
    # trace capture is attached to the first policy only so a
    # multi-policy report does not duplicate task entries.
    per_policy_rows = {}
    counter_source = []
    for position, policy in enumerate(reconvergence):
        machine = MachineConfig(reconvergence=policy)
        policy_trace = trace if position == 0 else None
        suffix = (f" [reconvergence={policy}]"
                  if len(reconvergence) > 1 or policy != "ipdom" else "")

        rows7 = []
        if synthetic:
            synthetic_sizes = [16, 32] if quick else None
            rows7, gm7 = figure7(block_sizes=synthetic_sizes, workers=workers,
                                 timeout=timeout, trace=policy_trace,
                                 builders=synthetic, machine=machine,
                                 cache_dir=cache_dir,
                                 progress=progress_line(f"figure7[{policy}]"))
            if position == 0:
                data["figure7"] = {"geomean": gm7, "rows": _json_rows(rows7)}
            sections.append(format_speedups(
                rows7, f"Figure 7: synthetic benchmark speedups{suffix}"))

        fig8_rows = []
        if real:
            real_sizes = ({k: v[:2] for k, v in REAL_BLOCK_SIZES.items()}
                          if quick else None)
            fig8 = figure8(block_sizes=real_sizes, workers=workers,
                           timeout=timeout, trace=policy_trace,
                           builders=real, machine=machine,
                           cache_dir=cache_dir,
                           progress=progress_line(f"figure8[{policy}]"))
            fig8_rows = fig8.rows
            if position == 0:
                data["figure8"] = {"geomean": fig8.geomean_all,
                                   "geomean_best": fig8.geomean_best,
                                   "rows": _json_rows(fig8_rows)}
            sections.append(format_figure8(fig8, suffix=suffix))

        per_policy_rows[policy] = rows7 + fig8_rows
        if position == 0:
            counter_source = rows7 + fig8_rows

    if len(reconvergence) > 1 and any(per_policy_rows.values()):
        sections.append(format_policy_comparison(
            per_policy_rows,
            "Reconvergence policy sensitivity (memory is bit-identical "
            "across policies; cycles are per-policy)"))

    if counter_source:
        counter_rows = counters(best_improvement_rows(counter_source))
        sections.append(format_counters(counter_rows))

    if not kernels:
        sections.append(format_table2(table2(repeats=1 if quick else 3)))

    elapsed = time.perf_counter() - start
    header = (
        "CFM/DARM reproduction — full evaluation report\n"
        f"(regenerated in {elapsed:.1f}s with workers={workers}; see "
        "EXPERIMENTS.md for the paper-vs-measured discussion)\n"
    )
    return header + "\n\n".join([""] + sections) + "\n", data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation",
        description="Regenerate every table and figure of the paper.")
    parser.add_argument("--out", help="write the report to this file")
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweeps for a fast smoke run")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes for the figure sweeps "
                             "(default 1 = serial; rows are identical)")
    parser.add_argument("--timeout", type=float, default=None, metavar="SEC",
                        help="per-task wall-clock timeout (workers > 1 only); "
                             "a timed-out config is retried once, then fails")
    parser.add_argument("--kernels", metavar="A,B,...",
                        help="restrict the sweeps to these kernels and skip "
                             "the whole-suite tables (CI smoke mode)")
    parser.add_argument("--trace", metavar="FILE",
                        help="write the machine-readable sweep trace here "
                             "(default: sweep_trace.json next to --out)")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip writing the sweep trace")
    parser.add_argument("--trace-events", choices=TRACE_EVENT_POLICIES,
                        default="first", metavar="{off,first,all}",
                        help="which sweep tasks capture Chrome trace events "
                             "into the sweep trace (default: first block "
                             "size of each kernel)")
    parser.add_argument("--json", metavar="FILE",
                        help="also dump the report's Figure 7/8 rows "
                             "(speedups and raw counters) as JSON")
    parser.add_argument("--metrics", metavar="FILE",
                        help="write the run's aggregate-metrics snapshot "
                             "here as Prometheus text exposition")
    parser.add_argument("--progress", action="store_true",
                        help="paint a live per-sweep status line (rows/s, "
                             "ETA) on stderr while the figures run")
    parser.add_argument("--reconvergence", metavar="P1,P2,...",
                        default="ipdom",
                        help="comma-separated reconvergence policies to "
                             f"sweep (available: "
                             f"{','.join(RECONVERGENCE_POLICIES)}; default: "
                             "ipdom).  More than one policy adds per-policy "
                             "Figure 7/8 sections plus a side-by-side "
                             "sensitivity table")
    parser.add_argument("--compile-cache", metavar="DIR",
                        default=os.environ.get(CACHE_ENV_VAR),
                        help="persistent compile-cache directory shared by "
                             "all workers and repeat runs (default: the "
                             "REPRO_COMPILE_CACHE env var; 'off' disables "
                             "even that)")
    args = parser.parse_args(argv)
    problem = None
    if args.workers < 1:
        problem = f"--workers must be at least 1, got {args.workers}"
    elif args.timeout is not None and args.timeout <= 0:
        problem = f"--timeout must be positive, got {args.timeout}"
    if problem is not None:
        print(f"{parser.prog}: {problem}", file=sys.stderr)
        return 2
    cache_dir = cache_dir_setting(args.compile_cache)

    kernels = ([k.strip() for k in args.kernels.split(",") if k.strip()]
               if args.kernels else None)
    reconvergence = tuple(p.strip() for p in args.reconvergence.split(",")
                          if p.strip()) or ("ipdom",)
    trace = (None if args.no_trace
             else SweepTraceCollector(workers=args.workers,
                                      timeout=args.timeout,
                                      policy=args.trace_events))

    # Aggregate metrics ride along whenever there is somewhere to put
    # them: the --metrics file and/or the sweep trace's "metrics" key.
    registry = (MetricsRegistry() if args.metrics or trace is not None
                else None)
    with use_registry(registry):
        report, data = build_report(
            quick=args.quick, workers=args.workers, timeout=args.timeout,
            kernels=kernels, trace=trace, cache_dir=cache_dir,
            reconvergence=reconvergence, progress=args.progress)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(data, handle, indent=2)
        print(f"wrote {args.json}")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
        print(f"wrote {args.out}")
    else:
        print(report)

    if args.metrics:
        registry.write_prom(args.metrics)
        print(f"wrote {args.metrics}")

    if trace is not None:
        if registry is not None:
            trace.metrics = registry.snapshot()
        trace_path = args.trace or os.path.join(
            os.path.dirname(args.out) if args.out else ".",
            "sweep_trace.json")
        trace.write(trace_path)
        print(f"wrote {trace_path} ({trace.task_count} task entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
