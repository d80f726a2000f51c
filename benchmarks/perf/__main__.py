"""CLI entry point: ``python -m benchmarks.perf``.

Runs the executor benchmark suite and writes the result document
(executor speedups plus the cold-vs-warm compile-cache split) to
``--out`` — by default the git-ignored ``BENCH_local.json``.  With
``--check`` the thresholds guard is evaluated and a miss exits 1.
``--cache-dir`` points the Figure 8 cold/warm measurement at a
persistent directory instead of a throwaway one.

The document is a parity check plus fast-over-*reference* ratios, read
against the floors in ``thresholds.json``; it is not a record of how
fast the repo is (a faster reference lowers every ratio).  Absolute
numbers, and every before/after claim, come from ``darmbench/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .guard import check_thresholds, load_thresholds
from .suite import run_suite


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="Benchmark the fast-path executor against the "
                    "reference interpreter and write the result "
                    "document to --out.")
    parser.add_argument("--out", type=Path, default=Path("BENCH_local.json"),
                        help="output path (default: ./BENCH_local.json, "
                             "git-ignored)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent compile-cache directory for the "
                             "figure8 cold/warm measurement (default: a "
                             "temporary directory)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per measurement (best-of)")
    parser.add_argument("--difftest-seeds", type=int, default=4,
                        help="difftest oracle seeds to time")
    parser.add_argument("--quick", action="store_true",
                        help="single repeat, 2 difftest seeds (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="evaluate thresholds.json and exit 1 on a miss")
    parser.add_argument("--slack", type=float, default=0.0,
                        help="fractional threshold slack for --check "
                             "(e.g. 0.3 tolerates 30%% under threshold)")
    args = parser.parse_args(argv)

    results = run_suite(repeats=args.repeats,
                        difftest_seeds=args.difftest_seeds,
                        quick=args.quick, cache_dir=args.cache_dir)
    args.out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")

    for row in results["micro"]:
        fast = row["executors"]["fast"]["ops_per_second"]
        print(f"micro {row['workload']:>16}: {row['speedup']:5.2f}x "
              f"(fast: {fast:,.0f} ops/s)")
    figure8 = results["macro"]["figure8"]
    print(f"macro figure8: simulate {figure8['simulate_speedup']:.2f}x, "
          f"end-to-end {figure8['end_to_end_speedup']:.2f}x "
          f"(compile {figure8['compile_seconds']:.2f}s)")
    compile_split = figure8["compile"]
    print(f"macro figure8 compile cache: cold "
          f"{compile_split['cold_seconds']:.2f}s, warm "
          f"{compile_split['warm_seconds']:.2f}s "
          f"({compile_split['warm_speedup']:.1f}x; warm end-to-end "
          f"{figure8['end_to_end_speedup_warm']:.2f}x, "
          f"{compile_split['warm_cache']['hits']} hits)")
    difftest = results["macro"]["difftest"]
    print(f"macro difftest: {difftest['speedup']:.2f}x "
          f"({difftest['executors']['fast']['seeds_per_second']:.2f} seeds/s)")
    print(f"wrote {args.out}")

    if args.check:
        failures = check_thresholds(results, load_thresholds(),
                                    slack=args.slack)
        if failures:
            print("PERF GUARD FAILED:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print("perf guard passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
