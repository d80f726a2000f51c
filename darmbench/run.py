#!/usr/bin/env python3
"""The repo benchmark's one command.

    python3 darmbench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit, then — as the last line of
standard output — one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Exit code 0
means the run was measured and every check passed.

``--update-golden`` regenerates ``golden.json`` from the current tree
(all workloads, at the golden seed) after cross-checking the Fig. 7/8
cycle counts against ``results/data.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the program under test, and this package, by path: the driver runs the
# command from a bare checkout with no PYTHONPATH
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: workload name -> (module, class, extra constructor arguments)
WORKLOADS = {
    "fig8_cold": ("wl_fig8", "Fig8", {"warm": False}),
    "fig8_warm": ("wl_fig8", "Fig8", {"warm": True}),
    "sim_hot": ("wl_sim_hot", "SimHot", {}),
    "fuzz_validate": ("wl_fuzz", "FuzzValidate", {}),
    "serve_launch": ("wl_serve", "ServeLaunch", {}),
}


def fresh_import_seconds(module: str) -> float:
    """Seconds a new interpreter takes to import the workload module (and
    with it the program)."""
    code = (f"import sys, time; sys.path[:0] = {sys.path[:2]!r}; "
            f"start = time.perf_counter(); import {module}; "
            f"print(time.perf_counter() - start)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, cwd=ROOT)
    return float(done.stdout)


def measure(name: str, seed: int, seconds: float, trace: bool, golden):
    """Import the workload (timed: it pulls in the program) and run it."""
    from darmbench import harness
    module_name, class_name, extra = WORKLOADS[name]
    module_name = f"darmbench.{module_name}"
    # Importing is part of set-up, and like the rest of set-up it is timed
    # SETUP_REPEATS times: once here, the other times in new interpreters.
    start = time.perf_counter()
    module = importlib.import_module(module_name)
    imports = [time.perf_counter() - start]
    imports += [fresh_import_seconds(module_name)
                for _ in range(harness.SETUP_REPEATS - 1)]
    workload = getattr(module, class_name)(seed, harness.WORK_DIR / name,
                                           **extra)
    return harness.run(workload, seconds, trace, statistics.median(imports),
                       golden)


def update_golden() -> int:
    from darmbench import harness
    tables = {}
    for name in WORKLOADS:
        document, cases = measure(name, harness.GOLDEN_SEED, seconds=0.0,
                                  trace=False, golden=None)
        if document["failures"]:
            print("\n".join(document["failures"]), file=sys.stderr)
            return 1
        table = harness.golden_table(cases)
        key = document["golden_key"]
        if tables.setdefault(key, table) != table:
            print(f"{name}: golden table {key!r} differs from the one "
                  f"another workload produced", file=sys.stderr)
            return 1
    recorded = json.loads((ROOT / "results" / "data.json").read_text())
    for figure, table, policy in (("figure8", "fig8", ""),
                                  ("figure7", "sim_hot", "@ipdom")):
        for row in recorded[figure]["rows"]:
            facts = tables[table][f"{row['kernel']}-{row['block']}{policy}"]
            ours = (facts["o3_cycles"], facts["cfm_cycles"])
            theirs = (row["baseline"]["cycles"], row["cfm"]["cycles"])
            if ours != theirs:
                print(f"{figure} {row['kernel']}-{row['block']}: measured "
                      f"{ours}, results/data.json has {theirs}",
                      file=sys.stderr)
                return 1
    document = {"seed": harness.GOLDEN_SEED,
                "cross_checked": "results/data.json (figure7, figure8 rows)",
                **tables}
    harness.GOLDEN_FILE.write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {harness.GOLDEN_FILE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20220402)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.update_golden:
        return update_golden()
    if args.workload is None:
        parser.error("--workload is required")

    from darmbench import harness
    declared = json.loads(harness.BENCHMARK_FILE.read_text(encoding="utf-8"))
    document, _ = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace), harness.load_golden())
    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for spec in declared[group]:
        value = float(document[group].get(spec["name"], 0.0))
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{args.workload:14} {spec['name']:40} {value:16.6f} "
              f"{spec['unit']}")
    harness.OUT_DIR.mkdir(exist_ok=True)
    (harness.OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(document, indent=1, sort_keys=True), encoding="utf-8")
    failures = document["failures"]
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures,
                      "attempted": document["attempted"],
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
