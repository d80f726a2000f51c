"""Self-test of the repo benchmark: ``python -m pytest darmbench``.

Runs every workload through the real command with a tiny ``--seconds``
(set-up, warm-up and the checks do not shrink, so this takes a couple of
minutes) and checks the contract: every declared metric printed with its
unit, exact metrics repeatable, well-formed spans, a golden mismatch
fails the run, and a warm cache runs no pass.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from darmbench import harness

ROOT = harness.ROOT
DECLARED = json.loads(harness.BENCHMARK_FILE.read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_runs = {}


def bench(workload: str, seed: int = harness.GOLDEN_SEED, trace: int = 0,
          root: Path = ROOT):
    """(exit code, result line, stdout) of one run, cached per arguments."""
    key = (workload, seed, trace, root)
    if key not in _runs:
        done = subprocess.run(
            [sys.executable, "darmbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
            cwd=root, capture_output=True, text=True, timeout=180)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        _runs[key] = (done.returncode, result, done.stdout + done.stderr)
    return _runs[key]


# ---- the harness's own arithmetic ------------------------------------------


def test_unit_estimates_count_repeated_keys_per_iteration():
    iterations = [harness.Iteration(units=[("a", 1.0), ("a", 3.0), ("b", 2.0)]),
                  harness.Iteration(units=[("a", 1.0), ("a", 1.0), ("b", 9.0)])]
    # best sample per key, times its occurrences per iteration
    assert harness.unit_estimates(iterations) == {"a": 2.0, "b": 2.0}
    assert harness.iteration_seconds(iterations) == 4.0


def test_self_time_excludes_children():
    tracer = harness.Tracer()
    with tracer.span("outer", "x"):
        with tracer.span("inner", "y"):
            pass
    outer, inner = tracer.spans
    own = tracer.self_times()
    assert inner["parent"] == 0 and outer["parent"] is None
    assert own[1] == inner["end"] - inner["start"]
    assert own[0] == pytest.approx(
        (outer["end"] - outer["start"]) - own[1])


def test_golden_compares_data_dependent_facts_only_at_the_golden_seed():
    table = {"k": {"o3_cycles": 10, "melds": 2}}
    cases = {"k": {"o3_cycles": 11, "melds": 2, "ir_digest": 7}}
    assert harness.check_golden(table, cases, seed=1) == (1, [])
    checked, failures = harness.check_golden(table, cases,
                                             harness.GOLDEN_SEED)
    assert checked == 2 and len(failures) == 1
    assert harness.check_golden(table, {}, seed=1)[1]  # a missing case
    assert harness.golden_table(cases) == {"k": {"o3_cycles": 11, "melds": 2}}


# ---- the command -----------------------------------------------------------


def test_declared_names_are_well_formed_and_unique():
    names = [m["name"] for group in ("end_to_end", "per_layer")
             for m in DECLARED[group]] + WORKLOADS
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert DECLARED["paths"] == ["darmbench"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    code, result, output = bench(workload, trace=trace)
    assert code == 0, output
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    group = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in group}
    for metric in group:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        if not trace:
            assert printed["value"] > 0, metric["name"]
    assert result["metrics"].get("obs.trace_overhead_ratio",
                                 {"value": 1})["value"] > 0


@pytest.mark.parametrize("workload", ["fig8_cold", "sim_hot"])
def test_exact_metrics_repeat(workload):
    _, first, _ = bench(workload)
    del _runs[(workload, harness.GOLDEN_SEED, 0, ROOT)]
    _, second, _ = bench(workload)
    for name in ("sim_cycles", "cfm_speedup_gm"):
        assert first["metrics"][name] == second["metrics"][name]


def test_compiled_code_does_not_depend_on_the_seed():
    """Another seed changes the input data (cycles may move) but not one
    compile-side fact: the golden check, which pins those at every seed,
    still passes."""
    code, result, output = bench("fig8_cold", seed=7)
    assert code == 0 and result["correct"], output


def test_spans_nest_and_self_times_fit_in_the_iteration():
    bench("fig8_cold", trace=1)
    spans = json.loads((harness.OUT_DIR / "spans-fig8_cold.json").read_text())
    assert {"name", "layer", "start", "end", "parent", "iteration",
            "case"} == set(spans[0])
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] \
                <= parent["end"]
            own[span["parent"]] -= span["end"] - span["start"]
    assert all(seconds >= -1e-9 for seconds in own)
    for root in (s for s in spans if s["name"] == "iteration"):
        inside = sum(seconds for span, seconds in zip(spans, own)
                     if span["iteration"] == root["iteration"])
        assert inside <= (root["end"] - root["start"]) * (1 + 1e-9)


def test_warm_cache_runs_no_pass_and_misses_nothing():
    _, result, _ = bench("fig8_warm", trace=1)
    metrics = result["metrics"]
    assert metrics["transforms.pass_runs"]["value"] == 0
    assert metrics["compile_cache.misses"]["value"] == 0
    assert metrics["compile_cache.hit_ratio"]["value"] == 1
    assert metrics["transforms.o3_s"]["value"] == 0
    assert metrics["core.cfm_s"]["value"] == 0


def test_a_corrupted_golden_entry_fails_the_run(tmp_path):
    shutil.copytree(ROOT / "darmbench", tmp_path / "darmbench",
                    ignore=shutil.ignore_patterns("work", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    golden_file = tmp_path / "darmbench" / "golden.json"
    golden = json.loads(golden_file.read_text())
    golden["sim_hot"]["SB1-32"]["melds"] += 1
    golden_file.write_text(json.dumps(golden))
    code, result, output = bench("sim_hot", root=tmp_path)
    assert code != 0 and not result["correct"] and result["failed"] == 1
    assert "golden SB1-32.melds" in output


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "darmbench", tmp_path / "darmbench",
                    ignore=shutil.ignore_patterns("work", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, result, _ = bench("sim_hot", root=tmp_path)
    assert code != 0 and result is None
