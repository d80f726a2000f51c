"""Mutation test for the perf guard.

A threshold guard that never fires is worse than none: it green-lights
regressions forever.  So this suite injects a *real* slowdown into the
fast executor's block dispatch — from the test side, by wrapping the
``execute`` every :class:`~repro.simt.fastpath.FastEvaluator` hands the
warp driver; production code carries no hook — and asserts the guard
trips on the degraded measurement, plus deterministic unit checks of the
comparison logic on synthetic result documents.
"""

from __future__ import annotations

import time

import pytest

from repro.simt.fastpath import FastEvaluator

from .guard import GuardFailure, check_thresholds, load_thresholds
from .suite import bench_micro


def _micro_results(rows):
    return {"micro": rows}


def _slow_fast_dispatch(monkeypatch, seconds):
    """Sleep ``seconds`` per block step under the fast executor only (the
    guard reads fast-over-reference ratios), without touching semantics."""
    real_init = FastEvaluator.__init__

    def slowed_init(self, *args):
        real_init(self, *args)
        execute = self.execute

        def slowed(block, mask, resume):
            time.sleep(seconds)
            return execute(block, mask, resume)

        self.execute = slowed

    monkeypatch.setattr(FastEvaluator, "__init__", slowed_init)


def test_guard_passes_on_healthy_measurement():
    rows = bench_micro(repeats=1, names=["int_alu"])
    thresholds = {"micro_min_speedup": {"int_alu":
                  load_thresholds()["micro_min_speedup"]["int_alu"]}}
    # Generous slack: this asserts the healthy fast path clears the bar,
    # not that this machine is as fast as the one that set the numbers.
    failures = check_thresholds(_micro_results(rows), thresholds, slack=0.5)
    assert failures == []


def test_guard_trips_on_injected_dispatch_slowdown(monkeypatch):
    # 1ms per executed block ≈ hundreds of ms over the int_alu loop —
    # far below any plausible threshold, without touching semantics.
    _slow_fast_dispatch(monkeypatch, 0.001)
    rows = bench_micro(repeats=1, names=["int_alu"])
    assert rows[0]["speedup"] < 1.0, \
        "injected delay had no effect; does the driver still call execute?"
    failures = check_thresholds(_micro_results(rows), load_thresholds(),
                                slack=0.3)
    assert any(f.startswith("micro:int_alu") for f in failures)


def test_injected_slowdown_does_not_change_results(monkeypatch):
    baseline = bench_micro(repeats=1, names=["phi_loop"])[0]
    _slow_fast_dispatch(monkeypatch, 0.0005)
    slowed = bench_micro(repeats=1, names=["phi_loop"])[0]
    # bench_micro asserts output/metrics parity internally; instruction
    # counts surviving unchanged shows the injection is timing-only.
    assert (slowed["executors"]["fast"]["instructions"]
            == baseline["executors"]["fast"]["instructions"])


def test_check_thresholds_missing_measurement():
    failures = check_thresholds(
        _micro_results([]), {"micro_min_speedup": {"int_alu": 2.0}})
    assert failures == ["micro:int_alu: no measurement in results"]


def test_check_thresholds_macro_guards():
    results = {
        "micro": [],
        "macro": {
            "figure8": {"metrics_identical": False,
                        "simulate_speedup": 1.2},
            "difftest": {"speedup": 0.5},
        },
    }
    thresholds = {"macro": {"figure8_simulate_min_speedup": 3.0,
                            "difftest_min_speedup": 0.8}}
    failures = check_thresholds(results, thresholds)
    assert len(failures) == 3
    assert any("disagree on metrics" in f for f in failures)
    assert any(f.startswith("macro:figure8: simulate") for f in failures)
    assert any(f.startswith("macro:difftest") for f in failures)


def test_check_thresholds_warm_cache_guards():
    figure8 = {"metrics_identical": True, "simulate_speedup": 6.0,
               "warm_ir_identical": False, "end_to_end_speedup_warm": 1.1}
    results = {"micro": [], "macro": {"figure8": figure8}}
    thresholds = {"macro": {"figure8_warm_end_to_end_min_speedup": 3.0}}
    failures = check_thresholds(results, thresholds)
    assert any("warm cache replay changed IR" in f for f in failures)
    assert any("warm end-to-end speedup 1.10x" in f for f in failures)

    figure8.update(warm_ir_identical=True, end_to_end_speedup_warm=7.5)
    assert check_thresholds(results, thresholds) == []


def test_check_thresholds_slack_scales_the_bar():
    results = _micro_results(
        [{"workload": "int_alu", "speedup": 1.9, "executors": {}}])
    thresholds = {"micro_min_speedup": {"int_alu": 2.5}}
    assert check_thresholds(results, thresholds, slack=0.0) != []
    assert check_thresholds(results, thresholds, slack=0.3) == []


def test_guard_failure_formats_every_miss():
    with pytest.raises(GuardFailure) as excinfo:
        raise GuardFailure(["micro:a: slow", "macro:b: slower"])
    assert "2 perf threshold(s) missed" in str(excinfo.value)
    assert "micro:a: slow" in str(excinfo.value)
