"""Tests for the parallel sweep engine, the compile cache and the
structured sweep trace."""

import json
import time

import pytest

from repro.evaluation import (
    SWEEP_TRACE_SCHEMA,
    Comparison,
    CompileCache,
    CompileResult,
    ParallelRunner,
    SweepError,
    SweepTask,
    SweepTraceCollector,
    compare,
    run_sweep,
    run_task,
)
from repro.evaluation.reporting import _table
from repro.kernels import build_bitonic, build_sb1
from repro.simt import Metrics


# ---- builders for fault-injection (module-level: must be importable in
# ---- worker processes regardless of the start method) -----------------------


def hanging_builder(block_size=16, grid_dim=1):
    time.sleep(60)


def crashing_builder(block_size=16, grid_dim=1):
    raise RuntimeError("injected compile failure")


SEED = 99


def _row_key(row):
    return (row.kernel, row.block_size, row.speedup, row.melds,
            row.baseline_cycles, row.cfm_cycles)


class TestCompileCache:
    def test_second_arm_hits_cache(self):
        cache = CompileCache()
        comparison = compare(build_sb1, block_size=16, grid_dim=1,
                             seed=SEED, cache=cache)
        # Cold: baseline misses "o3" and populates it; the CFM arm
        # misses its full-pipeline key, then replays the shared O3 run.
        assert cache.counters()["misses"] == 2
        assert cache.counters()["hits"] == 1
        assert not comparison.baseline_compile.o3_cached
        assert comparison.cfm_compile.o3_cached
        assert not comparison.cfm_compile.cfm_cached

    def test_warm_comparison_replays_both_arms(self):
        cache = CompileCache()
        cold = compare(build_sb1, block_size=16, grid_dim=1,
                       seed=SEED, cache=cache)
        warm = compare(build_sb1, block_size=16, grid_dim=1,
                       seed=SEED, cache=cache)
        # Warm: both arms replay outright — the CFM arm from the
        # full-pipeline entry, no pass runs at all.
        counters = cache.counters()
        assert counters["hits"] == 3 and counters["misses"] == 2
        assert warm.baseline_compile.o3_cached
        assert warm.cfm_compile.cfm_cached
        assert warm.baseline.cycles == cold.baseline.cycles
        assert warm.melded.cycles == cold.melded.cycles
        assert warm.melds == cold.melds
        # Replayed stats/timings report the original run's numbers.
        assert warm.cfm_compile.o3_seconds == cold.cfm_compile.o3_seconds
        assert warm.cfm_compile.cfm_seconds == cold.cfm_compile.cfm_seconds
        assert all(t.cached for t in warm.cfm_compile.pass_timings)

    def test_cached_compile_is_observably_identical(self):
        plain = compare(build_sb1, block_size=16, grid_dim=1, seed=SEED)
        cached = compare(build_sb1, block_size=16, grid_dim=1, seed=SEED,
                         cache=CompileCache())
        assert plain.baseline.cycles == cached.baseline.cycles
        assert plain.melded.cycles == cached.melded.cycles
        assert plain.melds == cached.melds

    def test_cache_replays_reported_o3_seconds(self):
        cache = CompileCache()
        comparison = compare(build_sb1, block_size=16, grid_dim=1,
                             seed=SEED, cache=cache)
        # The CFM arm reports the original run's cost, not ~0.
        assert comparison.cfm_compile.o3_seconds == \
            comparison.baseline_compile.o3_seconds


class TestComparisonProperties:
    def test_speedup_and_melds(self):
        baseline = Metrics(cycles=2000)
        melded = Metrics(cycles=1000)
        comparison = Comparison(
            name="X", block_size=32, baseline=baseline, melded=melded,
            baseline_compile=CompileResult(o3_seconds=0.1),
            cfm_compile=CompileResult(o3_seconds=0.1, cfm_seconds=0.2))
        assert comparison.speedup == 2.0
        assert comparison.melds == 0  # no CFM stats recorded

    def test_melds_counts_records(self):
        result = compare(build_sb1, block_size=16, grid_dim=1, seed=SEED)
        assert result.melds == len(result.cfm_compile.cfm_stats.melds)


class TestParallelRunner:
    def test_parallel_matches_serial(self):
        builders = {"SB1": build_sb1, "BIT": build_bitonic}
        sizes = {"SB1": [16, 32], "BIT": [16]}
        serial = run_sweep(builders, sizes, grid_dim=1, seed=SEED, workers=1)
        parallel = run_sweep(builders, sizes, grid_dim=1, seed=SEED, workers=2)
        assert [_row_key(r) for r in serial] == [_row_key(r) for r in parallel]

    def test_results_are_ordered_by_task_index(self):
        tasks = [SweepTask(kernel="SB1", builder=build_sb1, block_size=bs,
                           grid_dim=1, seed=SEED) for bs in (16, 32, 64)]
        results = ParallelRunner(workers=3).run(tasks)
        assert [r.index for r in results] == [0, 1, 2]
        assert [r.block_size for r in results] == [16, 32, 64]
        assert all(r.ok for r in results)

    def test_timeout_terminates_and_retries_once(self):
        tasks = [SweepTask(kernel="HANG", builder=hanging_builder,
                           block_size=16, grid_dim=1, seed=SEED)]
        start = time.monotonic()
        results = ParallelRunner(workers=2, timeout=0.5).run(tasks)
        elapsed = time.monotonic() - start
        assert elapsed < 30  # nowhere near the 60s sleep
        (result,) = results
        assert not result.ok
        assert result.attempts == 2  # retried once, then reported
        assert "timed out" in result.error

    def test_crash_is_reported_not_raised(self):
        tasks = [
            SweepTask(kernel="SB1", builder=build_sb1, block_size=16,
                      grid_dim=1, seed=SEED),
            SweepTask(kernel="BOOM", builder=crashing_builder,
                      block_size=16, grid_dim=1, seed=SEED),
        ]
        results = ParallelRunner(workers=2).run(tasks)
        assert results[0].ok
        assert not results[1].ok
        assert "injected compile failure" in results[1].error
        assert results[1].attempts == 2

    def test_run_sweep_raises_on_failure(self):
        with pytest.raises(SweepError, match="injected compile failure"):
            run_sweep({"BOOM": crashing_builder}, {"BOOM": [16]},
                      grid_dim=1, seed=SEED)

    def test_empty_task_list(self):
        assert ParallelRunner(workers=4).run([]) == []


class TestSweepTrace:
    def test_trace_schema(self, tmp_path):
        task = SweepTask(kernel="SB1", builder=build_sb1, block_size=16,
                         grid_dim=1, seed=SEED)
        result = run_task(task)
        collector = SweepTraceCollector(workers=1)
        collector.record("figure7", [result])
        path = tmp_path / "sweep_trace.json"
        collector.write(str(path))

        payload = json.loads(path.read_text())
        assert payload["schema"] == SWEEP_TRACE_SCHEMA
        assert payload["workers"] == 1
        assert payload["task_count"] == 1
        (entry,) = payload["sections"]["figure7"]
        assert entry["kernel"] == "SB1" and entry["block_size"] == 16
        assert entry["ok"] and entry["attempts"] == 1
        assert entry["speedup"] > 0 and entry["melds"] > 0
        # the task's CompileCache.counters(), unchanged (no disk tier)
        assert entry["compile_cache"] == {
            "hits": 1, "disk_hits": 0, "misses": 2, "evictions": 0,
            "writes": 0, "write_errors": 0}
        # Per-pass events carry timing + IR size stats for both arms.
        for arm in ("baseline", "cfm"):
            passes = entry["compile"][arm]["passes"]
            assert passes, arm
            for event in passes:
                assert {"pass", "seconds", "changed"} <= set(event)
                assert event["blocks_before"] >= 1
                assert event["instructions_after"] >= 1
        assert entry["compile"]["cfm"]["o3_cached"] is True
        # Metrics round-trip through their serialized form.
        metrics = Metrics.from_dict(entry["baseline_metrics"])
        assert metrics.as_dict() == entry["baseline_metrics"]

    def test_failed_task_entry(self):
        tasks = [SweepTask(kernel="BOOM", builder=crashing_builder,
                           block_size=16, grid_dim=1, seed=SEED)]
        (result,) = ParallelRunner(workers=2).run(tasks)
        collector = SweepTraceCollector()
        collector.record("sweep", [result])
        (entry,) = collector.payload()["sections"]["sweep"]
        assert entry["ok"] is False
        assert "injected compile failure" in entry["error"]
        json.dumps(collector.payload())  # serializable even on failure


class TestTableFormatting:
    def test_table_with_empty_rows(self):
        text = _table(["kernel", "speedup"], [])
        lines = text.splitlines()
        assert lines[0].split() == ["kernel", "speedup"]
        assert len(lines) == 2  # header + rule, no row lines

    def test_table_pads_to_widest_cell(self):
        text = _table(["k", "v"], [["LONGNAME", "1"]])
        assert "LONGNAME" in text
        header = text.splitlines()[0]
        assert header.startswith("k       ")
