"""Cross-process metrics aggregation through the sweep engine.

The contract under test: an N-worker sweep's merged metrics snapshot is
**bit-identical** to the serial run's for everything deterministic
(counter values, histogram bucket counts and sums).  Wall-clock-valued
metrics (``*_seconds`` histograms, ``*_per_second`` / ``*utilization``
gauges) are inherently nondeterministic in any mode and are stripped
before comparison.

Pool-lifecycle families (``repro_sched_worker_*``,
``repro_sched_workers_*``) reach the sweep registry with the scheduler's
task counts, and an inline run cannot have them: the serial-vs-worker
comparisons skip those two prefixes and nothing else.

Also covered: the worker-crash path (partial delta + ``tasks_crashed``),
the live progress callback, and ``Metrics.merge``-style rejection of
mismatched histogram buckets across deltas.
"""

import json
import time

import pytest

from repro.evaluation import run_sweep
from repro.evaluation.parallel import SweepTask, run_task
from repro.kernels import build_sb1, build_sb2
from repro.obs import MetricsRegistry, current_registry, use_registry
from repro.scheduler import Scheduler, Task
from tests.support import run_sweep_tasks

TASKS = [
    SweepTask(kernel="SB1", builder=build_sb1, block_size=64),
    SweepTask(kernel="SB2", builder=build_sb2, block_size=64),
    SweepTask(kernel="SB1", builder=build_sb1, block_size=32),
]

#: metric-name fragments whose values depend on wall time
TIME_DEPENDENT = ("seconds", "per_second", "utilization")


def strip_time_dependent(snapshot):
    """Drop wall-clock-valued metrics; everything left is deterministic."""
    snapshot = json.loads(json.dumps(snapshot))  # deep copy
    for kind in ("counters", "gauges", "histograms"):
        snapshot[kind] = {
            name: data for name, data in snapshot[kind].items()
            if not any(fragment in name for fragment in TIME_DEPENDENT)}
    return snapshot


#: families only a worker pool has (worker lifetime, respawn, recycle)
POOL_ONLY = ("repro_sched_worker_", "repro_sched_workers_")


def without_pool_families(snapshot):
    for kind in ("counters", "gauges", "histograms"):
        snapshot[kind] = {name: data for name, data in snapshot[kind].items()
                          if not name.startswith(POOL_ONLY)}
    return snapshot


def run_and_snapshot(workers, tasks=TASKS):
    registry = MetricsRegistry()
    with use_registry(registry):
        outcomes = run_sweep_tasks(tasks, workers=workers)
    return outcomes, registry.snapshot()


class TestSerialParallelIdentity:
    def test_two_worker_snapshot_bit_identical_to_serial(self):
        serial_outcomes, serial = run_and_snapshot(workers=1)
        parallel_outcomes, parallel = run_and_snapshot(workers=2)
        assert all(r.ok for r in serial_outcomes)
        assert all(r.ok for r in parallel_outcomes)
        assert strip_time_dependent(serial) == without_pool_families(
            strip_time_dependent(parallel))

    def test_three_worker_snapshot_bit_identical_to_serial(self):
        _, serial = run_and_snapshot(workers=1)
        _, parallel = run_and_snapshot(workers=3)
        assert strip_time_dependent(serial) == without_pool_families(
            strip_time_dependent(parallel))

    def test_deterministic_layers_are_nonempty(self):
        """The identity assertion must not pass vacuously."""
        _, snapshot = run_and_snapshot(workers=1)
        stripped = strip_time_dependent(snapshot)
        assert stripped["counters"], "expected counters to survive stripping"
        assert stripped["histograms"], "expected occupancy/rate histograms"
        occupancy = stripped["histograms"]["repro_runtime_active_lanes"]
        assert any(s["count"] > 0 for s in occupancy["samples"].values())

    def test_task_counters_reflect_outcomes(self):
        outcomes, snapshot = run_and_snapshot(workers=2)
        assert _counter(snapshot, "repro_sched_tasks_completed_total") \
            == len(outcomes)
        assert _counter(snapshot, "repro_sched_tasks_crashed_total") == 0
        seconds = snapshot["histograms"]["repro_sched_task_seconds"]
        assert sum(s["count"] for s in seconds["samples"].values()) \
            == len(outcomes)


def _boom(**kwargs):
    raise RuntimeError("builder exploded")


def _flush_then_boom(**kwargs):
    current_registry().counter("test_flushed_total").inc(3)
    raise RuntimeError("builder exploded")


def _socket_timeout(**kwargs):
    raise TimeoutError("upstream socket timed out")


def _hang(**kwargs):
    time.sleep(3600)


def _counter(snapshot, name):
    """A counter's total; a family never incremented is absent, i.e. 0."""
    family = snapshot["counters"].get(name, {"samples": {}})
    return sum(family["samples"].values())


class TestCrashPath:
    def test_crashed_task_reports_partial_delta_and_counter(self):
        tasks = [
            SweepTask(kernel="SB1", builder=build_sb1, block_size=32),
            SweepTask(kernel="BOOM", builder=_boom, block_size=32),
        ]
        registry = MetricsRegistry()
        with use_registry(registry):
            outcomes = run_sweep_tasks(tasks, workers=2, retries=0)
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert outcomes[1].crashed
        # The partial delta still arrived (schema-valid, merged cleanly).
        assert outcomes[1].metrics_delta is not None
        assert outcomes[1].metrics_delta["schema"].startswith(
            "repro.obs.metrics/")
        snapshot = registry.snapshot()
        assert _counter(snapshot, "repro_sched_tasks_crashed_total") == 1
        assert _counter(snapshot, "repro_sched_tasks_failed_total") == 1

    def test_serial_crash_path_matches(self):
        tasks = [SweepTask(kernel="BOOM", builder=_boom, block_size=32)]
        registry = MetricsRegistry()
        with use_registry(registry):
            outcomes = run_sweep_tasks(tasks, workers=1, retries=0)
        assert outcomes[0].crashed
        assert outcomes[0].metrics_delta is not None
        assert _counter(registry.snapshot(),
                        "repro_sched_tasks_crashed_total") == 1

    def test_failed_outcome_holds_partial_delta(self):
        """The attempt runner snapshots the registry it installed: what a
        sweep task flushed before raising rides on the failed outcome."""
        task = SweepTask(kernel="BOOM", builder=_flush_then_boom,
                         block_size=32)
        with Scheduler(workers=0, retries=0) as scheduler:
            (outcome,) = scheduler.run([Task(run_task, task, metrics=True)])
        assert not outcome.ok and outcome.crashed
        flushed = outcome.metrics_delta["counters"]["test_flushed_total"]
        assert sum(flushed["samples"].values()) == 3


class TestTimedOutIsAFlag:
    """``repro_sched_tasks_timed_out_total`` counts the scheduler's
    ``timed_out`` flag, never the words of an error message."""

    def test_task_raising_timeout_error_is_a_crash_only(self):
        tasks = [SweepTask(kernel="NET", builder=_socket_timeout,
                           block_size=32)]
        for workers in (1, 2):
            registry = MetricsRegistry()
            with use_registry(registry):
                (outcome,) = run_sweep_tasks(tasks, workers=workers,
                                             retries=0)
            assert "timed out" in outcome.error
            snapshot = registry.snapshot()
            assert _counter(snapshot, "repro_sched_tasks_crashed_total") == 1
            assert _counter(snapshot, "repro_sched_tasks_timed_out_total") == 0
            assert outcome.crashed and not outcome.timed_out

    def test_task_killed_at_the_timeout_is_a_timeout_only(self):
        tasks = [SweepTask(kernel="HANG", builder=_hang, block_size=32)]
        registry = MetricsRegistry()
        with use_registry(registry):
            (outcome,) = run_sweep_tasks(tasks, workers=2, timeout=0.5,
                                         retries=0)
        snapshot = registry.snapshot()
        assert _counter(snapshot, "repro_sched_tasks_timed_out_total") == 1
        assert _counter(snapshot, "repro_sched_tasks_crashed_total") == 0
        assert outcome.timed_out and not outcome.crashed


class TestProgressCallback:
    SIZES = {"SB1": [64, 32], "SB2": [64]}

    def test_callback_sees_every_terminal_result(self):
        seen = []

        def progress(done, total, task, outcome):
            seen.append((done, total, task.kernel, outcome.ok))

        run_sweep({"SB1": build_sb1, "SB2": build_sb2}, self.SIZES,
                  workers=1, progress=progress)
        assert [entry[0] for entry in seen] == [1, 2, 3]
        assert all(entry[1] == 3 for entry in seen)
        assert [entry[2] for entry in seen] == ["SB1", "SB1", "SB2"]
        assert all(entry[3] for entry in seen)

    def test_parallel_callback_counts_monotonically(self):
        seen = []
        run_sweep({"SB1": build_sb1, "SB2": build_sb2}, self.SIZES,
                  workers=2, progress=lambda d, t, *_: seen.append((d, t)))
        assert [entry[0] for entry in seen] == [1, 2, 3]


class TestDeltaBucketMismatch:
    def test_mismatched_occupancy_buckets_reject_like_metrics_merge(self):
        """A delta collected at a different warp width cannot silently
        fold into a counted registry — the same rule Metrics.merge
        applies to warp_size."""
        narrow = MetricsRegistry()
        narrow.histogram("repro_runtime_active_lanes",
                         buckets=(1.0, 2.0, 3.0, 4.0)).observe(2)
        wide = MetricsRegistry()
        wide.histogram("repro_runtime_active_lanes",
                       buckets=(4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0,
                                32.0)).observe(16)
        with pytest.raises(ValueError, match="cannot merge histogram"):
            narrow.merge(wide.snapshot())

    def test_fresh_registry_adopts_delta_buckets(self):
        registry = MetricsRegistry()
        wide = MetricsRegistry()
        wide.histogram("repro_runtime_active_lanes",
                       buckets=(8.0, 16.0)).observe(10)
        registry.merge(wide.snapshot())
        family = registry.histogram("repro_runtime_active_lanes",
                                    buckets=(8.0, 16.0))
        assert family.total() == 1
