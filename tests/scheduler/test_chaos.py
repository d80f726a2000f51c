"""Fault injection for the scheduler worker pool.

``repro.scheduler.worker._TEST_WORKER_CHAOS`` makes a worker crash,
hang past its timeout, or return a corrupt payload on chosen task
indices.  These
tests assert the parent's recovery contracts: jobs complete via retry,
partial metrics deltas merge, and a replacement worker reuses the warm
disk compile cache.  ``TestMemoQuarantine`` covers the latent
crash-retry gap: a task that poisons a ``Function.memo`` entry — a
lowered program or the analysis bundle — and then fails must not leak
it into its own retry or any later task.
"""

import os
import time

import pytest

from repro.analysis import cached_divergence
from repro.evaluation import SweepTask, run_task
from repro.evaluation.runner import compile_baseline
from repro.kernels import build_bitonic, build_sb1
from repro.obs import current_registry
from repro.scheduler import CHAOS_MODES, Scheduler, Task
from repro.scheduler import worker as scheduler_worker
from tests.support import run_sweep_tasks


@pytest.fixture(autouse=True)
def _clean_chaos():
    scheduler_worker._TEST_WORKER_CHAOS.clear()
    yield
    scheduler_worker._TEST_WORKER_CHAOS.clear()


def _arm(index, mode):
    assert mode in CHAOS_MODES
    scheduler_worker._TEST_WORKER_CHAOS[index] = mode


# ---- module-level task functions -------------------------------------------


def describe(payload, ctx):
    return {"pid": os.getpid(), "attempt": ctx.attempt}


def count_ok(payload, ctx):
    current_registry().counter("test_chaos_work_total").inc()
    return payload


def _counter_total(snapshot, name):
    family = (snapshot or {}).get("counters", {}).get(name)
    if not family:
        return 0
    return sum(family["samples"].values())


class TestChaosModes:
    def test_exit_crashes_then_retry_completes(self):
        _arm(0, "exit")
        with Scheduler(workers=1) as sched:
            outcomes = sched.run([Task(describe, i) for i in range(3)])
            snap = sched.registry.snapshot()
        assert all(o.ok for o in outcomes)
        assert outcomes[0].attempts == 2
        assert outcomes[1].attempts == 1 and outcomes[2].attempts == 1
        assert _counter_total(snap, "repro_sched_tasks_retried_total") == 1
        assert _counter_total(snap, "repro_sched_workers_respawned_total") >= 1

    def test_exit_exhausting_retries_reports_crash(self):
        _arm(0, "exit")
        with Scheduler(workers=1, retries=0) as sched:
            (outcome,) = sched.run([Task(describe, 0)])
        assert not outcome.ok and outcome.crashed
        assert "died without reporting" in outcome.error
        assert f"exit code {scheduler_worker._CHAOS_EXIT_CODE}" \
            in outcome.error

    def test_exit_after_loses_completed_work(self):
        """exit-after runs the task, then dies before reporting — the
        parent must treat it as a crash and retry."""
        _arm(0, "exit-after")
        with Scheduler(workers=1) as sched:
            (outcome,) = sched.run([Task(describe, 0)])
        assert outcome.ok and outcome.attempts == 2

    def test_raise_retries_in_same_worker(self):
        _arm(0, "raise")
        with Scheduler(workers=1) as sched:
            outcomes = sched.run([Task(describe, i) for i in range(2)])
        assert all(o.ok for o in outcomes)
        assert outcomes[0].attempts == 2
        # an in-band failure keeps the worker alive
        assert outcomes[0].value["pid"] == outcomes[1].value["pid"]

    def test_hang_trips_timeout(self):
        _arm(0, "hang")
        start = time.monotonic()
        with Scheduler(workers=1, timeout=1.0) as sched:
            (outcome,) = sched.run([Task(describe, 0)])
        assert outcome.ok and outcome.attempts == 2
        assert time.monotonic() - start < 30

    def test_corrupt_payload_is_typed_failure(self):
        _arm(0, "corrupt")
        with Scheduler(workers=1, retries=0) as sched:
            outcomes = sched.run([Task(describe, i) for i in range(2)])
        assert not outcomes[0].ok
        assert "corrupt payload" in outcomes[0].error
        # the worker itself survives a corrupt send
        assert outcomes[1].ok

    def test_corrupt_payload_retries(self):
        _arm(0, "corrupt")
        with Scheduler(workers=1) as sched:
            (outcome,) = sched.run([Task(describe, 0)])
        assert outcome.ok and outcome.attempts == 2

    def test_partial_metrics_merge_across_crash(self):
        """Deltas from tasks that completed before a crash still fold
        into the pool registry."""
        _arm(1, "exit")
        with Scheduler(workers=2) as sched:
            outcomes = sched.run(
                [Task(count_ok, i, metrics=True) for i in range(4)])
        assert all(o.ok for o in outcomes)
        merged = {}
        total = 0
        for o in outcomes:
            total += _counter_total(o.metrics_delta, "test_chaos_work_total")
        assert total == 4, merged


class TestCrashCacheReuse:
    def test_replacement_worker_reuses_disk_cache(self, tmp_path):
        """A mid-run crash must not cost the warm compile cache: the
        replacement worker (fresh process) replays from disk."""
        cache_dir = str(tmp_path / "cache")
        tasks = [
            SweepTask(kernel="SB1", builder=build_sb1, block_size=16,
                      grid_dim=1, seed=7, cache_dir=cache_dir)
            for _ in range(2)
        ]
        # task 1 runs to completion — warming the disk cache — then its
        # worker dies before reporting; the retry lands in a
        # replacement process and must replay from the warm cache.
        _arm(1, "exit-after")
        outcomes = run_sweep_tasks(tasks, workers=2)
        assert all(o.ok for o in outcomes)
        assert outcomes[1].attempts == 2
        replayed = outcomes[1].value
        assert replayed.compile_cache["disk_hits"] >= 1
        # and the replayed comparison matches a clean serial run
        serial = run_task(tasks[0])
        assert replayed.comparison.baseline.cycles \
            == serial.comparison.baseline.cycles
        assert replayed.comparison.melded.cycles \
            == serial.comparison.melded.cycles


# ---- memo quarantine ---------------------------------------------------------

# a worker-process-lifetime kernel case, so a poisoned memo entry would
# survive across tasks if the scheduler did not quarantine on failure
_MEMO_STATE = {}


def _memo_case():
    case = _MEMO_STATE.get("case")
    if case is None:
        from repro.evaluation.runner import compile_baseline
        case = build_sb1(block_size=16, grid_dim=1)
        compile_baseline(case)
        _MEMO_STATE["case"] = case
    return case


def _case_cycles(case, seed=7):
    from repro.evaluation.runner import execute
    return execute(case, seed=seed).metrics.cycles


def poison_memo(case):
    """Seed a *wrong* lowered program for ``case.function`` — the
    fingerprint (keyed on object identities) cannot detect it."""
    from repro.evaluation.runner import compile_baseline
    from repro.simt import DEFAULT_CONFIG
    from repro.simt.lowering import get_program, seed_program
    other = build_bitonic(block_size=16, grid_dim=1)
    compile_baseline(other)
    seed_program(case.function, DEFAULT_CONFIG,
                 get_program(other.function, DEFAULT_CONFIG))


def poison_then_fail(payload, ctx):
    """Attempt 1: compute, poison the memo mid-'lowering', crash.
    Attempt 2 (same worker): recompute — correct iff quarantined."""
    case = _memo_case()
    cycles = _case_cycles(case)
    if ctx.attempt == 1:
        poison_memo(case)
        raise RuntimeError("crashed mid-lowering")
    return cycles


def run_memo_case(payload, ctx):
    return _case_cycles(_memo_case())


class TestMemoQuarantine:
    def test_poison_is_observable_without_quarantine(self):
        """Negative control: the poison this suite injects really does
        change behavior if nothing clears the memo."""
        from repro.evaluation.runner import compile_baseline
        from repro.ir import retire_memos
        case = build_sb1(block_size=16, grid_dim=1)
        compile_baseline(case)
        clean = _case_cycles(case)
        poison_memo(case)
        try:
            poisoned = _case_cycles(case)
        except Exception:
            poisoned = None  # wrong program may trap outright
        assert poisoned != clean
        retire_memos()
        assert _case_cycles(case) == clean

    def test_retry_after_poisoning_failure_is_clean(self):
        """The retry of a task that crashed mid-lowering must re-lower
        from IR, not replay the poisoned entry (same worker)."""
        expected = None
        case = build_sb1(block_size=16, grid_dim=1)
        from repro.evaluation.runner import compile_baseline
        compile_baseline(case)
        expected = _case_cycles(case)
        with Scheduler(workers=1) as sched:
            (outcome,) = sched.run([Task(poison_then_fail, None)])
        assert outcome.ok and outcome.attempts == 2
        assert outcome.value == expected

    def test_later_task_in_same_worker_is_clean(self):
        expected = None
        case = build_sb1(block_size=16, grid_dim=1)
        from repro.evaluation.runner import compile_baseline
        compile_baseline(case)
        expected = _case_cycles(case)
        with Scheduler(workers=1, retries=0) as sched:
            outcomes = sched.run([Task(poison_then_fail, None),
                                  Task(run_memo_case, None)])
        assert not outcomes[0].ok  # retries=0: the poisoning crash lands
        assert outcomes[1].ok and outcomes[1].value == expected

    def test_inline_scheduler_quarantines_too(self):
        from repro.evaluation.runner import compile_baseline
        case = build_sb1(block_size=16, grid_dim=1)
        compile_baseline(case)
        expected = _case_cycles(case)
        _MEMO_STATE.clear()
        try:
            with Scheduler(workers=0) as sched:
                (outcome,) = sched.run([Task(poison_then_fail, None)])
            assert outcome.ok and outcome.attempts == 2
            assert outcome.value == expected
        finally:
            _MEMO_STATE.clear()

    def test_stale_analyses_are_observable_without_quarantine(self):
        """Negative control for the analysis half: stale facts behind a
        matching fingerprint really do reach the memo's readers
        (``repro.analyze``, lint)."""
        case = build_sb1(block_size=16, grid_dim=1)
        compile_baseline(case)
        plant_stale_analyses(case.function)
        assert not cached_divergence(case.function).divergent_branch_blocks

    @pytest.mark.parametrize("workers", [0, 1])
    def test_retry_after_planting_stale_analyses_is_clean(self, workers):
        """The retry of a task that planted stale divergence facts on a
        worker-lifetime function and crashed analyses the function
        afresh — inline and in a pooled worker alike."""
        _ANALYSIS_STATE.clear()
        try:
            with Scheduler(workers=workers) as sched:
                (outcome,) = sched.run([Task(plant_then_fail, None)])
            assert outcome.ok and outcome.attempts == 2
            assert outcome.value == 4
        finally:
            _ANALYSIS_STATE.clear()


# a worker-lifetime SB1 after -O3, analysed by the attempt that
# succeeds
_ANALYSIS_STATE = {}


def plant_stale_analyses(function):
    """Memoize divergence facts under which nothing diverges, behind the
    fingerprint of the function's current CFG (which it cannot see)."""
    from repro.analysis import DivergenceInfo, function_analyses
    function_analyses(function).divergence = DivergenceInfo(
        function, set(), set())


def plant_then_fail(payload, ctx):
    """Attempt 1: plant stale analyses, crash.  Attempt 2 (same process):
    read the memo — 4 divergent branches iff the plant was retired."""
    case = _ANALYSIS_STATE.get("case")
    if case is None:
        case = _ANALYSIS_STATE["case"] = build_sb1(block_size=16, grid_dim=1)
        compile_baseline(case)
    if ctx.attempt == 1:
        plant_stale_analyses(case.function)
        raise RuntimeError("crashed after planting analyses")
    return len(cached_divergence(case.function).divergent_branch_blocks)
