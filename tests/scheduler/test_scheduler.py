"""Tests for the generic task scheduler (``repro.scheduler``):

lifecycle, ordering, retry/timeout/crash contracts, worker recycling,
metrics folding, and graceful shutdown.  Fault injection lives in
``test_chaos.py``; the randomized soak harness in ``test_soak.py``.
"""

import os
import threading
import time

import pytest

from repro.obs import current_registry, use_registry
from repro.scheduler import (
    DEFAULT_RETRIES,
    NO_RECYCLE,
    RecyclePolicy,
    Scheduler,
    SchedulerClosed,
    Task,
    TaskContext,
    TaskOutcome,
    rss_bytes,
)


# ---- module-level task functions (cross the fork boundary) -----------------


def double(payload, ctx):
    return payload * 2


def describe(payload, ctx):
    return {"pid": os.getpid(), "index": ctx.index, "attempt": ctx.attempt,
            "worker": ctx.worker}


def fail_always(payload, ctx):
    raise ValueError(f"nope {payload}")


def fail_first_attempt(payload, ctx):
    if ctx.attempt == 1:
        raise RuntimeError("transient")
    return payload


def sleep_for(payload, ctx):
    time.sleep(payload)
    return "slept"


def count_then_fail(payload, ctx):
    current_registry().counter("test_partial_work_total").inc(payload)
    raise RuntimeError("failed after partial work")


def count_ok(payload, ctx):
    current_registry().counter("test_work_total").inc(payload)
    return payload


def _counter_total(snapshot, name):
    family = snapshot.get("counters", {}).get(name)
    if not family:
        return 0
    return sum(family["samples"].values())


class TestInline:
    """workers=0 runs every task synchronously in-process."""

    def test_run_returns_in_order(self):
        with Scheduler(workers=0) as sched:
            outcomes = sched.run([Task(double, i) for i in range(5)])
        assert [o.value for o in outcomes] == [0, 2, 4, 6, 8]
        assert [o.index for o in outcomes] == list(range(5))
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_inline_runs_in_this_process(self):
        with Scheduler(workers=0) as sched:
            (outcome,) = sched.run([Task(describe, None)])
        assert outcome.value["pid"] == os.getpid()

    def test_error_format_has_no_traceback(self):
        with Scheduler(workers=0) as sched:
            (outcome,) = sched.run([Task(fail_always, 7)])
        assert not outcome.ok
        assert outcome.error == "ValueError: nope 7"
        assert outcome.crashed
        assert outcome.attempts == 1 + DEFAULT_RETRIES

    def test_retry_succeeds_on_second_attempt(self):
        with Scheduler(workers=0) as sched:
            (outcome,) = sched.run([Task(fail_first_attempt, "v")])
        assert outcome.ok and outcome.value == "v"
        assert outcome.attempts == 2

    def test_metrics_delta_collected(self):
        with Scheduler(workers=0) as sched:
            (outcome,) = sched.run([Task(count_ok, 3, metrics=True)])
        assert _counter_total(outcome.metrics_delta, "test_work_total") == 3

    def test_submit_after_close_raises(self):
        sched = Scheduler(workers=0)
        sched.start()
        sched.close()
        with pytest.raises(SchedulerClosed):
            sched.submit(double, 1)


class TestPool:
    def test_run_returns_submission_order(self):
        with Scheduler(workers=2) as sched:
            outcomes = sched.run([Task(double, i) for i in range(8)])
        assert [o.value for o in outcomes] == [i * 2 for i in range(8)]
        assert all(o.ok for o in outcomes)
        assert all(o.worker >= 0 for o in outcomes)

    def test_tasks_run_out_of_process(self):
        with Scheduler(workers=2) as sched:
            outcomes = sched.run([Task(describe, None) for _ in range(4)])
        pids = {o.value["pid"] for o in outcomes}
        assert os.getpid() not in pids

    def test_worker_error_carries_traceback(self):
        with Scheduler(workers=1) as sched:
            (outcome,) = sched.run([Task(fail_always, 1)])
        assert not outcome.ok and outcome.crashed
        assert outcome.error.startswith("ValueError: nope 1")
        assert "Traceback" in outcome.error
        assert outcome.attempts == 1 + DEFAULT_RETRIES

    def test_retry_in_worker(self):
        with Scheduler(workers=1) as sched:
            (outcome,) = sched.run([Task(fail_first_attempt, 9)])
        assert outcome.ok and outcome.value == 9 and outcome.attempts == 2

    def test_timeout_contract(self):
        with Scheduler(workers=1, timeout=0.5, retries=1) as sched:
            (outcome,) = sched.run([Task(sleep_for, 30)])
        assert not outcome.ok
        assert outcome.error == "timed out after 0.5s"
        assert outcome.timed_out and not outcome.crashed
        assert outcome.attempts == 2

    def test_partial_metrics_survive_failure(self):
        """A task that did real work before failing still ships its
        metrics delta (satellite: partial telemetry merge)."""
        with Scheduler(workers=1) as sched:
            (outcome,) = sched.run([Task(count_then_fail, 5, metrics=True)])
        assert not outcome.ok
        assert _counter_total(outcome.metrics_delta,
                              "test_partial_work_total") == 5

    def test_submit_with_callback(self):
        got = []
        done = threading.Event()

        def on_outcome(outcome):
            got.append(outcome)
            done.set()

        with Scheduler(workers=1) as sched:
            index = sched.submit(double, 21, on_outcome=on_outcome)
            assert done.wait(30)
        assert got[0].index == index and got[0].value == 42

    def test_scheduler_metrics(self):
        with Scheduler(workers=2) as sched:
            sched.run([Task(double, i) for i in range(4)]
                      + [Task(fail_always, 0)])
            snap = sched.registry.snapshot()
        assert _counter_total(snap, "repro_sched_tasks_completed_total") == 4
        assert _counter_total(snap, "repro_sched_tasks_failed_total") == 1
        assert _counter_total(snap, "repro_sched_tasks_retried_total") == 1


class TestAttemptRunnerParity:
    """Inline mode and the workers run one attempt the same way
    (``repro.scheduler.worker.run_attempt``): only the error's traceback
    tail and the ``worker`` id may tell the outcomes apart."""

    @staticmethod
    def _both(task, **options):
        outcomes = []
        for workers in (0, 1):
            with Scheduler(workers=workers, **options) as sched:
                outcomes.extend(sched.run([task]))
        return outcomes

    def test_failing_task(self):
        inline, pooled = self._both(Task(count_then_fail, 5, metrics=True))
        for outcome in (inline, pooled):
            assert not outcome.ok and outcome.crashed
            assert not outcome.timed_out and outcome.value is None
            assert outcome.attempts == 1 + DEFAULT_RETRIES
            # the final attempt's partial snapshot, not a sum over retries
            assert _counter_total(outcome.metrics_delta,
                                  "test_partial_work_total") == 5
        assert inline.error == pooled.error.splitlines()[0] \
            == "RuntimeError: failed after partial work"
        assert inline.metrics_delta["counters"] \
            == pooled.metrics_delta["counters"]

    def test_succeeding_task(self):
        inline, pooled = self._both(Task(count_ok, 3, metrics=True))
        assert inline.ok and pooled.ok
        assert inline.value == pooled.value == 3
        assert inline.metrics_delta == pooled.metrics_delta
        assert _counter_total(inline.metrics_delta, "test_work_total") == 3

    def test_no_delta_unless_asked(self):
        for outcome in self._both(Task(count_ok, 3)) \
                + self._both(Task(fail_always, 3), retries=0):
            assert outcome.metrics_delta is None


class TestRecycling:
    def test_workers_recycle_after_max_tasks(self):
        policy = RecyclePolicy(max_tasks=1)
        with Scheduler(workers=1, recycle=policy) as sched:
            outcomes = sched.run([Task(describe, None) for _ in range(3)])
            snap = sched.registry.snapshot()
        pids = [o.value["pid"] for o in outcomes]
        assert len(set(pids)) == 3, "each task should see a fresh worker"
        assert _counter_total(snap, "repro_sched_workers_recycled_total") >= 2

    def test_recycled_worker_flushes_snapshot(self):
        """Retiring workers hand their lifetime registry back to the
        parent (satellite: recycling flush)."""
        policy = RecyclePolicy(max_tasks=1)
        with Scheduler(workers=1, recycle=policy) as sched:
            sched.run([Task(double, i) for i in range(2)])
        # final worker's goodbye lands during graceful close
        snap = sched.registry.snapshot()
        assert _counter_total(snap, "repro_sched_worker_tasks_total") >= 2

    def test_rss_recycle_policy_probe(self):
        assert rss_bytes() > 0
        policy = RecyclePolicy(max_rss_bytes=1)  # always over budget
        with Scheduler(workers=1, recycle=policy) as sched:
            outcomes = sched.run([Task(describe, None) for _ in range(2)])
        pids = [o.value["pid"] for o in outcomes]
        assert len(set(pids)) == 2

    def test_no_recycle_default(self):
        with Scheduler(workers=1, recycle=NO_RECYCLE) as sched:
            outcomes = sched.run([Task(describe, None) for _ in range(4)])
        assert len({o.value["pid"] for o in outcomes}) == 1


class TestShutdown:
    def test_graceful_close_collects_goodbyes(self):
        sched = Scheduler(workers=2)
        sched.start()
        sched.run([Task(double, i) for i in range(4)])
        sched.close(graceful=True)
        snap = sched.registry.snapshot()
        # worker lifetime counters only arrive via retire/goodbye
        assert _counter_total(snap, "repro_sched_worker_tasks_total") == 4

    def test_abort_close_settles_pending(self):
        outcomes = []
        sched = Scheduler(workers=1)
        sched.start()
        sched.submit(sleep_for, 10, on_outcome=outcomes.append)
        for _ in range(3):
            sched.submit(sleep_for, 10, on_outcome=outcomes.append)
        sched.close(graceful=False)
        assert len(outcomes) == 4
        assert all(not o.ok for o in outcomes)
        assert all("cancelled" in o.error for o in outcomes)

    def test_task_dataclasses(self):
        task = Task(double, 1)
        assert task.payload == 1 and not task.metrics
        ctx = TaskContext(index=3, attempt=2, worker=1)
        assert (ctx.index, ctx.attempt, ctx.worker) == (3, 2, 1)
        outcome = TaskOutcome(index=0, ok=True, value=None, error=None,
                              attempts=1, seconds=0.0, crashed=False,
                              timed_out=False)
        assert outcome.ok
