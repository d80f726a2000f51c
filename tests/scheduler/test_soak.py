"""Randomized property/soak tests for the scheduler.

Seeded random task mixes (successes, deterministic failures, flaky
tasks, sleepers) under random pool shapes (2-4 workers, random
recycling, injected worker crashes).  The properties that must hold for
every mix:

* **no lost or duplicated tasks** — exactly one terminal outcome per
  submitted task, in submission order;
* **determinism of results** — every ok task's value is what a serial
  run would compute;
* **failure containment** — only the tasks built to fail, fail;
* **accounting closes** — completed + failed == submitted.

Marked ``slow``: the CI budget for this file is ~30s.
"""

import random
import time

import pytest

from repro.scheduler import RecyclePolicy, Scheduler, Task
from repro.scheduler import worker as scheduler_worker

pytestmark = pytest.mark.slow


def soak_fn(payload, ctx):
    kind, value = payload
    if kind == "flaky" and ctx.attempt == 1:
        raise RuntimeError(f"flaky {value}")
    if kind == "fail":
        raise ValueError(f"fail {value}")
    if kind == "sleep":
        time.sleep(0.01)
    return value * 3


def _counter_total(snapshot, name):
    family = snapshot.get("counters", {}).get(name)
    if not family:
        return 0
    return sum(family["samples"].values())


@pytest.fixture(autouse=True)
def _clean_chaos():
    scheduler_worker._TEST_WORKER_CHAOS.clear()
    yield
    scheduler_worker._TEST_WORKER_CHAOS.clear()


def _random_mix(rng, count):
    kinds = ("ok", "ok", "ok", "flaky", "fail", "sleep")
    return [(rng.choice(kinds), i) for i in range(count)]


@pytest.mark.parametrize("seed", [0xC0FFEE, 2022, 402])
def test_random_mix_properties(seed):
    rng = random.Random(seed)
    mix = _random_mix(rng, rng.randint(24, 48))
    workers = rng.randint(2, 4)
    recycle = RecyclePolicy(max_tasks=rng.choice([None, 5, 9]))
    # crash a couple of random first attempts out from under the pool
    for index in rng.sample(range(len(mix)), 2):
        if mix[index][0] != "fail":  # keep failure containment decidable
            scheduler_worker._TEST_WORKER_CHAOS[index] = \
                rng.choice(["exit", "raise", "exit-after"])

    with Scheduler(workers=workers, recycle=recycle) as sched:
        outcomes = sched.run([Task(soak_fn, payload) for payload in mix])
        snap = sched.registry.snapshot()

    # no lost or duplicated tasks, submission order preserved
    assert [o.index for o in outcomes] == list(range(len(mix)))
    for payload, outcome in zip(mix, outcomes):
        kind, value = payload
        if kind == "fail":
            assert not outcome.ok
            assert f"fail {value}" in outcome.error
            assert outcome.attempts == 2
        else:
            assert outcome.ok, (payload, outcome.error)
            assert outcome.value == value * 3
            if kind == "flaky":
                assert outcome.attempts == 2
    completed = _counter_total(snap, "repro_sched_tasks_completed_total")
    failed = _counter_total(snap, "repro_sched_tasks_failed_total")
    assert completed + failed == len(mix)
    assert failed == sum(1 for kind, _ in mix if kind == "fail")


@pytest.mark.parametrize("seed", [7, 99])
def test_submit_storm_with_callbacks(seed):
    """Callback-style submission (the server's path): outcomes land
    exactly once each, whatever order the pool settles them in."""
    rng = random.Random(seed)
    mix = _random_mix(rng, 40)
    got = {}

    with Scheduler(workers=rng.randint(2, 4)) as sched:
        for payload in mix:
            sched.submit(
                soak_fn, payload,
                on_outcome=lambda o: got.setdefault(o.index, []).append(o))
        sched.drain()

    assert sorted(got) == list(range(len(mix)))
    assert all(len(v) == 1 for v in got.values()), "duplicated settlement"
    for index, (kind, value) in enumerate(mix):
        (outcome,) = got[index]
        assert outcome.ok == (kind != "fail")


def test_sustained_load_with_aggressive_recycling():
    """Every-task recycling under load: the pool keeps making progress
    and the folded worker snapshots account for every task served."""
    mix = [("ok", i) for i in range(30)]
    with Scheduler(workers=3, recycle=RecyclePolicy(max_tasks=1)) as sched:
        outcomes = sched.run([Task(soak_fn, p) for p in mix])
    snap = sched.registry.snapshot()
    assert all(o.ok for o in outcomes)
    assert [o.value for o in outcomes] == [i * 3 for i in range(30)]
    assert _counter_total(snap, "repro_sched_worker_tasks_total") == 30
    assert _counter_total(snap, "repro_sched_workers_recycled_total") >= 27
