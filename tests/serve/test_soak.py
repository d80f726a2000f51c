"""Randomized job-mix soak through a live server (satellite: soak).

Seeded random mixes of compile + sweep + difftest + lint jobs, pipelined
from concurrent clients against a 2-4 worker server.  Properties:

* per-job result ordering is deterministic — every job's rows equal the
  rows the same job computes inline (position order, not completion
  order), however the pool interleaved the mix;
* no job and no task is lost or duplicated;
* quota pressure rejects with a typed code instead of stalling, and
  rejected clients can keep submitting;
* ``when_full="block"`` backpressure parks submits without losing work.

Marked ``slow``: the CI budget for this file is ~30s.
"""

import random
import threading

import pytest

from repro.scheduler import TaskContext
from repro.serve import (
    JobRejected,
    ServeClient,
    ServerConfig,
    ServerThread,
    make_job,
)

pytestmark = pytest.mark.slow

#: the job menu: cheap synthetic-kernel jobs only (SB* at block 8-16
#: simulate in milliseconds; the real figure kernels are minutes)
MENU = [
    ("sweep", {"kernels": ["SB1"], "block_sizes": [8], "grid_dim": 1,
               "seed": 7}),
    ("sweep", {"kernels": ["SB2"], "block_sizes": [8, 16], "grid_dim": 1,
               "seed": 7}),
    ("compile", {"kernels": ["SB1", "SB2"], "level": "o3-cfm",
                 "block_size": 16, "grid_dim": 1}),
    ("launch", {"kernels": ["SB1"], "block_size": 16, "grid_dim": 1}),
    ("difftest", {"count": 2}),
    ("difftest", {"seeds": [3, 1]}),
    ("lint", {"kernels": ["SB1"], "levels": ["o3-cfm"], "block_size": 16,
              "grid_dim": 1}),
]

_EXPECTED = {}


def expected_rows(menu_index):
    """What the job at MENU[menu_index] computes, run inline (memoized)."""
    if menu_index not in _EXPECTED:
        kind, params = MENU[menu_index]
        spec = make_job(kind, dict(params))
        rows = []
        for position, task in enumerate(spec.tasks()):
            ctx = TaskContext(index=position, attempt=1, worker=0)
            rows.append(spec.row(task.fn(task.payload, ctx)))
        _EXPECTED[menu_index] = rows
    return _EXPECTED[menu_index]


def _drive(address, rng, job_count, failures):
    """One client: pipeline a random mix, then wait for each in order."""
    try:
        with ServeClient(*address) as client:
            picks = [rng.randrange(len(MENU)) for _ in range(job_count)]
            job_ids = [client.submit(*MENU[pick]) for pick in picks]
            for pick, job_id in zip(picks, job_ids):
                done = client.wait(job_id)
                assert done["ok"], done
                assert done["rows"] == expected_rows(pick), \
                    f"job {MENU[pick]} rows diverged"
    except Exception as exc:  # pragma: no cover - surfaced by the test
        failures.append(exc)


@pytest.mark.parametrize("seed,workers", [(0xC0FFEE, 2), (2022, 3),
                                          (402, 4)])
def test_randomized_job_mix(seed, workers):
    rng = random.Random(seed)
    for index in range(len(MENU)):
        expected_rows(index)  # warm the inline reference before timing
    config = ServerConfig(workers=workers, queue_limit=64)
    failures = []
    with ServerThread(config) as address:
        threads = [
            threading.Thread(
                target=_drive,
                args=(address, random.Random(rng.random()), 6, failures))
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not any(t.is_alive() for t in threads), "client stalled"
        # and the server still answers after the storm
        with ServeClient(*address) as client:
            snapshot = client.metrics()["snapshot"]
    assert failures == []
    counters = snapshot["counters"]
    jobs = sum(counters["repro_serve_jobs_total"]["samples"].values())
    assert jobs == 12
    failed = counters.get("repro_sched_tasks_failed_total", {"samples": {}})
    assert sum(failed["samples"].values()) == 0


def test_quota_hammer_rejects_without_stalling():
    """A client bursting past its quota gets typed rejections and can
    keep working; nothing it submitted is lost."""
    config = ServerConfig(workers=2, client_quota=4, queue_limit=64)
    with ServerThread(config) as address:
        with ServeClient(*address) as client:
            rejected = completed = 0
            for _ in range(8):
                try:
                    done = client.run_job("difftest", {"count": 3})
                except JobRejected as exc:
                    assert exc.code == "quota-exceeded"
                    rejected += 1
                else:
                    assert done["ok"]
                    assert [r["seed"] for r in done["rows"]] == [0, 1, 2]
                    completed += 1
            # run_job waits each job out, so the quota never trips here;
            # now pipeline two over-quota jobs at once and expect one
            # typed rejection, not a stall
            assert completed == 8 and rejected == 0
            first = client.submit("difftest", {"count": 3})
            second = client.submit("difftest", {"count": 3})
            outcomes = {"done": 0, "rejected": 0}
            for job_id in (first, second):
                try:
                    client.wait(job_id)
                    outcomes["done"] += 1
                except JobRejected as exc:
                    assert exc.code == "quota-exceeded"
                    outcomes["rejected"] += 1
            assert outcomes["done"] == 1 and outcomes["rejected"] == 1
            # quota frees once the surviving job settles
            assert client.run_job("difftest", {"count": 3})["ok"]


def test_backpressure_block_mode_under_mix():
    """Tiny queue + block mode: a pipelined burst completes in full,
    in submit order per client, with nothing dropped."""
    config = ServerConfig(workers=2, queue_limit=3, when_full="block",
                          client_quota=None)
    picks = [4, 5, 0, 4, 5]  # difftest/difftest/sweep/difftest/difftest
    for pick in picks:
        expected_rows(pick)
    with ServerThread(config) as address:
        with ServeClient(*address) as client:
            job_ids = [client.submit(*MENU[pick]) for pick in picks]
            for pick, job_id in zip(picks, job_ids):
                done = client.wait(job_id)
                assert done["ok"]
                assert done["rows"] == expected_rows(pick)
