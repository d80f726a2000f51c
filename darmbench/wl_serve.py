"""``serve_launch``: a closed loop of small single-task jobs over **one**
client connection to a job server with ``max(1, nproc - 1)`` workers.

Half the jobs are ``launch`` jobs (build, ``-O3``, simulate one synthetic
kernel at block size 32: 6-14 ms of work on the box this was written
on), half are ``compile`` jobs at level ``noopt`` (build only, 1-2.5 ms).
Admission, scheduler dispatch, the worker pipe and the NDJSON round trip
cost about half a millisecond per job whatever the job does, so they are
a quarter of a build-only job: this is the workload on which the
``scheduler`` and ``serve`` layers show, and on which the CFM pass does
no work at all.

The job mix is fixed (every synthetic kernel, both kinds,
:data:`REPEATS` times); ``--seed`` shuffles the order and is the
input-data seed of every launch.  Jobs are submitted with
``stream=True`` so the worker-reported task time comes back with them.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import tempfile
import time
from typing import Dict, List, Optional, Tuple

from repro.compile_cache import CACHE_ENV_VAR
from repro.evaluation.experiments import (
    DEFAULT_GRID_DIM,
    SYNTHETIC_BLOCK_SIZES,
)
from repro.evaluation.runner import compare, compile_baseline, execute
from repro.kernels import SYNTHETIC_BUILDERS
from repro.scheduler import Scheduler, Task
from repro.serve import ServeClient, ServeError, ServerConfig, ServerThread

from .harness import (
    Cases,
    Iteration,
    Tracer,
    Workload,
    instruction_count,
    span,
)

BLOCK_SIZE = 32
KINDS = ("launch", "compile")
REPEATS = 4
PINGS = 200
NOOP_TASKS = 200
#: job kind -> the row fields that are checked against a serial run
ROW_KEYS = {"launch": ("cycles", "branches", "divergent_branches"),
            "compile": ("blocks", "instructions", "melds")}


def _noop(payload, ctx):
    return payload


def counter_total(snapshot: Dict[str, object], name: str) -> float:
    family = snapshot["counters"].get(name)
    return float(sum(family["samples"].values())) if family else 0.0


def percentile(values: List[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


class ServeLaunch(Workload):
    name = "serve_launch"
    golden_key = "serve"

    def __init__(self, seed, work_dir) -> None:
        super().__init__(seed, work_dir)
        self.workers = max(1, (os.cpu_count() or 1) - 1)
        mix = [(kind, kernel) for kernel in SYNTHETIC_BUILDERS
               for kind in KINDS] * REPEATS
        random.Random(seed).shuffle(mix)
        self.jobs: List[Tuple[str, str]] = mix
        self.thread: Optional[ServerThread] = None
        self.client: Optional[ServeClient] = None
        self.cache_dir: Optional[str] = None
        self.saved_env: Optional[str] = None

    # ---- set-up -----------------------------------------------------------

    def setup(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.saved_env = os.environ.get(CACHE_ENV_VAR)
        self.cache_dir = tempfile.mkdtemp(prefix="serve-", dir=self.work_dir)
        # cache_dir is exported before the pool forks; launch jobs compile
        # uncached, the verifying sweep job below fills and reads it
        self.thread = ServerThread(ServerConfig(workers=self.workers,
                                                cache_dir=self.cache_dir))
        address = self.thread.start()
        self.client = ServeClient(*address, timeout=120)
        self.client.ping()

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.thread is not None:
            self.thread.stop()
            self.thread = None
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None
            if self.saved_env is None:
                os.environ.pop(CACHE_ENV_VAR, None)
            else:
                os.environ[CACHE_ENV_VAR] = self.saved_env

    # ---- one iteration ----------------------------------------------------

    def _job(self, kind: str, kernel: str, task_seconds: List[float]):
        params = {"kernels": [kernel], "block_size": BLOCK_SIZE,
                  "grid_dim": DEFAULT_GRID_DIM}
        if kind == "launch":
            params["seed"] = self.seed
        else:
            params["level"] = "noopt"
        return self.client.run_job(
            kind, params, stream=True,
            on_task=lambda event: task_seconds.append(event["seconds"]))

    def iteration(self, tracer: Optional[Tracer] = None) -> Iteration:
        iteration = Iteration()
        task_ms: List[float] = []
        overhead_ms: List[float] = []
        for kind, kernel in self.jobs:
            label = f"{kind}:{kernel}"
            iteration.attempted += 1
            task_seconds: List[float] = []
            start = time.perf_counter()
            try:
                with span(tracer, "serve.job", "serve", case=label):
                    done = self._job(kind, kernel, task_seconds)
            except ServeError as exc:  # rejected, or the server went away
                iteration.failures.append(f"{label}: {exc}")
                continue
            finally:
                latency = time.perf_counter() - start
                iteration.units.append((label, latency))
            if not done["ok"]:
                iteration.failures.append(f"{label}: {done['errors']}")
                continue
            task_ms.append(task_seconds[0] * 1e3)
            overhead_ms.append((latency - task_seconds[0]) * 1e3)
            row = done["rows"][0]
            iteration.cases[label] = {key: row[key] for key in ROW_KEYS[kind]}
        if task_ms:
            iteration.layers = {
                "serve.task_ms": statistics.median(task_ms),
                "serve.overhead_ms": statistics.median(overhead_ms)}
        return iteration

    # ---- checks -------------------------------------------------------------

    def verify(self, first: Iteration) -> Tuple[Cases, int, List[str]]:
        """Served rows must equal a serial in-process run of the same
        work: every ``launch`` and ``compile`` row, and one multi-task
        ``sweep`` job over the synthetic kernels (which also supplies the
        CFM-arm cycles the ``launch`` rows do not carry)."""
        cases = {label: dict(facts) for label, facts in first.cases.items()}
        failures: List[str] = []
        attempted = 0
        for kernel, builder in SYNTHETIC_BUILDERS.items():
            case = builder(block_size=BLOCK_SIZE, grid_dim=DEFAULT_GRID_DIM)
            built = {"blocks": len(list(case.function.blocks)),
                     "instructions": instruction_count(case.function),
                     "melds": 0}
            compile_baseline(case)
            metrics = execute(case, seed=self.seed).metrics
            launched = {key: getattr(metrics, key)
                        for key in ROW_KEYS["launch"]}
            for kind, expected in (("compile", built), ("launch", launched)):
                attempted += 1
                served = cases.get(f"{kind}:{kernel}")
                if served != expected:
                    failures.append(f"{kind}:{kernel}: served {served}, "
                                    f"serial run {expected}")
        try:
            done = self.client.run_job("sweep", {
                "kernels": list(SYNTHETIC_BUILDERS), "seed": self.seed,
                "grid_dim": DEFAULT_GRID_DIM})
            rows = done["rows"] if done["ok"] else []
            if not done["ok"]:
                failures.append(f"sweep job: {done['errors']}")
        except ServeError as exc:
            rows = []
            failures.append(f"sweep job: {exc}")
        served_rows = {(row["kernel"], row["block_size"]): row
                       for row in rows}
        for kernel, builder in SYNTHETIC_BUILDERS.items():
            for size in SYNTHETIC_BLOCK_SIZES:
                attempted += 1
                serial = compare(builder, size, grid_dim=DEFAULT_GRID_DIM,
                                 seed=self.seed)
                expected = {"o3_cycles": serial.baseline.cycles,
                            "cfm_cycles": serial.melded.cycles,
                            "melds": serial.melds}
                row = served_rows.get((kernel, size))
                served = row and {"o3_cycles": row["baseline_cycles"],
                                  "cfm_cycles": row["cfm_cycles"],
                                  "melds": row["melds"]}
                if served != expected:
                    failures.append(f"sweep {kernel}-{size}: served "
                                    f"{served}, serial run {expected}")
                else:
                    cases[f"sweep:{kernel}-{size}"] = served
        return cases, attempted, failures

    # ---- stand-alone probes -------------------------------------------------

    def probes(self, tracer: Tracer) -> Dict[str, float]:
        """Protocol round trip without a job, and a scheduler of the same
        width as the server's driven directly with no-op tasks."""
        start = time.perf_counter()
        for _ in range(PINGS):
            self.client.ping()
        ping_us = (time.perf_counter() - start) / PINGS * 1e6

        start = time.perf_counter()
        scheduler = Scheduler(workers=self.workers).start()
        started = time.perf_counter()
        try:
            outcomes = scheduler.run([Task(_noop, index)
                                      for index in range(NOOP_TASKS)])
            ran = time.perf_counter()
        finally:
            scheduler.close()
        closed = time.perf_counter()
        if not all(outcome.ok for outcome in outcomes):
            raise RuntimeError("scheduler probe: a no-op task failed")
        snapshot = self.client.metrics()["snapshot"]
        return {
            "serve.ping_us": ping_us,
            "scheduler.start_s": started - start,
            "scheduler.dispatch_us": (ran - started) / NOOP_TASKS * 1e6,
            "scheduler.close_s": closed - ran,
            "scheduler.retried":
                counter_total(snapshot, "repro_sched_tasks_retried_total"),
            "scheduler.failed":
                counter_total(snapshot, "repro_sched_tasks_failed_total"),
            "serve.rejected":
                counter_total(snapshot, "repro_serve_jobs_rejected_total"),
        }

    # ---- results ------------------------------------------------------------

    def layer_counts(self, cases: Cases,
                     iterations: List[Iteration]) -> Dict[str, float]:
        latencies = [seconds for iteration in iterations
                     for _, seconds in iteration.units]
        return {
            "kernels.cases": float(len(set(self.jobs))),
            "serve.job_p50_ms": statistics.median(latencies) * 1e3,
            "serve.job_p90_ms": percentile(latencies, 0.9) * 1e3,
            "serve.jobs_per_s": len(latencies) / sum(latencies),
        }
