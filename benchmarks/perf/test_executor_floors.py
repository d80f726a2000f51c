"""Executor parity and fast-over-reference ratio floors.

Every timed run doubles as a parity check: both executors must agree on
outputs and on the whole ``Metrics.as_dict()`` before a ratio is read,
with no slack.  A ratio passes at ``floor * (1 - SLACK)``.  A faster
reference lowers every ratio, so these are floors, not records: absolute
numbers and before/after claims come from ``darmbench/``.  A micro floor
is half the median best-of-3 ratio of its kernel, and never lower than
the floor it replaced (see ``docs/performance.md``).

The module reaches below the facade (``FastEvaluator``, ``run_oracle``,
``REAL_BLOCK_SIZES``) to split compile from simulate.
"""

from __future__ import annotations

import time

import pytest

from darmbench.micro import BLOCK_DIM, GRID_DIM, buffers, build_micro_kernels
from repro import MachineConfig, print_module, run_kernel
from repro.difftest.generator import generate_spec
from repro.difftest.oracle import run_oracle
from repro.evaluation.experiments import (
    DEFAULT_GRID_DIM, DEFAULT_SEED, REAL_BLOCK_SIZES)
from repro.evaluation.runner import (
    CompileCache, compile_baseline, compile_cfm, execute)
from repro.kernels import REAL_WORLD_BUILDERS
from repro.simt.fastpath import FastEvaluator

SLACK = 0.3

#: micro kernel -> minimum reference/fast wall-clock ratio
MICRO_FLOORS = {
    "int_alu": 8.3,
    "float_alu": 8.0,
    "cmp_select": 7.8,
    "global_memory": 5.4,
    "shared_memory": 5.9,
    "branch_divergent": 4.1,
    "phi_loop": 5.4,
}
FIG8_SIMULATE_FLOOR = 3.0
#: cold reference compile + simulate over warm compile + fast simulate
FIG8_WARM_END_TO_END_FLOOR = 3.0
#: oracle time is compile-dominated, so this only catches a slower fast path
DIFFTEST_FLOOR = 0.8

EXECUTORS = ("reference", "fast")
MACHINES = {executor: MachineConfig(executor=executor)
            for executor in EXECUTORS}
KERNELS = build_micro_kernels()


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _launch(name: str, executor: str):
    module, kernel = KERNELS[name]
    return run_kernel(module, kernel, GRID_DIM, BLOCK_DIM, buffers(0),
                      machine=MACHINES[executor])


def micro_ratio(name: str, repeats: int = 3):
    """Assert parity on ``name``, then return its best-of-``repeats``
    reference/fast ratio and the instructions the fast run issued."""
    (ref_out, ref_metrics), (fast_out, fast_metrics) = (
        _launch(name, executor) for executor in EXECUTORS)
    assert fast_out == ref_out, f"{name}: executors disagree on outputs"
    assert fast_metrics.as_dict() == ref_metrics.as_dict(), \
        f"{name}: executors disagree on metrics"
    reference, fast = (_best(lambda e=executor: _launch(name, e), repeats)
                       for executor in EXECUTORS)
    return reference / fast, fast_metrics.instructions_issued


def test_every_micro_kernel_has_a_floor():
    assert list(MICRO_FLOORS) == list(KERNELS)


@pytest.mark.parametrize("name", list(MICRO_FLOORS))
def test_micro_parity_and_floor(name):
    ratio, _ = micro_ratio(name)
    assert ratio >= MICRO_FLOORS[name] * (1 - SLACK), \
        f"{name}: {ratio:.2f}x < {MICRO_FLOORS[name]:.2f}x (slack {SLACK:.0%})"


def test_injected_fast_path_delay_trips_the_floor(monkeypatch):
    """A floor that never fires green-lights every regression: a 1 ms
    sleep per fast block step must sink ``int_alu`` under its bar while
    parity, and the instruction count, stay as they were."""
    _, healthy = micro_ratio("int_alu", repeats=1)
    real_init = FastEvaluator.__init__

    def slowed_init(self, *args):
        real_init(self, *args)
        execute = self.execute

        def slowed(block, mask, resume):
            time.sleep(0.001)
            return execute(block, mask, resume)

        self.execute = slowed

    monkeypatch.setattr(FastEvaluator, "__init__", slowed_init)
    ratio, instructions = micro_ratio("int_alu", repeats=1)
    assert ratio < 1.0, "the delay had no effect; is execute still called?"
    assert ratio < MICRO_FLOORS["int_alu"] * (1 - SLACK)
    assert instructions == healthy


def _compile_figure8(cache_dir: str):
    """Both arms of every Figure 8 case through one fresh disk-backed
    cache: ``(cases, seconds, cache)``, a case being (label, base, cfm)."""
    cache = CompileCache(disk=cache_dir)
    cases = []
    start = time.perf_counter()
    for kernel, builder in REAL_WORLD_BUILDERS.items():
        for block_size in REAL_BLOCK_SIZES[kernel]:
            base = builder(block_size=block_size, grid_dim=DEFAULT_GRID_DIM)
            cfm = builder(block_size=block_size, grid_dim=DEFAULT_GRID_DIM)
            compile_baseline(base, cache=cache)
            compile_cfm(cfm, cache=cache)
            cases.append((f"{kernel}-{block_size}", base, cfm))
    return cases, time.perf_counter() - start, cache


def _printed(cases):
    return [(label, print_module(base.module), print_module(cfm.module))
            for label, base, cfm in cases]


def _simulate(cases, executor: str):
    machine = MACHINES[executor]
    rows = []
    for label, *arms in cases:
        runs = [execute(case, seed=DEFAULT_SEED, check=False,
                        machine=machine) for case in arms]
        rows.append((label, *(run.outputs for run in runs),
                     *(run.metrics.as_dict() for run in runs)))
    return rows


def test_figure8_warm_replay_parity_and_floors(tmp_path):
    cases, cold_seconds, _ = _compile_figure8(str(tmp_path))
    # A fresh in-process cache over the same directory, as a new worker
    # sees it, must replay every arm from disk with the cold IR.
    warm_cases, warm_seconds, warm_cache = _compile_figure8(str(tmp_path))
    assert _printed(warm_cases) == _printed(cases), "warm replay changed IR"
    counters = warm_cache.counters()
    assert counters["misses"] == 0, counters
    assert counters["hits"] >= 2 * len(cases), counters

    simulate = {}
    rows = {}
    for executor in EXECUTORS:
        rows[executor] = _simulate(cases, executor)  # warms the programs
        simulate[executor] = _best(lambda: _simulate(cases, executor), 1)
    assert rows["fast"] == rows["reference"], \
        "executors disagree on outputs or metrics rows"

    ratio = simulate["reference"] / simulate["fast"]
    assert ratio >= FIG8_SIMULATE_FLOOR * (1 - SLACK), \
        f"simulate {ratio:.2f}x < {FIG8_SIMULATE_FLOOR:.2f}x"
    warm = ((cold_seconds + simulate["reference"])
            / (warm_seconds + simulate["fast"]))
    assert warm >= FIG8_WARM_END_TO_END_FLOOR * (1 - SLACK), \
        f"warm end-to-end {warm:.2f}x < {FIG8_WARM_END_TO_END_FLOOR:.2f}x"


def test_difftest_floor():
    specs = [generate_spec(seed) for seed in range(2)]
    seconds = {}
    outputs = {}
    for executor in EXECUTORS:
        start = time.perf_counter()
        verdicts = [run_oracle(spec, machine=MACHINES[executor])
                    for spec in specs]
        seconds[executor] = time.perf_counter() - start
        outputs[executor] = [
            {arm: report.outputs for arm, report in verdict.arms.items()}
            for verdict in verdicts]
    assert outputs["fast"] == outputs["reference"]
    ratio = seconds["reference"] / seconds["fast"]
    assert ratio >= DIFFTEST_FLOOR * (1 - SLACK), \
        f"difftest {ratio:.2f}x < {DIFFTEST_FLOOR:.2f}x"
