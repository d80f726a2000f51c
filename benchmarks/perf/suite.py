"""Measurement driver behind ``python -m benchmarks.perf``.

Micro: each :mod:`~benchmarks.perf.workloads` kernel runs on both
executors; throughput is ``metrics.instructions_issued`` over the best
wall-clock of ``repeats`` runs.  Macro: the Figure 8 sweep is replayed
with compilation hoisted out (each arm compiles once, then both
executors simulate the same compiled module), so the compile/simulate
split is measured directly rather than inferred; the sweep compiles
twice against one persistent :class:`~repro.compile_cache.DiskCompileCache`
(cold, then a fresh in-process cache over the same directory) so the
warm-replay speedup is part of the document; plus difftest oracle
throughput in seeds per second per executor.

Every measurement doubles as a parity check — outputs and the full
``Metrics.as_dict()`` are asserted identical across executors before
any number is reported.

This package deliberately reaches below the facade for the macro sweep
(``repro.evaluation.runner``, ``repro.kernels``): splitting compile
from simulate needs the compile entry points the facade does not
export.  Everything else goes through :mod:`repro`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro import MachineConfig, run_kernel

from .workloads import MICRO_BUILDERS, MicroWorkload

EXECUTORS = ("reference", "fast")

#: one machine description per executor under test
MACHINES = {executor: MachineConfig(executor=executor)
            for executor in EXECUTORS}

SCHEMA = "repro.bench/1"


def _time_best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ---- micro ---------------------------------------------------------------


def _run_micro(workload: MicroWorkload, executor: str):
    outputs, metrics = run_kernel(
        workload.module, workload.kernel, workload.grid_dim,
        workload.block_dim, buffers=workload.make_buffers(),
        machine=MACHINES[executor])
    return outputs, metrics


def bench_micro(repeats: int = 3,
                names: Optional[Sequence[str]] = None) -> List[Dict]:
    rows: List[Dict] = []
    for name in (names or MICRO_BUILDERS):
        workload = MICRO_BUILDERS[name]()
        reference: Dict[str, Dict] = {}
        baseline = None
        for executor in EXECUTORS:
            outputs, metrics = _run_micro(workload, executor)
            if baseline is None:
                baseline = (outputs, metrics.as_dict())
            else:
                assert outputs == baseline[0], \
                    f"{name}: executors disagree on outputs"
                assert metrics.as_dict() == baseline[1], \
                    f"{name}: executors disagree on metrics"
            seconds = _time_best(
                lambda e=executor: _run_micro(workload, e), repeats)
            reference[executor] = {
                "seconds": seconds,
                "instructions": metrics.instructions_issued,
                "ops_per_second": metrics.instructions_issued / seconds,
            }
        rows.append({
            "workload": name,
            "opcode_class": workload.opcode_class,
            "executors": reference,
            "speedup": (reference["reference"]["seconds"]
                        / reference["fast"]["seconds"]),
        })
    return rows


# ---- macro: Figure 8 compile/simulate split ------------------------------


def bench_figure8(block_sizes: Optional[Dict[str, List[int]]] = None,
                  repeats: int = 1, cache_dir: Optional[str] = None) -> Dict:
    import tempfile

    from repro import print_module
    from repro.evaluation.experiments import (
        DEFAULT_GRID_DIM, DEFAULT_SEED, REAL_BLOCK_SIZES)
    from repro.evaluation.runner import (
        CompileCache, compile_baseline, compile_cfm, execute)
    from repro.kernels import REAL_WORLD_BUILDERS

    sizes = block_sizes or REAL_BLOCK_SIZES
    tmp = None
    if cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-bench-cache-")
        cache_dir = tmp.name

    def compile_all(cache):
        compiled = []  # (label, compiled base case, compiled cfm case)
        start = time.perf_counter()
        for kernel, builder in REAL_WORLD_BUILDERS.items():
            for block_size in sizes[kernel]:
                base = builder(block_size=block_size,
                               grid_dim=DEFAULT_GRID_DIM)
                cfm = builder(block_size=block_size,
                              grid_dim=DEFAULT_GRID_DIM)
                compile_baseline(base, cache=cache)
                compile_cfm(cfm, cache=cache)
                compiled.append((f"{kernel}-{block_size}", base, cfm))
        return compiled, time.perf_counter() - start

    # Cold: empty disk cache, every pipeline runs for real (plus the
    # write-through cost).  Warm: a fresh in-process cache over the same
    # directory — exactly what a new worker process sees — must replay
    # everything from disk and produce bit-identical IR.
    cold_cache = CompileCache(disk=cache_dir)
    cases, compile_seconds = compile_all(cold_cache)
    warm_cache = CompileCache(disk=cache_dir)
    warm_cases, warm_compile_seconds = compile_all(warm_cache)

    def ir_of(compiled):
        return [(label, print_module(base.module), print_module(cfm.module))
                for label, base, cfm in compiled]

    warm_ir_identical = ir_of(warm_cases) == ir_of(cases)
    assert warm_ir_identical, \
        "figure8 sweep: warm cache replay produced different IR"
    assert warm_cache.misses == 0, \
        f"figure8 sweep: warm compile missed {warm_cache.misses} entries"
    if tmp is not None:
        tmp.cleanup()

    executors: Dict[str, Dict] = {}
    fingerprints: Dict[str, List] = {}
    for executor in EXECUTORS:
        rows = []

        def simulate(collect: Optional[List] = None) -> None:
            for label, base, cfm in cases:
                base_run = execute(base, seed=DEFAULT_SEED, check=False,
                                   machine=MACHINES[executor])
                cfm_run = execute(cfm, seed=DEFAULT_SEED, check=False,
                                  machine=MACHINES[executor])
                if collect is not None:
                    collect.append((label,
                                    base_run.outputs, cfm_run.outputs,
                                    base_run.metrics.as_dict(),
                                    cfm_run.metrics.as_dict()))

        simulate(rows)  # warm + collect the parity fingerprint
        seconds = _time_best(simulate, repeats)
        fingerprints[executor] = rows
        executors[executor] = {
            "simulate_seconds": seconds,
            "total_seconds": compile_seconds + seconds,
        }

    metrics_identical = fingerprints["reference"] == fingerprints["fast"]
    assert metrics_identical, \
        "figure8 sweep: executors disagree on outputs or metrics rows"
    fast_simulate = executors["fast"]["simulate_seconds"]
    return {
        "cases": len(cases),
        "compile_seconds": compile_seconds,
        "compile": {
            "cold_seconds": compile_seconds,
            "warm_seconds": warm_compile_seconds,
            "warm_speedup": compile_seconds / warm_compile_seconds,
            "cold_cache": cold_cache.counters(),
            "warm_cache": warm_cache.counters(),
        },
        "executors": executors,
        "simulate_speedup": (executors["reference"]["simulate_seconds"]
                             / executors["fast"]["simulate_seconds"]),
        "end_to_end_speedup": (executors["reference"]["total_seconds"]
                               / executors["fast"]["total_seconds"]),
        # A warm evaluation run (persistent cache + fast executor)
        # against the cold reference pipeline — the Figure 8 re-run cost
        # the persistent cache is meant to kill.
        "end_to_end_speedup_warm": (
            executors["reference"]["total_seconds"]
            / (warm_compile_seconds + fast_simulate)),
        "metrics_identical": metrics_identical,
        "warm_ir_identical": warm_ir_identical,
    }


# ---- macro: difftest throughput ------------------------------------------


def bench_difftest(seeds: Sequence[int] = range(4)) -> Dict:
    from repro.difftest.generator import generate_spec
    from repro.difftest.oracle import run_oracle

    seeds = list(seeds)
    specs = [generate_spec(seed) for seed in seeds]
    executors: Dict[str, Dict] = {}
    for executor in EXECUTORS:
        start = time.perf_counter()
        for spec in specs:
            run_oracle(spec, machine=MACHINES[executor])
        seconds = time.perf_counter() - start
        executors[executor] = {
            "seconds": seconds,
            "seeds_per_second": len(seeds) / seconds,
        }
    return {
        "seeds": len(seeds),
        "executors": executors,
        # Oracle time is compile-dominated (five arms compile per seed),
        # so this ratio hovers near 1; the guard only protects against
        # the fast path being *slower* end to end.
        "speedup": (executors["reference"]["seconds"]
                    / executors["fast"]["seconds"]),
    }


# ---- assembly ------------------------------------------------------------


def run_suite(repeats: int = 3, difftest_seeds: int = 4,
              quick: bool = False,
              cache_dir: Optional[str] = None) -> Dict:
    """Run micro + macro benches and return the result document."""
    if quick:
        repeats = min(repeats, 1)
        difftest_seeds = min(difftest_seeds, 2)
    return {
        "schema": SCHEMA,
        "repeats": repeats,
        "micro": bench_micro(repeats=repeats),
        "macro": {
            "figure8": bench_figure8(repeats=repeats, cache_dir=cache_dir),
            "difftest": bench_difftest(seeds=range(difftest_seeds)),
        },
    }
