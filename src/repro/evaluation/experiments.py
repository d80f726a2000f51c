"""Experiment drivers: one function per table/figure of the paper.

Every function returns plain data rows (dataclasses) so tests can assert
on shapes and the benchmark harness can format them.  Input sizes are
scaled down from the paper's 2^20–2^28 elements (see DESIGN.md §2) but
the block-size sweeps match the paper's structure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.divergence import compute_divergence
from repro.core import CFMConfig
from repro.kernels import REAL_WORLD_BUILDERS, SYNTHETIC_BUILDERS
from repro.kernels.common import KernelCase
from repro.kernels.patterns import PATTERN_BUILDERS
from repro.obs import current_registry
from repro.pipeline import ARM_STAGES, compile_arm
from repro.scheduler import Scheduler, Task
from repro.simt import MachineConfig

from .parallel import (
    ProgressCallback,
    SweepError,
    SweepTask,
    fold_sweep_metrics,
    run_task,
)
from .runner import Comparison, compile_baseline, compile_cfm, execute, geomean
from .trace import SweepTraceCollector

#: block-size sweeps (paper §VI-A treats block size as exogenous)
SYNTHETIC_BLOCK_SIZES: List[int] = [32, 64, 128]
REAL_BLOCK_SIZES: Dict[str, List[int]] = {
    "LUD": [16, 32, 64, 128],
    "BIT": [32, 64, 128],
    "DCT": [64, 128, 256],
    "MS": [32, 64, 128],
    "PCM": [16, 32, 64],
}
DEFAULT_GRID_DIM = 2
DEFAULT_SEED = 20220402  # CGO 2022 camera-ready date


@dataclass
class SpeedupRow:
    """One bar of Figure 7/8."""

    kernel: str
    block_size: int
    speedup: float
    baseline_cycles: int
    cfm_cycles: int
    melds: int
    comparison: Comparison

    @property
    def label(self) -> str:
        return f"{self.kernel}-{self.block_size}"

    @classmethod
    def from_comparison(cls, comparison: Comparison) -> "SpeedupRow":
        """The row a successful sweep task stands for (the one mapper:
        the serve ``sweep`` job's wire rows are its scalar fields)."""
        return cls(
            kernel=comparison.name,
            block_size=comparison.block_size,
            speedup=comparison.speedup,
            baseline_cycles=comparison.baseline.cycles,
            cfm_cycles=comparison.melded.cycles,
            melds=comparison.melds,
            comparison=comparison,
        )


def run_sweep(
    builders: Dict[str, Callable[..., KernelCase]],
    block_sizes: Dict[str, List[int]],
    grid_dim: int = DEFAULT_GRID_DIM,
    seed: int = DEFAULT_SEED,
    config: Optional[CFMConfig] = None,
    machine: Optional[MachineConfig] = None,
    workers: int = 1,
    timeout: Optional[float] = None,
    trace: Optional[SweepTraceCollector] = None,
    trace_section: str = "sweep",
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[SpeedupRow]:
    """Run every (kernel, block size) comparison as one scheduler batch.

    ``workers > 1`` fans tasks across persistent worker processes
    (``timeout`` is per attempt and only acts there); rows are ordered
    identically to the serial run.  A failed task — after its retry —
    raises :class:`SweepError` rather than silently dropping a figure row.

    ``cache_dir`` points every task at one persistent compile cache
    (cross-process; see ``repro.compile_cache``), so repeated sweeps
    replay compilation instead of re-running it.  ``None`` gives each
    task an in-process cache only; the environment is never read.

    When a ``trace`` collector is attached, its ``policy`` selects which
    tasks additionally capture Chrome trace events ("first" = the first
    block size of each kernel, "all", or "off"); captured events are
    merged into the collector's Perfetto-loadable ``traceEvents``.

    ``progress`` (e.g. a :class:`~repro.evaluation.progress.ProgressLine`)
    is called after each terminal task with ``(done, total, task,
    outcome)``.  When an ambient :func:`~repro.obs.current_registry` is
    installed, every task collects an aggregate-metrics delta and
    :func:`~repro.evaluation.parallel.fold_sweep_metrics` folds them in.
    """
    policy = trace.policy if trace is not None else "off"
    tasks = [SweepTask(kernel=name, builder=builder, block_size=block_size,
                       grid_dim=grid_dim, seed=seed, config=config,
                       machine=machine, cache_dir=cache_dir,
                       trace=(policy == "all"
                              or (policy == "first" and position == 0)))
             for name, builder in builders.items()
             for position, block_size in enumerate(block_sizes[name])]
    settled = []

    def on_outcome(outcome) -> None:
        # The dispatcher thread delivers outcomes one at a time.
        settled.append(outcome)
        progress(len(settled), len(tasks), tasks[outcome.index], outcome)

    collect = current_registry() is not None
    start = time.perf_counter()
    with Scheduler(workers=workers if workers > 1 else 0,
                   timeout=timeout) as scheduler:
        outcomes = scheduler.run(
            [Task(run_task, task, metrics=collect) for task in tasks],
            on_outcome=on_outcome if progress is not None else None)
    fold_sweep_metrics(outcomes, time.perf_counter() - start, scheduler)
    if trace is not None:
        trace.record(trace_section, tasks, outcomes)
    failures = [(task, outcome) for task, outcome in zip(tasks, outcomes)
                if not outcome.ok]
    if failures:
        raise SweepError(failures)
    return [SpeedupRow.from_comparison(outcome.value.comparison)
            for outcome in outcomes]


# ---- Figure 7: synthetic speedups ---------------------------------------------


def figure7(seed: int = DEFAULT_SEED,
            block_sizes: Optional[List[int]] = None,
            workers: int = 1,
            timeout: Optional[float] = None,
            trace: Optional[SweepTraceCollector] = None,
            builders: Optional[Dict[str, Callable[..., KernelCase]]] = None,
            machine: Optional[MachineConfig] = None,
            cache_dir: Optional[str] = None,
            progress: Optional[ProgressCallback] = None,
            ) -> Tuple[List[SpeedupRow], float]:
    """Synthetic benchmark speedups and their geomean (paper: 1.32×)."""
    sizes = block_sizes or SYNTHETIC_BLOCK_SIZES
    selected = builders if builders is not None else SYNTHETIC_BUILDERS
    rows = run_sweep(selected, {n: sizes for n in selected},
                     seed=seed, machine=machine, workers=workers,
                     timeout=timeout, trace=trace, trace_section="figure7",
                     cache_dir=cache_dir, progress=progress)
    return rows, geomean([r.speedup for r in rows])


# ---- Figure 8: real-world speedups -----------------------------------------------


@dataclass
class Figure8Result:
    rows: List[SpeedupRow]
    geomean_all: float
    geomean_best: float
    #: per kernel, the block size whose *baseline* runtime is best ('+')
    best_baseline_block: Dict[str, int]


def figure8(seed: int = DEFAULT_SEED,
            block_sizes: Optional[Dict[str, List[int]]] = None,
            workers: int = 1,
            timeout: Optional[float] = None,
            trace: Optional[SweepTraceCollector] = None,
            builders: Optional[Dict[str, Callable[..., KernelCase]]] = None,
            machine: Optional[MachineConfig] = None,
            cache_dir: Optional[str] = None,
            progress: Optional[ProgressCallback] = None,
            ) -> Figure8Result:
    """Real-benchmark speedups, geomean, and the paper's '+'-marked
    best-baseline-block-size analysis (paper: GM 1.15×, GM-best higher)."""
    sizes = block_sizes or REAL_BLOCK_SIZES
    selected = builders if builders is not None else REAL_WORLD_BUILDERS
    rows = run_sweep(selected, {n: sizes[n] for n in selected}, seed=seed,
                     machine=machine, workers=workers, timeout=timeout,
                     trace=trace, trace_section="figure8",
                     cache_dir=cache_dir, progress=progress)

    best_block: Dict[str, int] = {}
    for kernel in {r.kernel for r in rows}:
        kernel_rows = [r for r in rows if r.kernel == kernel]
        # Normalize by block size: cycles per element would differ across
        # block sizes because input size scales with block size here, so
        # compare cycles per thread.
        best = min(kernel_rows,
                   key=lambda r: r.baseline_cycles / (r.block_size * DEFAULT_GRID_DIM))
        best_block[kernel] = best.block_size

    best_rows = [r for r in rows if best_block[r.kernel] == r.block_size]
    return Figure8Result(
        rows=rows,
        geomean_all=geomean([r.speedup for r in rows]),
        geomean_best=geomean([r.speedup for r in best_rows]),
        best_baseline_block=best_block,
    )


# ---- Figures 9 & 10: ALU utilization & memory counters -----------------------------


@dataclass
class CounterRow:
    kernel: str
    block_size: int
    baseline_alu_utilization: float
    cfm_alu_utilization: float
    normalized_vector_memory: float
    normalized_shared_memory: float
    normalized_flat_memory: float


def best_improvement_rows(rows: List[SpeedupRow]) -> List[SpeedupRow]:
    """Per kernel, the block size where CFM improves the most (§VI-C)."""
    chosen: Dict[str, SpeedupRow] = {}
    for row in rows:
        if row.kernel not in chosen or row.speedup > chosen[row.kernel].speedup:
            chosen[row.kernel] = row
    return [chosen[name] for name in sorted(chosen)]


def counters(rows: List[SpeedupRow]) -> List[CounterRow]:
    """Figures 9 and 10 for the given (already best-selected) rows."""
    result = []
    for row in rows:
        base = row.comparison.baseline
        cfm = row.comparison.melded

        def normalized(cfm_count: int, base_count: int) -> float:
            if base_count == 0:
                return 1.0 if cfm_count == 0 else float("inf")
            return cfm_count / base_count

        result.append(CounterRow(
            kernel=row.kernel,
            block_size=row.block_size,
            baseline_alu_utilization=base.alu_utilization,
            cfm_alu_utilization=cfm.alu_utilization,
            normalized_vector_memory=normalized(cfm.vector_memory_issues,
                                                base.vector_memory_issues),
            normalized_shared_memory=normalized(cfm.shared_memory_issues,
                                                base.shared_memory_issues),
            normalized_flat_memory=normalized(cfm.flat_memory_issues,
                                              base.flat_memory_issues),
        ))
    return result


# ---- Table I: capability matrix ------------------------------------------------------


@dataclass
class CapabilityRow:
    pattern: str
    technique: str
    divergent_branches_before: int
    divergent_branches_after: int
    outputs_correct: bool

    @property
    def melds(self) -> bool:
        """The technique reduced tid-dependent divergence."""
        return self.divergent_branches_after < self.divergent_branches_before


#: Table I's columns, in the paper's order (arms of the compile driver;
#: a row's technique name is the arm's reducer pass)
TABLE1_ARMS = ("o3-tail", "o3-bf", "o3-cfm")


def table1(seed: int = DEFAULT_SEED) -> List[CapabilityRow]:
    """Which technique melds which pattern (Table I)."""
    rows: List[CapabilityRow] = []
    for pattern_name, builder in PATTERN_BUILDERS.items():
        reference_case = builder()
        compile_arm(reference_case, "o3")
        reference = execute(reference_case, seed=seed)
        before = len(compute_divergence(reference_case.function)
                     .divergent_branch_blocks)
        for arm in TABLE1_ARMS:
            case = builder()
            compile_arm(case, arm)
            after = len(compute_divergence(case.function).divergent_branch_blocks)
            run = execute(case, seed=seed)
            rows.append(CapabilityRow(
                pattern=pattern_name,
                technique=ARM_STAGES[arm][1],
                divergent_branches_before=before,
                divergent_branches_after=after,
                outputs_correct=(run.outputs == reference.outputs),
            ))
    return rows


# ---- Table II: compile time -----------------------------------------------------------


@dataclass
class CompileTimeRow:
    kernel: str
    o3_seconds: float
    cfm_seconds: float

    @property
    def normalized(self) -> float:
        """CFM-enabled compile time over the O3 baseline (Table II)."""
        if self.o3_seconds == 0:
            return 1.0
        return self.cfm_seconds / self.o3_seconds


def table2(block_size: int = 32, grid_dim: int = DEFAULT_GRID_DIM,
           repeats: int = 3) -> List[CompileTimeRow]:
    """Compile time with and without CFM for the real kernels: the
    fastest of ``repeats`` compiles per arm, so one collector pause or
    scheduler hiccup cannot reorder kernels that compile in a few ms."""
    rows: List[CompileTimeRow] = []
    for name, builder in REAL_WORLD_BUILDERS.items():
        o3: List[float] = []
        cfm: List[float] = []
        for _ in range(repeats):
            base_case = builder(block_size=block_size, grid_dim=grid_dim)
            o3.append(compile_baseline(base_case).total_seconds)
            cfm_case = builder(block_size=block_size, grid_dim=grid_dim)
            cfm.append(compile_cfm(cfm_case).total_seconds)
        rows.append(CompileTimeRow(kernel=name, o3_seconds=min(o3),
                                   cfm_seconds=min(cfm)))
    return rows
