"""Compile-and-run plumbing for the evaluation harness.

``compile_baseline`` reproduces the paper's baseline: hand-written kernel
compiled at ``-O3`` (folding, unrolling, CFG cleanup, if-conversion).
``compile_cfm`` inserts the CFM pass after ``-O3`` and reruns the late
cleanups, exactly as §V-A describes the modified HIPCC pipeline (and as
§IV-G observes, the late if-conversion re-predicates what unpredication
split, so both configurations see the same late passes).

Both are named arms of the compile driver
(:func:`repro.pipeline.compile_arm`), which owns the pipeline and the
:class:`~repro.compile_cache.CompileCache` protocol (re-exported here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.compile_cache import CacheHit, CompileCache, cfm_pipeline_id
from repro.core import CFMConfig
from repro.kernels.common import KernelCase
from repro.pipeline import CompileResult, compile_arm
from repro.simt import DEFAULT_CONFIG, MachineConfig, Metrics, run_kernel

__all__ = [
    "CompileCache", "CacheHit", "cfm_pipeline_id",
    "CompileResult", "RunResult", "Comparison",
    "compile_baseline", "compile_cfm", "compare", "execute", "geomean",
]


def compile_baseline(case: KernelCase,
                     cache: Optional[CompileCache] = None,
                     machine: Optional[MachineConfig] = None
                     ) -> CompileResult:
    """``-O3`` pipeline only (the ``o3`` arm of
    :func:`repro.pipeline.compile_arm`)."""
    return compile_arm(case, "o3", cache=cache, machine=machine)


def compile_cfm(case: KernelCase, config: Optional[CFMConfig] = None,
                cache: Optional[CompileCache] = None,
                machine: Optional[MachineConfig] = None) -> CompileResult:
    """``-O3`` + CFM + late cleanups, the §V-A pipeline (the ``o3-cfm``
    arm of :func:`repro.pipeline.compile_arm`)."""
    return compile_arm(case, "o3-cfm", config, cache=cache, machine=machine)


@dataclass
class RunResult:
    """One kernel execution: metrics + verified outputs."""

    metrics: Metrics
    outputs: Dict[str, List[int]]


def execute(case: KernelCase, seed: int = 1234,
            machine: Optional[MachineConfig] = None,
            check: bool = True,
            trace_label: Optional[str] = None) -> RunResult:
    inputs = case.make_buffers(seed)
    outputs, metrics = run_kernel(
        case.module, case.kernel, case.grid_dim, case.block_dim,
        buffers={name: list(data) for name, data in inputs.items()},
        scalars=case.scalars, machine=machine, trace_label=trace_label)
    if check:
        case.verify_outputs(inputs, outputs)
    return RunResult(metrics=metrics, outputs=outputs)


@dataclass
class Comparison:
    """Baseline-vs-CFM measurement for one kernel configuration."""

    name: str
    block_size: int
    baseline: Metrics
    melded: Metrics
    baseline_compile: CompileResult
    cfm_compile: CompileResult

    @property
    def speedup(self) -> float:
        return self.baseline.cycles / self.melded.cycles

    @property
    def melds(self) -> int:
        return self.cfm_compile.melds


def compare(
    builder: Callable[..., KernelCase],
    block_size: int,
    grid_dim: int = 2,
    seed: int = 1234,
    config: Optional[CFMConfig] = None,
    machine: Optional[MachineConfig] = None,
    name: Optional[str] = None,
    cache: Optional[CompileCache] = None,
) -> Comparison:
    """Build, compile and run one kernel both ways; outputs are verified
    against the kernel's reference — a CFM miscompile fails loudly.

    With a ``cache``, a cold comparison runs ``-O3`` once (the baseline
    arm populates it, the CFM arm replays it before melding) and a warm
    one — same process or, with a disk-backed cache, any later process —
    replays both arms outright, lowered µop programs included.
    """
    base_case = builder(block_size=block_size, grid_dim=grid_dim)
    cfm_case = builder(block_size=block_size, grid_dim=grid_dim)
    label = name or base_case.name
    machine = machine if machine is not None else DEFAULT_CONFIG

    base_compile = compile_baseline(base_case, cache=cache, machine=machine)
    cfm_compile = compile_cfm(cfm_case, config, cache=cache, machine=machine)
    # A Comparison outlives its cases and crosses the scheduler's pickle
    # boundary: it keeps the numbers, not the IR.
    base_compile.function = cfm_compile.function = None

    base_run = execute(base_case, seed=seed, machine=machine,
                       trace_label=f"o3:{label}-{block_size}")
    cfm_run = execute(cfm_case, seed=seed, machine=machine,
                      trace_label=f"cfm:{label}-{block_size}")
    assert base_run.outputs == cfm_run.outputs, \
        f"{base_case.name}: CFM changed observable outputs"

    return Comparison(
        name=name or base_case.name,
        block_size=block_size,
        baseline=base_run.metrics,
        melded=cfm_run.metrics,
        baseline_compile=base_compile,
        cfm_compile=cfm_compile,
    )


def geomean(values: Sequence[float]) -> float:
    """Geometric mean via log-domain summation.

    A naive running product over/underflows on long sweeps, and the old
    empty-input fallback of ``0.0`` silently zeroed GM columns in the
    report — both are hard errors now: empty input and non-positive
    entries raise :class:`ValueError`.
    """
    if not values:
        raise ValueError("geomean() of an empty sequence")
    log_sum = 0.0
    for value in values:
        if value <= 0.0:
            raise ValueError(
                f"geomean() requires positive values, got {value!r}")
        log_sum += math.log(value)
    return math.exp(log_sum / len(values))
