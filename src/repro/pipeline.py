"""The compile driver: the paper's pipeline and its cache protocol, once.

Every number in the paper compares *arms* of one pipeline that differ
only in the divergence-reduction pass slotted after ``-O3`` (§V-A: HIPCC
``-O3`` → CFM → "rest of the flow"; Table I swaps in tail merging and
branch fusion).  This module owns exactly two decisions:

* **the arm matrix** — :data:`ARM_STAGES` maps each arm name to its
  ``(o3, reducer)`` pair and :func:`stages` builds the pass pipelines
  for a pair: the ``-O3`` fixpoint stage and/or **one**
  :class:`~repro.transforms.PassPipeline` hosting the reducer followed
  by the late cleanups.  Hosting the reducer in a pipeline is what makes
  its ``pass:<name>`` span, its ``repro_compile_pass_seconds`` sample,
  its IR sizes and its ``after_each`` hooks come for free
  (``pass_manager._run_once`` does all four for every hosted pass);
* **the cache protocol** — :func:`compile_arm` probes the full-pipeline
  key, falls through to the shared ``"o3"`` entry for the CFM arm, runs
  what is left, verifies, lowers and stores.

``repro.compile``, ``compile_baseline``/``compile_cfm``, the lint
levels, the differential oracle's arms, Table I, the job server and the
``repro.ir`` CLI are all thin callers of :func:`compile_arm`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.baselines import BranchFusionPass, TailMergingPass
from repro.compile_cache import CompileCache, cfm_pipeline_id
from repro.core import CFMConfig, CFMPass, CFMStats
from repro.ir import Function, print_module, verify_function
from repro.kernels.common import KernelCase
from repro.kernels.dsl import KernelBuilder
from repro.obs import current_tracer
from repro.simt import MachineConfig, lower_symbolic
from repro.transforms import (
    PassHook,
    PassPipeline,
    PassTiming,
    late_pipeline,
    o3_pipeline,
)

KernelLike = Union[Function, KernelBuilder, KernelCase]

#: arm name -> (run ``-O3`` first, name of the reducer pass slotted after it)
ARM_STAGES: Dict[str, Tuple[bool, Optional[str]]] = {
    "noopt": (False, None),
    "o3": (True, None),
    "o3-cfm": (True, "cfm"),
    "o3-tail": (True, "tail-merging"),
    "o3-bf": (True, "branch-fusion"),
}
#: every arm of the matrix, in reporting order
ARMS = tuple(ARM_STAGES)
#: reducer pass name -> its :class:`~repro.transforms.Pass` class
REDUCERS = {cls.name: cls
            for cls in (CFMPass, TailMergingPass, BranchFusionPass)}

#: a named arm, or a raw ``(o3, reducer)`` pair (the facade's
#: ``level="none", cfm=True`` is ``(False, "cfm")``, which has no name)
Arm = Union[str, Tuple[bool, Optional[str]]]


def resolve_arm(arm: Arm) -> Tuple[bool, Optional[str]]:
    """The ``(o3, reducer)`` pair of ``arm``."""
    if not isinstance(arm, str):
        return arm
    if arm not in ARM_STAGES:
        raise ValueError(f"unknown arm {arm!r}; expected one of {ARMS}")
    return ARM_STAGES[arm]


def as_function(kernel: Union[KernelLike, "CompileResult"]) -> Function:
    if isinstance(kernel, Function):
        return kernel
    if isinstance(kernel, (KernelBuilder, KernelCase, CompileResult)):
        return kernel.function
    raise TypeError(
        f"expected a Function, KernelBuilder, KernelCase or CompileResult, "
        f"got {kernel!r}")


@dataclass
class CompileResult:
    """Outcome of one :func:`compile_arm` call (Table II raw data)."""

    #: the compiled function (on a cache hit, the replayed one)
    function: Optional[Function] = None
    arm: Arm = "o3"
    o3_seconds: float = 0.0
    #: reducer + late cleanups (the stage after ``-O3``)
    cfm_seconds: float = 0.0
    #: melding statistics of the CFM arm, else None
    cfm_stats: Optional[CFMStats] = None
    #: the O3 stage was replayed from a :class:`CompileCache`
    o3_cached: bool = False
    #: the whole O3+CFM+late pipeline was replayed in one lookup
    cfm_cached: bool = False
    #: per-pass executions, in order (O3 fixpoint, then reducer + late
    #: cleanups); replayed ones report the original run and are flagged
    pass_timings: List[PassTiming] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.o3_seconds + self.cfm_seconds

    seconds = total_seconds

    @property
    def cached(self) -> bool:
        """The whole result was replayed from a compile cache."""
        return self.cfm_cached if resolve_arm(self.arm)[1] else self.o3_cached

    @property
    def melds(self) -> int:
        return len(self.cfm_stats.melds) if self.cfm_stats else 0

    @property
    def level(self) -> str:
        """The facade's ``compile(level=...)`` spelling of the arm."""
        return "O3" if resolve_arm(self.arm)[0] else "none"


def stages(o3: bool, reducer: Optional[str],
           cfm_config: Optional[CFMConfig] = None, *,
           after_each: Sequence[PassHook] = ()
           ) -> Tuple[Optional[PassPipeline], Optional[PassPipeline]]:
    """``(-O3 stage, reducer stage)`` of one ``(o3, reducer)`` pair; a
    stage the pair does not run is None.  The ``-O3`` stage runs to a
    fixpoint, the reducer stage (reducer, then the late cleanups) once.
    Both stages run the same ``after_each`` hooks."""
    o3_stage = reducer_stage = None
    if o3:
        o3_stage = PassPipeline(o3_pipeline().passes, after_each)
    if reducer is not None:
        reducer_pass = (CFMPass(cfm_config) if reducer == "cfm"
                        else REDUCERS[reducer]())
        reducer_stage = PassPipeline(
            [reducer_pass, *late_pipeline().passes], after_each)
    return o3_stage, reducer_stage


def _swap_in(kernel, module) -> Function:
    """Point ``kernel`` at a replayed module; returns its function."""
    name = kernel.function.name
    kernel.module = module
    if isinstance(kernel, KernelBuilder):
        kernel.function = module.functions[name]
        # A finished builder emits nothing more; its emitter state points
        # into the function just replaced and would keep it alive.
        kernel._builder = None
        kernel._vars = []
    return module.functions[name]


def compile_arm(kernel: KernelLike, arm: Arm,
                cfm_config: Optional[CFMConfig] = None, *,
                cache: Optional[CompileCache] = None,
                machine: Optional[MachineConfig] = None,
                verify: bool = True,
                after_each: Sequence[PassHook] = ()) -> CompileResult:
    """Compile ``kernel`` in place under ``arm``.

    With a ``cache``, the ``o3`` and ``o3-cfm`` arms of a builder/case
    are content-keyed on the printed input IR.  The **whole** pipeline
    result is probed first (profiling shows the CFM stage, not ``-O3``,
    dominates compile time); on a miss the CFM arm falls through to the
    shared ``"o3"`` entry, so the two arms of one comparison share one
    ``-O3`` run.  A hit swaps a module of its own into the kernel (its
    bodies parsed on first touch) and reports the *original* run's
    seconds and timings.  With a ``machine``, entries carry the lowered
    µop program for it, so a warm launch neither lowers nor parses.  Raw
    :class:`~repro.ir.Function` inputs stay uncached — the in-place
    contract leaves nothing to swap.

    A result is verified before it is stored, whatever ``verify`` says,
    so cached entries were verified by the run that produced them; as
    print/parse round-trips exactly, nothing is verified on a hit.
    ``after_each`` are :func:`stages`' per-pass hooks.
    """
    o3, reducer = resolve_arm(arm)
    function = as_function(kernel)
    with current_tracer().span(f"compile:{function.name}",
                               cat="compile") as span:
        result = CompileResult(function, arm)
        full_key = o3_key = full_hit = None
        if (cache is not None and o3 and reducer in (None, "cfm")
                and kernel is not function and function.module is not None):
            printed = print_module(function.module)
            full_key = CompileCache.key(
                cfm_pipeline_id(cfm_config) if reducer else "o3", printed)
            hit = full_hit = cache.lookup(full_key, machine=machine)
            if hit is None and reducer:
                o3_key = CompileCache.key("o3", printed)
                hit = cache.lookup(o3_key)
            if hit is not None:
                result.function = function = _swap_in(kernel, hit.module)
                result.o3_seconds, result.o3_cached = hit.seconds, True
                result.pass_timings = list(hit.timings)
        if full_hit is not None:
            result.cfm_seconds = full_hit.cfm_seconds
            result.cfm_stats = full_hit.cfm_stats
            result.cfm_cached = full_hit.cfm_stats is not None
        else:
            o3_stage, reducer_stage = stages(
                o3 and not result.o3_cached, reducer, cfm_config,
                after_each=after_each)
            if o3_stage is not None:
                start = time.perf_counter()
                o3_stage.run_to_fixpoint(function)
                result.o3_seconds = time.perf_counter() - start
                result.pass_timings = list(o3_stage.timings)
                if o3_key is not None:
                    cache.store(o3_key, function.module, result.o3_seconds,
                                result.pass_timings)
            if reducer_stage is not None:
                start = time.perf_counter()
                reducer_stage.run(function)
                result.cfm_seconds = time.perf_counter() - start
                result.pass_timings += reducer_stage.timings
                result.cfm_stats = getattr(reducer_stage.passes[0],
                                           "stats", None)
            if verify or full_key is not None:
                verify_function(function)
            if full_key is not None:
                program = (lower_symbolic(function, machine.latency)
                           if machine is not None else None)
                cache.store(full_key, function.module, result.o3_seconds,
                            result.pass_timings, program=program,
                            machine=machine, cfm_seconds=result.cfm_seconds,
                            cfm_stats=result.cfm_stats)
        span.set(level=result.level, cfm=reducer == "cfm",
                 melds=result.melds)
    return result
