"""Standard transformation passes — the ``-O3`` substrate CFM sits on.

The paper inserts CFM into the ROCm HIPCC pipeline after ``-O3`` device
IR generation (§V-A); :func:`o3_pipeline` reproduces the relevant slice
of that pipeline (folding, unrolling, CFG cleanup, if-conversion) and
:func:`optimize` drives it to a fixpoint.
"""

from .pass_manager import (
    CallablePass,
    FixpointError,
    FunctionPass,
    Pass,
    PassHook,
    PassPipeline,
    PassResult,
    PassTiming,
    as_pass,
)
from .dce import eliminate_dead_code
from .constfold import fold_constants
from .cse import eliminate_common_subexpressions
from .simplifycfg import (
    fold_redundant_branches,
    merge_straightline_blocks,
    remove_forwarding_blocks,
    remove_trivial_phis,
    remove_unreachable_blocks,
    simplify_cfg,
)
from .ssa_repair import repair_ssa
from .clone import ClonedSubgraph, clone_blocks, clone_module
from .unroll import compute_trip_count, unroll_loop, unroll_loops
from .speculate import speculate_hammocks
from .licm import hoist_loop_invariants

__all__ = [
    "CallablePass", "FixpointError", "FunctionPass",
    "Pass", "PassHook", "PassPipeline", "PassResult", "PassTiming",
    "as_pass",
    "eliminate_dead_code", "fold_constants",
    "eliminate_common_subexpressions",
    "fold_redundant_branches", "merge_straightline_blocks",
    "remove_forwarding_blocks", "remove_trivial_phis",
    "remove_unreachable_blocks", "simplify_cfg",
    "repair_ssa",
    "ClonedSubgraph", "clone_blocks", "clone_module",
    "compute_trip_count", "unroll_loop", "unroll_loops",
    "speculate_hammocks", "hoist_loop_invariants",
    "o3_pipeline", "optimize", "late_pipeline",
]


def o3_pipeline() -> PassPipeline:
    """The baseline optimization pipeline (HIPCC ``-O3`` stand-in)."""
    return PassPipeline([
        ("constfold", fold_constants),
        ("simplifycfg", simplify_cfg),
        ("licm", hoist_loop_invariants),
        ("unroll", unroll_loops),
        ("speculate", speculate_hammocks),
        ("constfold2", fold_constants),
        ("cse", eliminate_common_subexpressions),
        ("simplifycfg2", simplify_cfg),
        ("dce", eliminate_dead_code),
    ])


def late_pipeline() -> PassPipeline:
    """The "rest of the compilation flow" after a divergence-reduction
    pass: late SimplifyCFG and the aggressive if-conversion that §IV-G
    notes re-predicates pure unpredicated blocks, then DCE.  The compile
    driver (:mod:`repro.pipeline`) appends these to the reducer, so
    every client sees the identical §V-A pipeline."""
    return PassPipeline([
        ("late-simplifycfg", simplify_cfg),
        ("late-speculate", speculate_hammocks),
        ("late-simplifycfg2", simplify_cfg),
        ("late-dce", eliminate_dead_code),
    ])


def optimize(function) -> PassPipeline:
    """Run the O3 pipeline to a fixpoint; returns the pipeline (timings)."""
    pipeline = o3_pipeline()
    pipeline.run_to_fixpoint(function)
    return pipeline
