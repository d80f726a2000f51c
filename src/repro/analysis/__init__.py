"""CFG analyses: dominance, regions, loops, divergence, latency,
the sparse SSA dataflow solver, value ranges, and the symbolic
meld translation validator."""

from .cfg import (
    reachable_blocks,
    reachable_from,
    reverse_postorder,
)
from .dominators import (
    DominatorTree,
    compute_dominator_tree,
    compute_postdominator_tree,
    dominance_frontier,
    immediate_postdominator,
    postdominance_frontier,
)
from .regions import Region, is_region, region_blocks, smallest_region_containing
from .loops import Loop, LoopInfo, compute_loop_info
from .divergence import (
    DivergenceInfo,
    FunctionAnalyses,
    analyze_function,
    cached_divergence,
    compute_divergence,
    function_analyses,
)
from .latency import DEFAULT_LATENCY_MODEL, LatencyModel
from .dataflow import SparseSolver
from .ranges import Interval, ValueRanges, compute_ranges
from .validate import (
    EQUIVALENT,
    INEQUIVALENT,
    MeldValidation,
    MeldValidationError,
    RegionCapture,
    UNSUPPORTED,
    VERDICTS,
    validate_melds_hook,
)

__all__ = [
    "reachable_blocks", "reachable_from", "reverse_postorder",
    "DominatorTree", "compute_dominator_tree", "compute_postdominator_tree",
    "dominance_frontier", "immediate_postdominator", "postdominance_frontier",
    "Region", "is_region", "region_blocks", "smallest_region_containing",
    "Loop", "LoopInfo", "compute_loop_info",
    "DivergenceInfo", "compute_divergence",
    "cached_divergence",
    "FunctionAnalyses", "analyze_function", "function_analyses",
    "DEFAULT_LATENCY_MODEL", "LatencyModel",
    "SparseSolver",
    "Interval", "ValueRanges", "compute_ranges",
    "EQUIVALENT", "INEQUIVALENT", "UNSUPPORTED", "VERDICTS",
    "MeldValidation", "MeldValidationError", "RegionCapture",
    "validate_melds_hook",
]
