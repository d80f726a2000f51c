"""Branch fusion (Coutinho et al. 2011) — the stronger baseline of Table I.

Branch fusion generalizes tail merging with instruction alignment, but is
restricted to *diamond-shaped* divergent branches: both sides must be a
single basic block with a common successor.  As the paper observes, CFM
subsumes it — so the implementation literally runs CFM's melder on a
region whose subgraph decomposition is constrained to the
single-block/single-block case, refusing anything more complex.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.divergence import analyze_function
from repro.core.instr_align import align_mapping
from repro.core.meldable import find_meldable_region, subgraphs_meldable
from repro.core.melder import Melder
from repro.core.profitability import subgraph_profitability
from repro.core.sese import SESESubgraph
from repro.core.subgraph_align import SubgraphPair
from repro.core.unpredication import unpredicate
from repro.ir.function import Function
from repro.transforms.dce import eliminate_dead_code
from repro.transforms.simplifycfg import (
    fold_redundant_branches,
    remove_trivial_phis,
    remove_unreachable_blocks,
)
from repro.transforms.ssa_repair import repair_ssa


def fuse_branches(function: Function, profitability_threshold: float = 0.0,
                  max_iterations: int = 32) -> bool:
    """Fuse divergent diamonds to a fixpoint.  Returns True if changed."""
    changed = False
    for _ in range(max_iterations):
        if not _fuse_one(function, profitability_threshold):
            return changed
        changed = True
    return changed


def _fuse_one(function: Function, threshold: float) -> bool:
    analyses = analyze_function(function)
    for block in function.blocks:
        region = find_meldable_region(block, analyses.divergence,
                                      analyses.postdominators)
        if region is None:
            continue
        pair = _diamond_pair(region)
        if pair is None or pair.profitability <= threshold:
            continue
        result = Melder(function, region, pair,
                        align_mapping(pair.mapping)).meld()
        remove_unreachable_blocks(function)
        repair_ssa(function)
        unpredicate(function, result)
        progress = True
        while progress:
            progress = fold_redundant_branches(function)
            progress |= remove_trivial_phis(function)
            progress |= remove_unreachable_blocks(function)
        eliminate_dead_code(function)
        return True
    return False


def _diamond_pair(region) -> Optional[SubgraphPair]:
    """The diamond restriction: each path is exactly one basic block whose
    single successor is the region exit."""
    true_block = region.true_first
    false_block = region.false_first
    if true_block.single_succ is not region.exit:
        return None
    if false_block.single_succ is not region.exit:
        return None
    if true_block.single_pred is not region.entry:
        return None
    if false_block.single_pred is not region.entry:
        return None
    s_t = SESESubgraph(true_block, true_block, region.exit, {true_block})
    s_f = SESESubgraph(false_block, false_block, region.exit, {false_block})
    mapping = subgraphs_meldable(s_t, s_f)
    if mapping is None:
        return None
    return SubgraphPair(s_t, s_f, mapping, subgraph_profitability(mapping), 0, 0)
