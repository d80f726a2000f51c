"""Meldable divergent regions and meldable subgraph pairs (Defs. 5 & 6).

A *meldable divergent region* is a region ``(E, X)`` whose entry ends in
a divergent conditional branch and whose two successors do not
post-dominate each other (so both paths contain at least one SESE
subgraph).  Two SESE subgraphs from opposite paths are *meldable* when
they are structurally isomorphic under an **ordered** mapping: entry maps
to entry, and the i-th successor of a block maps to the i-th successor of
its image.  Ordered matching is what lets the melder pick the branch
target by position and select between the two conditions (§IV-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.divergence import DivergenceInfo
from repro.analysis.dominators import DominatorTree
from repro.analysis.regions import Region, smallest_region_containing
from repro.ir.block import BasicBlock
from repro.ir.instructions import Branch, Call

from .sese import SESESubgraph


@dataclass
class MeldableRegion:
    """A divergent region plus its path decomposition inputs."""

    region: Region
    branch: Branch

    @property
    def entry(self) -> BasicBlock:
        return self.region.entry

    @property
    def exit(self) -> BasicBlock:
        return self.region.exit

    @property
    def condition(self):
        return self.branch.condition

    @property
    def true_first(self) -> BasicBlock:
        return self.branch.true_successor

    @property
    def false_first(self) -> BasicBlock:
        return self.branch.false_successor


def find_meldable_region(
    block: BasicBlock,
    divergence: DivergenceInfo,
    pdt: DominatorTree,
) -> Optional[MeldableRegion]:
    """Definition 5 for the region rooted at ``block``."""
    if not divergence.has_divergent_branch(block):
        return None
    term = block.terminator
    if not isinstance(term, Branch) or not term.is_conditional:
        return None
    true_succ, false_succ = term.true_successor, term.false_successor
    if true_succ is false_succ:
        return None
    # Condition 2: neither successor post-dominates the other.
    if pdt.dominates(true_succ, false_succ) or pdt.dominates(false_succ, true_succ):
        return None
    region = smallest_region_containing(block, pdt)
    if region is None:
        return None
    # Both successors must lie inside the region (paths B_T -> X, B_F -> X).
    if true_succ not in region.blocks and true_succ is not region.exit:
        return None
    if false_succ not in region.blocks and false_succ is not region.exit:
        return None
    return MeldableRegion(region, term)


# ---- ordered isomorphism (Definition 6) --------------------------------------


def subgraph_isomorphism(
    s1: SESESubgraph,
    s2: SESESubgraph,
) -> Optional[List[Tuple[BasicBlock, BasicBlock]]]:
    """The ordered block mapping ``O`` of two meldable subgraphs, or
    ``None``.

    Conditions checked (Definition 6 collapses to one uniform rule under
    ordered matching — cases ① ③ directly, case ② is rejected here and
    handled by the caller only if both sides are simple regions of equal
    shape, which this function subsumes):

    * the graphs have the same number of blocks;
    * walking from the entries, i-th successors correspond;
    * exits correspond;
    * the pairing is a bijection.
    """
    if s1.blocks & s2.blocks:
        return None  # overlapping subgraphs can never execute disjointly
    if len(s1.blocks) != len(s2.blocks):
        return None
    mapping: Dict[BasicBlock, BasicBlock] = {}
    reverse: Dict[BasicBlock, BasicBlock] = {}
    work: List[Tuple[BasicBlock, BasicBlock]] = [(s1.entry, s2.entry)]
    order: List[Tuple[BasicBlock, BasicBlock]] = []
    while work:
        a, b = work.pop(0)
        if a in mapping or b in reverse:
            if mapping.get(a) is b and reverse.get(b) is a:
                continue
            return None
        mapping[a] = b
        reverse[b] = a
        order.append((a, b))
        if (a is s1.exit) != (b is s2.exit):
            return None
        succs_a = _internal_successors(a, s1)
        succs_b = _internal_successors(b, s2)
        if succs_a is None or succs_b is None:
            return None
        if len(succs_a) != len(succs_b):
            return None
        work.extend(zip(succs_a, succs_b))
    if len(mapping) != len(s1.blocks):
        return None
    return order


def _internal_successors(block: BasicBlock, subgraph: SESESubgraph):
    """Ordered successor list restricted to the subgraph; the exit block's
    single external edge is dropped (it is handled by the melder's
    ``B_T'``/``B_F'`` machinery); any other external edge disqualifies."""
    term = block.terminator
    if not isinstance(term, Branch):
        return None
    result: List[BasicBlock] = []
    for succ in term.successors:
        if succ in subgraph.blocks:
            result.append(succ)
        elif block is subgraph.exit and succ is subgraph.target:
            continue
        else:
            return None
    return result


@dataclass
class PartialMapping:
    """Case ② of Definition 6: a multi-block (simple-region) subgraph
    melded with a single-block subgraph.

    The single block melds into exactly one block of the region (the
    ``chosen`` one, picked by ``FP_B``); the region's structure is kept,
    and lanes from the single-block path are *routed* through it along a
    fixed entry → chosen → exit path: ``route`` records, for every
    conditional branch on that path, which successor index those lanes
    must take (the melder turns this into ``select C, cond, <const>``).
    """

    #: (region block, single block | None), region pre-order, entry first
    mapping: List[Tuple[BasicBlock, Optional[BasicBlock]]]
    chosen: BasicBlock
    route: Dict[BasicBlock, int]
    #: True when the region subgraph lies on the branch's true path
    region_on_true_path: bool


def region_block_mapping(
    region_sub: SESESubgraph,
    block_sub: SESESubgraph,
    region_on_true_path: bool,
) -> Optional[PartialMapping]:
    """Build the case-② mapping, or ``None`` when the pair is unsuitable
    (overlap, barriers, φs in the single block, or no usable route)."""
    if not block_sub.is_single_block or region_sub.is_single_block:
        return None
    if region_sub.blocks & block_sub.blocks:
        return None
    if contains_barrier(region_sub) or contains_barrier(block_sub):
        return None
    single = block_sub.entry
    if single.phis:
        return None
    if region_sub.exit is None:
        return None

    chosen = _best_partner_block(region_sub, single)
    if chosen is None:
        return None
    path = _route_path(region_sub, chosen)
    if path is None:
        return None
    route: Dict[BasicBlock, int] = {}
    for block, nxt in zip(path, path[1:]):
        term = block.terminator
        if isinstance(term, Branch) and term.is_conditional:
            route[block] = term.successors.index(nxt)

    order = _preorder_blocks(region_sub)
    mapping = [(block, single if block is chosen else None) for block in order]
    return PartialMapping(mapping, chosen, route, region_on_true_path)


def _best_partner_block(region_sub: SESESubgraph, single: BasicBlock):
    from .profitability import block_profitability

    best, best_score = None, 0.0
    for block in sorted(region_sub.blocks, key=lambda b: b.name):
        score = block_profitability(block, single)
        if score > best_score:
            best, best_score = block, score
    return best


def _route_path(region_sub: SESESubgraph, chosen: BasicBlock):
    """A concrete path entry → chosen → exit inside the subgraph."""
    first = _bfs_path(region_sub, region_sub.entry, chosen)
    if first is None:
        return None
    second = _bfs_path(region_sub, chosen, region_sub.exit)
    if second is None:
        return None
    return first + second[1:]


def _bfs_path(region_sub: SESESubgraph, start: BasicBlock, goal: BasicBlock):
    if start is goal:
        return [start]
    parents = {start: None}
    queue = [start]
    while queue:
        block = queue.pop(0)
        term = block.terminator
        if not isinstance(term, Branch):
            continue
        for succ in term.successors:
            if succ in region_sub.blocks and succ not in parents:
                parents[succ] = block
                if succ is goal:
                    path = [succ]
                    while parents[path[-1]] is not None:
                        path.append(parents[path[-1]])
                    path.reverse()
                    return path
                queue.append(succ)
    return None


def _preorder_blocks(subgraph: SESESubgraph) -> List[BasicBlock]:
    """Deterministic pre-order over the subgraph from its entry."""
    order: List[BasicBlock] = []
    seen = set()
    stack = [subgraph.entry]
    while stack:
        block = stack.pop()
        if block in seen:
            continue
        seen.add(block)
        order.append(block)
        term = block.terminator
        if isinstance(term, Branch):
            for succ in reversed(term.successors):
                if succ in subgraph.blocks:
                    stack.append(succ)
    return order


def contains_barrier(subgraph: SESESubgraph) -> bool:
    """Melding across barriers would change synchronization; such
    subgraphs are never meldable (they also indicate UB in the input:
    barriers under divergent control flow)."""
    for block in subgraph.blocks:
        for instr in block:
            if isinstance(instr, Call) and instr.is_barrier:
                return True
    return False


def subgraphs_meldable(
    s1: SESESubgraph,
    s2: SESESubgraph,
) -> Optional[List[Tuple[BasicBlock, BasicBlock]]]:
    """Definition 6 plus safety screens; returns the block mapping O."""
    if contains_barrier(s1) or contains_barrier(s2):
        return None
    return subgraph_isomorphism(s1, s2)
