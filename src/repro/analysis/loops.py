"""Natural-loop detection (``LoopInfo``).

The loop unroller (:mod:`repro.transforms.unroll`) relies on this analysis;
the paper's evaluation depends on ``-O3``-style unrolling to expose the
repeated isomorphic subgraphs that CFM melds (PCM, bitonic sort).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.ir.block import BasicBlock
from repro.ir.function import Function

from .cfg import _fast_succs, reverse_postorder
from .dominators import DominatorTree, compute_dominator_tree


@dataclass
class Loop:
    """A natural loop: header plus the union of its back-edge bodies."""

    header: BasicBlock
    blocks: Set[BasicBlock] = field(default_factory=set)
    parent: Optional["Loop"] = None
    children: List["Loop"] = field(default_factory=list)

    def __contains__(self, block: BasicBlock) -> bool:
        return block in self.blocks

    @property
    def latches(self) -> List[BasicBlock]:
        """Blocks inside the loop with an edge back to the header."""
        return [p for p in self.header.preds if p in self.blocks]

    @property
    def single_latch(self) -> Optional[BasicBlock]:
        latches = self.latches
        return latches[0] if len(latches) == 1 else None

    @property
    def exiting_blocks(self) -> List[BasicBlock]:
        """Blocks inside the loop with an edge leaving it."""
        return [b for b in self.blocks
                if any(s not in self.blocks for s in b.succs)]

    @property
    def exit_blocks(self) -> List[BasicBlock]:
        """Blocks outside the loop targeted by edges from inside."""
        seen: List[BasicBlock] = []
        for block in self.blocks:
            for succ in block.succs:
                if succ not in self.blocks and succ not in seen:
                    seen.append(succ)
        return seen

    @property
    def preheader(self) -> Optional[BasicBlock]:
        """The unique out-of-loop predecessor of the header whose only
        successor is the header, if it exists."""
        outside = [p for p in self.header.preds if p not in self.blocks]
        if len(outside) == 1 and outside[0].single_succ is self.header:
            return outside[0]
        return None

    @property
    def depth(self) -> int:
        depth = 1
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def __repr__(self) -> str:
        return f"<Loop header=%{self.header.name} ({len(self.blocks)} blocks)>"


class LoopInfo:
    """All natural loops of a function, with the nesting forest."""

    def __init__(self, loops: List[Loop]) -> None:
        self.loops = loops
        self._loop_of: Dict[BasicBlock, Loop] = {}
        # Innermost loop wins: assign from outermost to innermost.
        for loop in sorted(loops, key=lambda l: len(l.blocks), reverse=True):
            for block in loop.blocks:
                self._loop_of[block] = loop

    def loop_for(self, block: BasicBlock) -> Optional[Loop]:
        """The innermost loop containing ``block``."""
        return self._loop_of.get(block)

    def __iter__(self):
        return iter(self.loops)

    def __len__(self) -> int:
        return len(self.loops)


def compute_loop_info(function: Function,
                      order: Optional[List[BasicBlock]] = None,
                      dominators: Optional[DominatorTree] = None) -> LoopInfo:
    """Find natural loops via back edges (``latch -> header`` with header
    dominating latch), merging loops that share a header.  ``order`` is
    :func:`reverse_postorder` of the current CFG, and ``dominators`` its
    dominator tree, when the caller already has them."""
    dt = dominators
    if dt is None:
        if order is None:
            order = reverse_postorder(function)
        # A back edge targets a DFS ancestor, so it runs against the
        # reverse postorder; a CFG without such an edge (the usual case
        # after full unrolling) has no loops and needs no dominator tree.
        position = {block: index for index, block in enumerate(order)}
        if not any(position[succ] <= index
                   for index, block in enumerate(order)
                   for succ in _fast_succs(block)):
            return LoopInfo([])
        dt = compute_dominator_tree(function, order)
    back_edges: List[Tuple[BasicBlock, BasicBlock]] = []
    for block in function.blocks:
        if not dt.contains(block):
            continue
        for succ in block.succs:
            if dt.contains(succ) and dt.dominates(succ, block):
                back_edges.append((block, succ))

    loops_by_header: Dict[BasicBlock, Loop] = {}
    for latch, header in back_edges:
        loop = loops_by_header.setdefault(header, Loop(header, {header}))
        # Walk predecessors backwards from the latch until the header.
        work = [latch]
        while work:
            block = work.pop()
            if block in loop.blocks:
                continue
            loop.blocks.add(block)
            work.extend(block.preds)

    loops = list(loops_by_header.values())
    # Build the nesting forest: parent = smallest strictly-containing loop.
    for loop in loops:
        candidates = [
            other for other in loops
            if other is not loop and loop.header in other.blocks
            and loop.blocks < other.blocks
        ]
        if candidates:
            loop.parent = min(candidates, key=lambda l: len(l.blocks))
            loop.parent.children.append(loop)
    return LoopInfo(loops)
