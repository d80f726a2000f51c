"""Region detection (LLVM ``RegionInfo``-style) for CFM.

A *region* ``(entry, exit)`` (Definition 2 of the paper) is a connected CFG
subgraph such that every edge from outside the region enters at ``entry``
and every edge leaving it targets ``exit``.  A *simple region* has exactly
one entry edge and one exit edge (Definition 1).

The CFM pass only needs two operations, both provided here:

* :func:`is_region` — validate a candidate ``(entry, exit)`` pair by direct
  edge inspection (sound for arbitrary CFGs, and cheap at the CFG sizes the
  pass encounters);
* :func:`smallest_region_containing` — the divergent region of a branch:
  the smallest valid ``(B, X)`` with ``X`` on ``B``'s IPDOM chain (§IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from repro.ir.block import BasicBlock

from .cfg import reachable_from
from .dominators import DominatorTree, immediate_postdominator

#: IPDOM-chain candidates :func:`smallest_region_containing` tries as exits
MAX_CHAIN = 64


@dataclass
class Region:
    """A validated CFG region.

    ``blocks`` contains every block of the region including ``entry`` but
    excluding ``exit`` (matching LLVM, where the exit is the first block
    *outside* the region).
    """

    entry: BasicBlock
    exit: BasicBlock
    blocks: Set[BasicBlock] = field(default_factory=set)

    def __contains__(self, block: BasicBlock) -> bool:
        return block in self.blocks

    @property
    def size(self) -> int:
        return len(self.blocks)

    def __repr__(self) -> str:
        return f"<Region ({self.entry.name}, {self.exit.name}) {self.size} blocks>"


def region_blocks(entry: BasicBlock, exit_: BasicBlock) -> Set[BasicBlock]:
    """Blocks reachable from ``entry`` without passing through ``exit``."""
    return reachable_from(entry, stop=exit_)


def is_region(entry: BasicBlock, exit_: BasicBlock) -> Optional[Region]:
    """Validate the candidate pair and return a :class:`Region`, or ``None``.

    Checks, by direct edge inspection:

    * ``exit`` is reachable from ``entry`` (non-trivial region);
    * no edge from outside targets a region block other than ``entry``;
    * every edge leaving a region block lands inside or on ``exit``.
    """
    if entry is exit_:
        return None
    blocks = region_blocks(entry, exit_)
    if not blocks:
        return None
    # The exit must actually be reachable, otherwise (entry, exit) encloses
    # an infinite loop or a disconnected pair.
    if exit_ not in {s for b in blocks for s in b.succs}:
        return None
    for block in blocks:
        for succ in block.succs:
            if succ not in blocks and succ is not exit_:
                return None
        if block is entry:
            continue
        for pred in block.preds:
            if pred not in blocks:
                return None
    return Region(entry, exit_, blocks)


def smallest_region_containing(
    branch_block: BasicBlock,
    pdt: DominatorTree,
) -> Optional[Region]:
    """The smallest valid region whose entry is ``branch_block``.

    Candidate exits are taken from the immediate-post-dominator chain of
    ``branch_block`` (the reconvergence points); the first candidate that
    forms a valid region wins.  Returns ``None`` when no candidate on the
    chain yields a region (e.g. branches into irreducible control flow).
    """
    exit_ = immediate_postdominator(pdt, branch_block)
    for _ in range(MAX_CHAIN):
        if exit_ is None:
            return None
        region = is_region(branch_block, exit_)
        if region is not None:
            return region
        exit_ = immediate_postdominator(pdt, exit_)
    return None

