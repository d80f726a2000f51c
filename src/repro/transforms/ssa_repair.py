"""SSA dominance repair: re-establish "defs dominate uses" with φ nodes.

CFM's subgraph melding can break SSA form (Figure 4 of the paper: after
melding, a definition from the true path no longer dominates its later
use).  The paper fixes this in ``PreProcess`` by inserting a φ whose
other incoming value is ``undef`` — the value provably flows only along
paths where it was actually defined.

This module implements the general version: for every definition with a
non-dominated use, φs are placed on the iterated dominance frontier of
the defining block, with ``undef`` flowing in from paths that bypass the
definition.  It is CFM's pre-processing step (Algorithm 2) generalized,
and doubles as a utility for any transform that displaces definitions.
"""

from __future__ import annotations

from typing import Collection, Dict, Optional, Set

from repro.analysis.dominators import (
    DominatorTree,
    compute_dominator_tree,
    dominance_frontier,
)
from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Phi
from repro.ir.values import Undef, Value


def repair_ssa(function: Function,
               scope: Optional[Collection[BasicBlock]] = None,
               dominators: Optional[DominatorTree] = None) -> bool:
    """Fix def-use dominance violations.  Returns True if changed.

    ``scope`` names the blocks whose definitions may have lost dominance
    (default: every block).  A transform that displaced definitions only
    inside a single-entry region passes that region's blocks: dominance
    between blocks outside it is untouched, and a definition outside it
    either dominates the region's entry — hence still everything inside
    — or reaches no use inside at all.  Definitions are visited in
    function order either way, so a scope that covers every violation
    yields the same IR as no scope.  ``dominators`` is the current CFG's
    dominator tree when the caller keeps one.
    """
    changed = False
    # φ insertion does not change the CFG: one tree serves every repair.
    dt = compute_dominator_tree(function) if dominators is None else dominators
    frontier = None
    for block in function.blocks:
        if scope is not None and block not in scope:
            continue
        for instr in block.instructions:
            if instr.type.is_void or not instr.is_used:
                continue
            if _has_violation(dt, instr):
                if frontier is None:
                    frontier = dominance_frontier(function, dt)
                _repair_definition(function, dt, frontier, instr)
                changed = True
    return changed


def _has_violation(dt: DominatorTree, instr: Instruction) -> bool:
    for user, index in instr.uses:
        if not isinstance(user, Instruction) or user.parent is None:
            continue
        use_index = index if isinstance(user, Phi) else None
        if not dt.instruction_dominates(instr, user, use_index):
            return True
    return False


def _repair_definition(function: Function, dt: DominatorTree,
                       frontier: Dict[BasicBlock, Set[BasicBlock]],
                       definition: Instruction) -> None:
    """Single-definition SSA reconstruction with undef elsewhere."""
    def_block = definition.parent

    # Iterated dominance frontier of the defining block.
    idf: Set[BasicBlock] = set()
    work = [def_block]
    while work:
        block = work.pop()
        for candidate in frontier.get(block, ()):  # DF may lack new blocks
            if candidate not in idf:
                idf.add(candidate)
                work.append(candidate)

    # One φ per join block, wired lazily.
    phis: Dict[BasicBlock, Phi] = {}
    for join in idf:
        phi = Phi(definition.type, definition.name or "ssa")
        join.insert_after_phis(phi)
        phis[join] = phi

    def available_at_end(block: BasicBlock) -> Value:
        """The reaching value of ``definition`` at the end of ``block``."""
        node: Optional[BasicBlock] = block
        while node is not None:
            if node in phis:
                return phis[node]
            if node is def_block:
                return definition
            node = dt.idom(node) if dt.contains(node) else None
        return Undef(definition.type)

    for join, phi in phis.items():
        for pred in join.preds:
            phi.add_incoming(available_at_end(pred), pred)

    def available_for_use(user: Instruction, index: int) -> Value:
        if isinstance(user, Phi):
            return available_at_end(user.incoming_blocks[index])
        block = user.parent
        if block is def_block:
            instrs = block.instructions
            if instrs.index(definition) < instrs.index(user):
                return definition
        if block in phis:
            return phis[block]
        parent = dt.idom(block) if dt.contains(block) else None
        return available_at_end(parent) if parent is not None else Undef(definition.type)

    for user, index in definition.uses:
        if not isinstance(user, Instruction) or user in phis.values():
            continue
        use_index = index if isinstance(user, Phi) else None
        if dt.instruction_dominates(definition, user, use_index):
            continue
        user.set_operand(index, available_for_use(user, index))

    # Drop the φs nothing ended up using (keeps IR tidy without a DCE run).
    for phi in phis.values():
        _erase_if_dead(phi)


def _erase_if_dead(phi: Phi) -> None:
    users = set(u for u, _ in phi.uses)
    if users - {phi}:
        return
    # A dead φ may still feed itself (loop-header φ whose only use is its
    # own back-edge incoming).  Detach the self-references through the
    # operand API — not by editing the use list directly, which would
    # leave operand slots pointing at the φ and blow up the use-list
    # bookkeeping when erase_from_parent() drops the operands.
    for index, op in enumerate(list(phi.operands)):
        if op is phi:
            phi.set_operand(index, Undef(phi.type))
    phi.erase_from_parent()
