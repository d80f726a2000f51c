"""Tail merging (cross-jumping) — the classic baseline of Table I.

Merges *literally identical* instruction suffixes of two unconditional
predecessors of a join block into a shared tail block.  This is the
restrictive technique the paper contrasts with: it requires the two
sides to execute the same opcodes on the **same operands** (value
identity), so the diamond-with-identical-sequences pattern merges fully,
while anything with side-specific operands (CFM's bread and butter) is
out of reach.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Branch, Instruction, Phi


def _identical(a: Instruction, b: Instruction,
               correspondence: dict) -> bool:
    """Identical instructions: same shape, and operands that are either
    the same value or corresponding earlier instructions of the suffix
    (the SSA rendition of 'identical code sequences' — in machine code
    the intra-suffix references are register names, which match too)."""
    return a.operand_signature() == b.operand_signature() and all(
        op_a is op_b or correspondence.get(op_b) is op_a
        for op_a, op_b in zip(a.operands, b.operands))


def _common_suffix(a: BasicBlock, b: BasicBlock) -> List[Tuple[Instruction, Instruction]]:
    """Pairs of identical instructions at the two blocks' tails (excluding
    terminators), in execution order.  Intra-suffix operand references are
    matched positionally, so the longest valid suffix is found by trying
    suffix lengths longest-first."""
    instrs_a = [i for i in a.instructions if not i.is_terminator
                and not isinstance(i, Phi)]
    instrs_b = [i for i in b.instructions if not i.is_terminator
                and not isinstance(i, Phi)]
    for length in range(min(len(instrs_a), len(instrs_b)), 0, -1):
        tail_a = instrs_a[-length:]
        tail_b = instrs_b[-length:]
        correspondence: dict = {}
        ok = True
        for instr_a, instr_b in zip(tail_a, tail_b):
            if instr_a is instr_b or not _identical(instr_a, instr_b,
                                                    correspondence):
                ok = False
                break
            correspondence[instr_b] = instr_a
        if ok:
            return list(zip(tail_a, tail_b))
    return []


def merge_tails(function: Function) -> bool:
    """Run tail merging to a fixpoint.  Returns True if the CFG changed."""
    changed = False
    while _merge_one(function):
        changed = True
    return changed


def _merge_one(function: Function) -> bool:
    for merge in function.blocks:
        preds = merge.preds
        if len(preds) != 2:
            continue
        a, b = preds
        if a is b:
            continue
        term_a, term_b = a.terminator, b.terminator
        if not isinstance(term_a, Branch) or term_a.is_conditional:
            continue
        if not isinstance(term_b, Branch) or term_b.is_conditional:
            continue
        suffix = _common_suffix(a, b)
        # Identical suffixes must not depend on side-local values outside
        # the suffix: an instruction whose operand is an earlier suffix
        # instruction is fine, anything else must be common to both sides
        # (enforced by _identical already, since operands are compared by
        # identity).  φ consistency in the join limits how deep we can go.
        suffix = _trim_for_phis(merge, a, b, suffix)
        if not suffix:
            continue
        _apply(function, merge, a, b, suffix)
        return True
    return False


def _trim_for_phis(merge: BasicBlock, a: BasicBlock, b: BasicBlock,
                   suffix: List[Tuple[Instruction, Instruction]]) -> List:
    """After merging, the join's φs receive one edge instead of two, so
    each φ's incoming values from a and b must be the same value once the
    suffix pairs are unified."""
    if not suffix:
        return suffix
    unified = {pair[1]: pair[0] for pair in suffix}
    for phi in merge.phis:
        value_a = phi.incoming_for(a)
        value_b = phi.incoming_for(b)
        value_b = unified.get(value_b, value_b)
        if value_a is not value_b:
            return []
    return suffix


def _apply(function: Function, merge: BasicBlock, a: BasicBlock, b: BasicBlock,
           suffix: List[Tuple[Instruction, Instruction]]) -> None:
    tail = function.add_block(f"{merge.name}.tail", after=a)
    # Move a's copies into the tail; b's copies die after RAUW.
    for instr_a, _ in suffix:
        a._remove_instruction(instr_a)
        instr_a.parent = tail
        tail._instructions.append(instr_a)
    for instr_a, instr_b in suffix:
        instr_b.replace_all_uses_with(instr_a)
    for _, instr_b in reversed(suffix):
        instr_b.erase_from_parent()
    tail.append(Branch([merge]))
    a.terminator.replace_successor(merge, tail)
    b.terminator.replace_successor(merge, tail)
    for phi in merge.phis:
        value = phi.incoming_for(a)
        phi.remove_incoming(a)
        phi.remove_incoming(b)
        phi.add_incoming(value, tail)
