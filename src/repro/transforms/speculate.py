"""Speculation (if-conversion): flatten tiny hammocks into ``select``s.

ROCm HIPCC "applied if-conversion aggressively", which in the paper's
bitonic case re-predicated the instructions CFM's unpredication had split
out (§IV-G, §VI-C).  This pass reproduces that behaviour: side-effect-free
diamonds and triangles whose arms are small enough are collapsed, with φ
nodes replaced by ``select``.

It is also the ablation knob for studying the unpredication interaction
(the `benchmarks/` ablations run CFM with and without it).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Branch, Instruction, Select
from repro.ir.values import Constant


#: arms larger than this stay branches (mirrors LLVM's speculation cost cap)
DEFAULT_MAX_SPECULATED = 8


def _speculatable_arm(block: BasicBlock, head: BasicBlock, merge: BasicBlock
                      ) -> Optional[List[Instruction]]:
    """``block`` qualifies as a hoistable arm of ``head``: single pred,
    single succ to ``merge``, all instructions speculatable."""
    if block.single_pred is not head or block.single_succ is not merge:
        return None
    term = block.terminator
    if not isinstance(term, Branch) or term.is_conditional:
        return None
    body = [i for i in block.instructions if i is not term]
    if len(body) > DEFAULT_MAX_SPECULATED:
        return None
    if any(not i.is_speculatable for i in body):
        return None
    return body


def speculate_hammocks(function: Function) -> bool:
    """Flatten hammocks, first head in block order first, to a fixpoint.

    After a flatten the head ends in an unconditional branch, so only a
    block whose arm is the head — one of its predecessors — can newly
    qualify, and the scan resumes at the earliest of them instead of
    block 0.  The one exception restarts at block 0: a φ forwarded to a
    literal can make a may-trap instruction in any block speculatable
    (:func:`repro.ir.scalars.trap_operand` reads literal operands)."""
    changed = False
    start = 0
    while True:
        flattened = _speculate_once(function.blocks[start:])
        if flattened is None:
            return changed
        changed = True
        head, to_literal = flattened
        blocks = function.blocks
        start = 0 if to_literal else min(
            blocks.index(b) for b in (head, *head._preds))


def _speculate_once(blocks: List[BasicBlock]
                    ) -> Optional[Tuple[BasicBlock, bool]]:
    """Flatten the first speculatable hammock headed in ``blocks``;
    returns its head and :func:`_flatten`'s answer, or ``None``."""
    for head in blocks:
        term = head.terminator
        if not isinstance(term, Branch) or not term.is_conditional:
            continue
        true_block, false_block = term.true_successor, term.false_successor
        if true_block is false_block:
            continue

        # Diamond: head -> (T|F) -> merge.
        merge = true_block.single_succ
        if merge is not None and false_block.single_succ is merge:
            true_body = _speculatable_arm(true_block, head, merge)
            false_body = _speculatable_arm(false_block, head, merge)
            if true_body is not None and false_body is not None:
                return head, _flatten(head, term, merge, true_block, true_body,
                                      false_block, false_body)

        # Triangle: head -> T -> merge, head -> merge.
        for arm, other, arm_is_true in ((true_block, false_block, True),
                                        (false_block, true_block, False)):
            if arm.single_succ is other:
                body = _speculatable_arm(arm, head, other)
                if body is None:
                    continue
                return head, _flatten(
                    head, term, other,
                    arm if arm_is_true else None, body if arm_is_true else [],
                    None if arm_is_true else arm, [] if arm_is_true else body)
    return None


def _flatten(head: BasicBlock, term: Branch, merge: BasicBlock,
             true_block: Optional[BasicBlock], true_body: List[Instruction],
             false_block: Optional[BasicBlock], false_body: List[Instruction]) -> bool:
    """Hoist the arms into ``head``; True if a φ was forwarded to a
    literal."""
    cond = term.condition
    to_literal = False
    # Hoist both arms into the head, in order, before the terminator.
    for source, body in ((true_block, true_body), (false_block, false_body)):
        if source is None:
            continue
        for instr in body:
            source._remove_instruction(instr)
            instr.parent = head
            head.insert_before_terminator(instr)

    # φs in the merge become selects keyed on the branch condition.  The
    # merge may have predecessors beyond the flattened arms; those keep
    # their φ entries, only the arm/head entries collapse into the select.
    arm_preds = {b for b in (true_block, false_block, head) if b is not None}
    for phi in list(merge.phis):
        true_value = phi.incoming_for(true_block or head)
        false_value = phi.incoming_for(false_block or head)
        if true_value is false_value:
            merged_value = true_value
        else:
            merged_value = Select(cond, true_value, false_value, phi.name)
            head.insert_before_terminator(merged_value)
        other_incoming = [(v, p) for v, p in phi.incoming if p not in arm_preds]
        if other_incoming:
            for pred in [p for p in phi.incoming_blocks if p in arm_preds]:
                phi.remove_incoming(pred)
            phi.add_incoming(merged_value, head)
        else:
            phi.replace_all_uses_with(merged_value)
            phi.erase_from_parent()
            to_literal |= isinstance(merged_value, Constant)

    head.replace_terminator(Branch([merge]))
    for source in (true_block, false_block):
        if source is not None:
            # Arm blocks are now empty (only their unconditional branch
            # remains) and unreachable.
            source.terminator.erase_from_parent()
            source.erase()
    return to_literal
