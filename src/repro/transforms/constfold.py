"""Constant folding + trivial algebraic simplification.

Folding matters for the reproduction because loop unrolling exposes
constant induction-variable values; folding them turns the unrolled
bitonic/PCM bodies into the constant-index shared-memory code whose
isomorphic repetitions CFM melds.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.function import Function
from repro.ir.instructions import BinaryOp, Branch, Instruction, Opcode, Select
from repro.ir.scalars import EvalError, eval_strict, is_strict
from repro.ir.values import Constant, Value


def _const(value: Value) -> Optional[Constant]:
    return value if isinstance(value, Constant) else None


def _fold_instruction(instr: Instruction) -> Optional[Value]:
    """The folded replacement value, or None if not foldable."""
    if isinstance(instr, Select):
        cond = _const(instr.condition)
        if cond is not None:
            return instr.true_value if cond.value else instr.false_value
        if instr.true_value is instr.false_value:
            return instr.true_value
        return None
    if not is_strict(instr):
        return None
    operands = instr.operands
    for operand in operands:
        if not isinstance(operand, Constant):
            return _fold_algebraic(instr) if isinstance(instr, BinaryOp) \
                else None
    try:
        return Constant(instr.type,
                        eval_strict(instr, [op.value for op in operands]))
    except EvalError:
        return None  # leave the trap for run time


def _fold_algebraic(instr: BinaryOp) -> Optional[Value]:
    """x+0, x*1, x*0, x-x, x^x and friends."""
    lhs, rhs = instr.lhs, instr.rhs
    rc = _const(rhs)
    opcode = instr.opcode
    if rc is not None:
        if rc.value == 0 and opcode in (Opcode.ADD, Opcode.SUB, Opcode.OR,
                                        Opcode.XOR, Opcode.SHL, Opcode.LSHR,
                                        Opcode.ASHR):
            return lhs
        if rc.value == 1 and opcode in (Opcode.MUL, Opcode.SDIV, Opcode.UDIV):
            return lhs
        if rc.value == 0 and opcode in (Opcode.MUL, Opcode.AND):
            return Constant(instr.type, 0)
    lc = _const(lhs)
    if lc is not None:
        if lc.value == 0 and opcode in (Opcode.ADD, Opcode.OR, Opcode.XOR):
            return rhs
        if lc.value == 0 and opcode in (Opcode.MUL, Opcode.AND, Opcode.SHL,
                                        Opcode.LSHR, Opcode.ASHR,
                                        Opcode.UDIV, Opcode.SDIV):
            return Constant(instr.type, 0)
        if lc.value == 1 and opcode == Opcode.MUL:
            return rhs
    if lhs is rhs:
        if opcode in (Opcode.SUB, Opcode.XOR):
            return Constant(instr.type, 0)
        if opcode in (Opcode.AND, Opcode.OR):
            return lhs
    return None


def fold_constants(function: Function) -> bool:
    """Fold to a fixpoint; also folds constant-condition branches into
    unconditional ones (the edge cleanup is left to SimplifyCFG)."""
    changed = False
    progress = True
    while progress:
        progress = False
        for block in function.blocks:
            for instr in block.instructions:
                if isinstance(instr, Branch):
                    if instr.is_conditional:
                        cond = _const(instr.condition)
                        if cond is not None:
                            _fold_branch(block, instr, bool(cond.value))
                            progress = changed = True
                    continue
                replacement = _fold_instruction(instr)
                if replacement is None:
                    continue
                instr.replace_all_uses_with(replacement)
                instr.erase_from_parent()
                progress = changed = True
    return changed


def _fold_branch(block, branch: Branch, taken: bool) -> None:
    kept = branch.true_successor if taken else branch.false_successor
    dropped = branch.false_successor if taken else branch.true_successor
    if dropped is not kept:
        for phi in dropped.phis:
            phi.remove_incoming(block)
    block.replace_terminator(Branch([kept]))
