"""Loop-invariant code motion.

Hoists speculatable computations whose operands are loop-invariant into
the loop preheader.  The rolled benchmark kernels recompute thread-local
addresses (``gep shared, tid``) every iteration; hoisting them is part of
any ``-O3`` pipeline and keeps the baseline honest.

Only pure, non-trapping instructions move (loads stay: no alias analysis,
and shared memory is mutated cross-lane between barriers).  Loops without
a preheader are skipped.
"""

from __future__ import annotations

from typing import Set

from repro.analysis.loops import Loop, compute_loop_info
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.values import Value


def hoist_loop_invariants(function: Function) -> bool:
    """Run LICM on every loop (innermost-first).  Returns True if any
    instruction moved."""
    changed = False
    loop_info = compute_loop_info(function)
    for loop in sorted(loop_info.loops, key=lambda l: -l.depth):
        changed |= _hoist_one_loop(loop)
    return changed


def _hoist_one_loop(loop: Loop) -> bool:
    preheader = loop.preheader
    if preheader is None:
        return False
    changed = False
    # Fixpoint: hoisting an instruction can make its users invariant.
    progress = True
    invariant_defs: Set[Value] = set()
    while progress:
        progress = False
        for block in sorted(loop.blocks, key=lambda b: b.name):
            for instr in block.instructions:
                if not instr.is_speculatable:
                    continue
                if not all(_operand_invariant(op, loop, invariant_defs)
                           for op in instr.operands):
                    continue
                block._remove_instruction(instr)
                preheader.insert_before_terminator(instr)
                instr.parent = preheader
                invariant_defs.add(instr)
                progress = changed = True
    return changed


def _operand_invariant(operand: Value, loop: Loop,
                       hoisted: Set[Value]) -> bool:
    if operand in hoisted:
        return True
    if isinstance(operand, Instruction):
        return operand.parent not in loop.blocks
    return True  # constants, arguments, globals, undef
