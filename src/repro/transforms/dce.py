"""Dead-code elimination.

Removes instructions whose results are unused and whose execution has no
side effects.  Runs to a local fixpoint so chains of dead computations
(including the dead ``select``s CFM's post-optimization step wants gone,
§IV-F) disappear in one call.
"""

from __future__ import annotations

from repro.ir.function import Function
from repro.ir.instructions import Instruction


def _is_trivially_dead(instr: Instruction) -> bool:
    if instr.is_used:
        return False
    if instr.is_terminator or instr.has_side_effects:
        return False
    if instr.may_read_memory:
        # Dead loads are removable: no side effects in our memory model.
        return True
    return True


def eliminate_dead_code(function: Function) -> bool:
    """Iteratively remove dead instructions; returns True if any removed."""
    changed = False
    work = [i for b in function.blocks for i in b._instructions]
    while work:
        instr = work.pop()
        if instr._uses or instr.parent is None or not _is_trivially_dead(instr):
            continue
        operands = [op for op in instr.operands if isinstance(op, Instruction)]
        instr.erase_from_parent()
        changed = True
        work.extend(operands)  # operands may now be dead too
    return changed
