"""The round-robin divergence fixpoint, kept as the oracle for
:func:`repro.analysis.compute_divergence`.

This is the analysis as it was before it became a sparse worklist:
sweep every instruction, then every branch, then every loop, and repeat
until a whole round changes nothing.  Slow and obviously right; the
least fixpoint is unique, so the two must agree on every function.
"""

from typing import Set, Tuple

from repro.analysis import compute_loop_info, compute_postdominator_tree
from repro.analysis.divergence import _join_blocks
from repro.ir import BasicBlock, Branch, Call, Instruction, IntrinsicName, Value


def reference_divergence(function, divergent_args=None
                         ) -> Tuple[Set[Value], Set[BasicBlock]]:
    """``(divergent values, blocks ending in a divergent branch)``."""
    divergent: Set[Value] = set(divergent_args or [])
    branch_blocks: Set[BasicBlock] = set()
    for instr in function.instructions():
        if isinstance(instr, Call) and instr.callee in IntrinsicName.THREAD_ID_SOURCES:
            divergent.add(instr)
    pdt = compute_postdominator_tree(function)
    changed = True
    while changed:
        changed = False
        for instr in function.instructions():
            if (instr not in divergent and not instr.type.is_void
                    and any(op in divergent for op in instr.operands)):
                divergent.add(instr)
                changed = True
        for block in function.blocks:
            term = block.terminator
            if (isinstance(term, Branch) and term.is_conditional
                    and term.condition in divergent):
                if block not in branch_blocks:
                    branch_blocks.add(block)
                    changed = True
                for join in _join_blocks(block, pdt):
                    for phi in join.phis:
                        if phi not in divergent:
                            divergent.add(phi)
                            changed = True
        changed |= mark_temporal_divergence(function, divergent, branch_blocks)
    return divergent, branch_blocks


def mark_temporal_divergence(function, divergent, branch_blocks) -> bool:
    """Taint the live-outs of every loop with a divergent exiting branch;
    True if anything was added."""
    changed = False
    for loop in compute_loop_info(function):
        if not any(b in branch_blocks for b in loop.exiting_blocks):
            continue
        for block in loop.blocks:
            for instr in block:
                if instr in divergent or instr.type.is_void:
                    continue
                if any(isinstance(user, Instruction)
                       and user.parent not in loop.blocks
                       for user in instr.users):
                    divergent.add(instr)
                    changed = True
    return changed
