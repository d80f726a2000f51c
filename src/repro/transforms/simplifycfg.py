"""SimplifyCFG: the standard CFG cleanup bundle.

CFM's code generation intentionally leaves redundancies behind —
conditional branches with identical successors, forwarding blocks from
region simplification, duplicate/trivial φs — and relies on "LLVM's
built-in passes (such as the SimplifyCFG pass)" to clean up (§IV-F).
This pass implements the cleanups that matter here:

* unreachable-block removal,
* ``br %c, %x, %x``  →  ``br %x``,
* merging single-successor/single-predecessor block pairs,
* removal of empty forwarding blocks,
* removal of trivial φ nodes.

Each cleanup preserves semantics on its own and the pass iterates them to
a fixpoint.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.analysis.cfg import reachable_blocks
from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Branch, Phi
from repro.ir.values import Value


def simplify_cfg(function: Function) -> bool:
    changed = False
    while _simplify_once(function):
        changed = True
    return changed


def _simplify_once(function: Function) -> bool:
    return (
        remove_unreachable_blocks(function)
        or fold_redundant_branches(function)
        or remove_trivial_phis(function)
        or merge_straightline_blocks(function)
        or remove_forwarding_blocks(function)
    )


# ---- individual cleanups -----------------------------------------------------


def remove_unreachable_blocks(function: Function) -> bool:
    reachable = reachable_blocks(function)
    dead = [b for b in function.blocks if b not in reachable]
    if not dead:
        return False
    delete_blocks(function, dead)
    return True


def delete_blocks(function: Function, dead: List[BasicBlock]) -> None:
    """Delete ``dead``, blocks no live block branches to."""
    dead_set = set(dead)
    # Live φs may reference dead predecessors.
    for block in {s for b in dead for s in b.succs if s not in dead_set}:
        for phi in block.phis:
            for pred in list(phi.incoming_blocks):
                if pred in dead_set:
                    phi.remove_incoming(pred)
    # Bulk-delete.  Dead instructions may reference each other in cycles
    # (loop φs), so use edges are severed manually: operand use-list
    # entries are only maintained for *live* values.
    dead_instrs = {i for b in dead for i in b.instructions}
    for block in dead:
        for instr in block.instructions:
            if isinstance(instr, Branch):
                instr._unlink_successors()
            for index, operand in enumerate(instr.operands):
                if operand is None or operand in dead_instrs:
                    continue
                operand._remove_use(instr, index)
            instr._operands = []
            instr._uses = []
            instr.parent = None
        block._instructions = []
        function._remove_block(block)


def fold_redundant_branches(function: Function) -> bool:
    """``br %c, %x, %x`` → ``br %x`` (CFM post-opt: "removing branches
    with identical successors")."""
    changed = False
    for block in function.blocks:
        changed |= fold_redundant_branch(block)
    return changed


def fold_redundant_branch(block: BasicBlock) -> bool:
    """Fold ``block``'s ``br %c, %x, %x``, if it ends in one."""
    instrs = block._instructions
    term = instrs[-1] if instrs else None
    if not isinstance(term, Branch):
        return False
    succs = term._successors  # two exactly when conditional
    if len(succs) == 2 and succs[0] is succs[1]:
        block.replace_terminator(Branch([succs[0]]))
        return True
    return False


def remove_trivial_phis(function: Function) -> bool:
    """Drop φs whose incoming values are all identical (or self)."""
    changed = False
    for block in function.blocks:
        changed |= bool(remove_trivial_phis_in(block))
    return changed


def remove_trivial_phis_in(block: BasicBlock) -> Set[BasicBlock]:
    """Drop ``block``'s trivial φs; returns the blocks whose φs changed:
    ``block`` and those of φs that used a dropped one (empty: none
    dropped)."""
    instrs = block._instructions
    if not instrs or not isinstance(instrs[0], Phi):
        return set()
    touched: Set[BasicBlock] = set()
    for phi in block.phis:
        unique: List[Value] = []
        for value in phi.incoming_values:
            if value is phi:
                continue
            if all(value is not u for u in unique):
                unique.append(value)
        if len(unique) == 1:
            touched.add(block)
            touched.update(user.parent for user, _ in phi._uses
                           if isinstance(user, Phi) and user is not phi
                           and user.parent is not None)
            phi.replace_all_uses_with(unique[0])
            phi.erase_from_parent()
    return touched


def merge_straightline_blocks(function: Function) -> bool:
    """Merge ``B -> S`` when B's only successor is S and S's only
    predecessor is B, collapsing every such chain in one sweep.

    The merges happen in the order a restart from the first block after
    each merge would pick them: absorbing S changes only B's terminator
    and which block S's successors name as their predecessor, so B is
    the one block that can become mergeable again.  No block before it
    can, because no predecessor count changes."""
    changed = False
    for block in function.blocks:
        if block.parent is not function:
            continue  # absorbed earlier in this sweep
        while _merge_successor(function, block):
            changed = True
    return changed


def _merge_successor(function: Function, block: BasicBlock) -> bool:
    """Splice ``block``'s successor into it if the two form a
    straight line; False if they do not."""
    succ = block.single_succ
    term = block.terminator
    if (succ is None or succ is block or succ.single_pred is not block
            or not isinstance(term, Branch) or term.is_conditional):
        return False
    # φs in S have a single incoming value: forward them.
    for phi in succ.phis:
        phi.replace_all_uses_with(phi.incoming_for(block))
        phi.erase_from_parent()
    # Splice S's body into B.
    term.erase_from_parent()
    succ_term = succ.terminator
    if isinstance(succ_term, Branch):
        succ_term._unlink_successors()  # while parent is still S
    for instr in succ.instructions:
        succ._remove_instruction(instr)
        if instr is succ_term and isinstance(instr, Branch):
            block.append(instr)  # relinks edges from B
        else:
            instr.parent = block
            block._instructions.append(instr)
    # Successor φs must now name B as the incoming block.
    for after in block.succs:
        for phi in after.phis:
            phi.replace_incoming_block(succ, block)
    function._remove_block(succ)
    return True


def remove_forwarding_blocks(function: Function) -> bool:
    """Remove every block that contains only an unconditional branch."""
    changed = False
    for block in function.blocks:
        changed |= forward_block(function, block) is not None
    return changed


def forward_block(function: Function, block: BasicBlock
                  ) -> Optional[Tuple[BasicBlock, List[BasicBlock]]]:
    """Remove ``block`` if it only forwards its predecessors to its
    successor; returns ``(successor, predecessors)`` if it did."""
    if len(block._instructions) != 1 or block is function.entry:
        return None
    term = block.terminator
    if not isinstance(term, Branch) or term.is_conditional:
        return None
    succ = term.true_successor
    if succ is block or not block.preds:
        return None
    if not _can_forward(block, succ):
        return None
    preds = block.preds
    # Rewire φs in succ: the value that arrived via `block` now arrives
    # directly from each predecessor.
    for phi in succ.phis:
        value = phi.incoming_for(block)
        phi.remove_incoming(block)
        for pred in preds:
            if pred not in phi.incoming_blocks:
                phi.add_incoming(value, pred)
    term.erase_from_parent()
    for pred in preds:
        pred.terminator.replace_successor(block, succ)
    function._remove_block(block)
    return succ, preds


def _can_forward(block: BasicBlock, succ: BasicBlock) -> bool:
    """Forwarding is safe unless it would create a φ conflict: a pred that
    already reaches ``succ`` directly must supply the same value both ways,
    and duplicate-edge conditional branches keep φs single-valued only if
    the values agree."""
    for phi in succ.phis:
        via_block = phi.incoming_for(block)
        for pred in block.preds:
            if pred in succ.preds and phi.incoming_for(pred) is not via_block:
                return False
    # A conditional branch in a pred pointing at both `block` and `succ`
    # collapses to a duplicate edge, which φ bookkeeping handles only when
    # the above value check passed; nothing more to verify.
    return True
