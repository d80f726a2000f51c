"""The IR verifier as it was before its one-walk rewrite, kept as the
differential reference for :func:`repro.ir.verify_function`.  One check
was added since: an operand whose instruction is gone from its block's
list is detached, wherever its user is.

It checks a function phase by phase: the cached predecessor lists, then
every block's structure and instruction semantics, the entry block, the
φ incoming sets of the reachable blocks and — only when all of those
pass — operand dominance, climbing a freshly built dominator tree.
``tests/ir/test_verifier_reference.py`` requires both verifiers to raise
the same exception type and, for a :class:`VerificationError`, the same
problem list in the same order.  ``verify_preds_consistent`` is the
predecessor check the old verifier imported from ``repro.analysis.cfg``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ir.block import BasicBlock
from repro.ir.function import Function, GlobalVariable
from repro.ir.instructions import Branch, Call, Instruction, Phi
from repro.ir.types import I1
from repro.ir.values import Argument, Constant, Undef
from repro.ir.verifier import VerificationError


def verify_function(function: Function) -> None:
    """Raise :class:`VerificationError` if ``function`` is malformed."""
    # Imported lazily: the analysis package depends on repro.ir, so a
    # module-level import here would be circular.
    from repro.analysis.cfg import reachable_blocks
    from repro.analysis.dominators import compute_dominator_tree

    problems: List[str] = []
    reachable = reachable_blocks(function)

    try:
        verify_preds_consistent(function)
    except AssertionError as exc:
        problems.append(str(exc))

    for block in function.blocks:
        problems.extend(_check_block_structure(block))
        problems.extend(_check_instruction_semantics(block))

    if function.entry.preds:
        problems.append(f"entry block %{function.entry.name} has predecessors")

    for block in function.blocks:
        if block not in reachable:
            continue
        problems.extend(_check_phis(block))

    if not problems:
        # Dominance checks only make sense on structurally valid IR.
        dt = compute_dominator_tree(function)
        position = {instr: i for block in function.blocks
                    for i, instr in enumerate(block)}
        for block in function.blocks:
            if block not in reachable:
                continue
            for instr in block:
                problems.extend(
                    _check_operand_dominance(function, dt, position, instr))

    if problems:
        raise VerificationError(function, problems)


def _check_block_structure(block: BasicBlock) -> List[str]:
    problems = []
    instrs = block.instructions
    if not instrs:
        problems.append(f"block %{block.name} is empty")
        return problems
    for i, instr in enumerate(instrs):
        if instr.parent is not block:
            problems.append(
                f"instruction {instr.name or instr.opcode} in %{block.name} "
                f"has wrong parent"
            )
        if instr.is_terminator and i != len(instrs) - 1:
            problems.append(f"block %{block.name} has a terminator mid-block")
    if not instrs[-1].is_terminator:
        problems.append(f"block %{block.name} does not end in a terminator")
    seen_non_phi = False
    for instr in instrs:
        if isinstance(instr, Phi):
            if seen_non_phi:
                problems.append(
                    f"block %{block.name} has a phi after non-phi instructions"
                )
        else:
            seen_non_phi = True
    return problems


def _check_instruction_semantics(block: BasicBlock) -> List[str]:
    """Type/shape rules beyond pure structure: void barriers, i1 branch
    conditions."""
    problems = []
    for instr in block.instructions:
        if isinstance(instr, Call) and instr.is_barrier and instr.is_used:
            problems.append(
                f"barrier call in %{block.name} is void but has "
                f"{len(instr.uses)} use(s)"
            )
        if isinstance(instr, Branch) and instr.is_conditional:
            condition = instr.condition
            ctype = getattr(condition, "type", None)
            if ctype is not I1:
                problems.append(
                    f"conditional branch in %{block.name} has non-i1 "
                    f"condition ({ctype!r})"
                )
    return problems


def _check_phis(block: BasicBlock) -> List[str]:
    problems = []
    preds = set(block.preds)
    for phi in block.phis:
        incoming = phi.incoming_blocks
        if len(set(incoming)) != len(incoming):
            problems.append(
                f"phi %{phi.name} in %{block.name} has duplicate incoming blocks"
            )
        if set(incoming) != preds:
            problems.append(
                f"phi %{phi.name} in %{block.name} incoming blocks "
                f"{sorted(b.name for b in incoming)} != preds "
                f"{sorted(p.name for p in preds)}"
            )
    return problems


def _check_operand_dominance(function: Function, dt,
                             position: Dict[Instruction, int],
                             instr: Instruction) -> List[str]:
    """``position`` numbers every instruction within its block."""
    problems = []
    for index, operand in enumerate(instr.operands):
        if operand is None:
            problems.append(f"{instr!r} has a missing operand #{index}")
            continue
        if isinstance(operand, (Constant, Undef, GlobalVariable, BasicBlock)):
            continue
        if isinstance(operand, Argument):
            if operand not in function.args:
                problems.append(
                    f"{instr!r} uses argument %{operand.name} of another function"
                )
            continue
        if isinstance(operand, Instruction):
            if operand.parent is None or operand.parent.parent is not function:
                problems.append(
                    f"{instr!r} uses detached/foreign instruction %{operand.name}"
                )
                continue
            if not dt.contains(operand.parent):
                problems.append(
                    f"{instr!r} uses %{operand.name} defined in unreachable block"
                )
                continue
            if operand not in position:  # dropped from its block's list
                problems.append(
                    f"{instr!r} uses detached/foreign instruction %{operand.name}"
                )
                continue
            if operand.parent is instr.parent and not isinstance(instr, Phi):
                dominates = position[operand] < position[instr]
            else:
                dominates = dt.instruction_dominates(operand, instr, index)
            if not dominates:
                problems.append(
                    f"definition %{operand.name} (in %{operand.parent.name}) does "
                    f"not dominate use in {instr!r} (in %{instr.parent.name})"
                )
            continue
        problems.append(f"{instr!r} has unexpected operand kind {type(operand).__name__}")
    return problems


def verify_preds_consistent(function: Function) -> None:
    """Assert the cached predecessor lists match the terminator edges."""
    expected: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in function.blocks}
    for block in function.blocks:
        term = block.terminator
        if isinstance(term, Branch):
            for succ in block.succs:
                expected[succ].append(block)
    for block in function.blocks:
        if set(block.preds) != set(expected[block]):
            raise AssertionError(
                f"stale predecessor list on {block.name}: "
                f"cached {[p.name for p in block.preds]} vs "
                f"actual {[p.name for p in expected[block]]}"
            )
