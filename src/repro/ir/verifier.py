"""IR verifier: structural and SSA well-formedness checks.

Every transform in this repository (including the CFM melder itself) is
required to leave functions in a verifiable state; the test-suite asserts
this after each pass.  Checks performed:

* every reachable block ends in exactly one terminator;
* φ nodes appear only as a leading run in their block;
* φ incoming blocks exactly match the block's predecessors;
* every definition dominates all of its uses (φ uses are checked at the
  end of the matching incoming block);
* operands belong to the same function (arguments, instructions, blocks);
* cached predecessor lists agree with the terminator edges;
* barrier calls are void: a ``llvm.gpu.barrier`` with uses is rejected;
* conditional branches branch on ``i1`` — nothing else.
"""

from __future__ import annotations

from typing import Dict, List

from .block import BasicBlock
from .function import Function, GlobalVariable
from .instructions import Branch, Call, Instruction, Phi
from .types import I1
from .values import Argument, Constant, Undef


class VerificationError(Exception):
    """Raised when a function violates IR invariants."""

    def __init__(self, function: Function, problems: List[str]) -> None:
        self.function = function
        self.problems = problems
        details = "\n  - ".join(problems)
        super().__init__(
            f"function @{function.name} failed verification:\n  - {details}"
        )


def verify_function(function: Function) -> None:
    """Raise :class:`VerificationError` if ``function`` is malformed."""
    # Imported lazily: the analysis package depends on repro.ir, so a
    # module-level import here would be circular.
    from repro.analysis.cfg import reachable_blocks, verify_preds_consistent
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
