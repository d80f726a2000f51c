"""IR verifier: structural and SSA well-formedness checks.

Every transform in this repository (including the CFM melder itself) is
required to leave functions in a verifiable state; the test-suite asserts
this after each pass.  Checks performed:

* every block is non-empty and ends in its one terminator (none
  earlier), every instruction's parent is its block, and the entry
  block has no predecessors;
* φ nodes appear only as a leading run in their block;
* in a reachable block, a φ has one value per incoming block, and the
  incoming blocks exactly match the block's predecessors;
* every definition dominates all of its uses (φ uses are checked at the
  end of the matching incoming block);
* operands belong to the same function (arguments, instructions, blocks),
  and an instruction operand is still in its block's list;
* branch targets are blocks of the function, and cached predecessor
  lists agree with the terminator edges;
* barrier calls are void: a ``llvm.gpu.barrier`` with uses is rejected;
* conditional branches branch on ``i1`` — nothing else.

The function is checked in one walk over its blocks and instructions.
Dominance comes from the dominator tree numbered in DFS preorder: block
``a`` dominates block ``b`` exactly when ``b``'s number lies in ``a``'s
subtree interval.  Operand findings are kept aside while the walk runs
and reported only when every other check passed, since dominance means
nothing on structurally broken IR.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from .block import BasicBlock
from .function import Function, GlobalVariable
from .instructions import Branch, Call, Instruction, Opcode, Phi
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


class _Kinds(dict):
    """``type -> kind`` memo: each type is classified on first sight."""

    def __init__(self, classify) -> None:
        super().__init__()
        self._classify = classify

    def __missing__(self, cls: type) -> int:
        kind = self[cls] = self._classify(cls)
        return kind


# Instruction kinds the walk tells apart.
_OTHER, _PHI, _CALL, _BRANCH = range(4)
# Operand kinds, in the order an operand is classified; the first and
# last are also findings.
_MISSING, _VALUE, _ARGUMENT, _INSTRUCTION, _UNEXPECTED = range(5)
# The other operand findings, formatted only when they are reported.
_FOREIGN_ARGUMENT, _DETACHED, _UNREACHABLE, _NOT_DOMINATING = range(5, 9)


def _instruction_kind(cls: type) -> int:
    if issubclass(cls, Phi):
        return _PHI
    if issubclass(cls, Call):
        return _CALL
    return _BRANCH if issubclass(cls, Branch) else _OTHER


def _operand_kind(cls: type) -> int:
    if cls is type(None):
        return _MISSING
    if issubclass(cls, (Constant, Undef, GlobalVariable, BasicBlock)):
        return _VALUE
    if issubclass(cls, Argument):
        return _ARGUMENT
    return _INSTRUCTION if issubclass(cls, Instruction) else _UNEXPECTED


_INSTRUCTION_KINDS = _Kinds(_instruction_kind)
_OPERAND_KINDS = _Kinds(_operand_kind)
_TERMINATORS = Opcode.TERMINATORS


def verify_function(function: Function) -> None:
    """Raise :class:`VerificationError` if ``function`` is malformed."""
    # Imported lazily: the analysis package depends on repro.ir, so a
    # module-level import here would be circular.
    from repro.analysis.cfg import reverse_postorder
    from repro.analysis.dominators import compute_dominator_tree

    order = reverse_postorder(function)
    blocks = function.blocks
    problems: List[str] = []
    stale = _stale_predecessors(blocks)
    if stale is None:
        # (first, last) preorder interval of every reachable block.
        dom = compute_dominator_tree(function, order).intervals()
        reachable = dom
    else:
        # The tree of a CFG whose edges disagree means nothing.
        problems.append(stale)
        dom = None
        reachable = set(order)
    phi_problems: List[str] = []
    findings: List[tuple] = []
    # Each instruction in a reachable block's list -> its (last) index
    # there; an operand missing here was dropped from its block's list.
    positions: Dict[Instruction, int] = {}
    for block in dom or ():
        positions.update(zip(block._instructions, itertools.count()))
    args = function.args
    instruction_kinds = _INSTRUCTION_KINDS
    operand_kinds = _OPERAND_KINDS

    for block in blocks:
        instrs = block._instructions
        if not instrs:
            problems.append(f"block %{block.name} is empty")
            continue
        last = len(instrs) - 1
        is_reachable = block in reachable
        preds = None
        leading = True
        late_phis = 0
        semantic: List[str] = []
        span = dom.get(block) if dom is not None else None
        if span is not None:
            # Operands of this block are checked: ``number`` is its
            # preorder number.
            number = span[0]
            owned = block.parent is function
        for i, instr in enumerate(instrs):
            if instr.parent is not block:
                problems.append(
                    f"instruction {instr.name or instr.opcode} in "
                    f"%{block.name} has wrong parent"
                )
            if instr.opcode in _TERMINATORS and i != last:
                problems.append(
                    f"block %{block.name} has a terminator mid-block")
            kind = instruction_kinds[type(instr)]
            if kind == _PHI:
                if not leading:
                    late_phis += 1
                elif is_reachable:
                    if preds is None:
                        preds = set(block._preds)
                    phi_problems.extend(_check_phi(block, instr, preds))
            else:
                leading = False
                if kind == _CALL:
                    if instr.is_barrier and instr._uses:
                        semantic.append(
                            f"barrier call in %{block.name} is void but has "
                            f"{len(instr._uses)} use(s)"
                        )
                elif kind == _BRANCH and len(instr._operands) == 1:
                    ctype = getattr(instr._operands[0], "type", None)
                    if ctype is not I1:
                        semantic.append(
                            f"conditional branch in %{block.name} has non-i1 "
                            f"condition ({ctype!r})"
                        )
            if span is None:
                continue
            for index, operand in enumerate(instr._operands):
                operand_kind = operand_kinds[type(operand)]
                if operand_kind == _VALUE:
                    continue
                if operand_kind != _INSTRUCTION:
                    if operand_kind != _ARGUMENT:
                        findings.append((operand_kind, instr, operand, index))
                    elif operand not in args:
                        findings.append((_FOREIGN_ARGUMENT, instr, operand,
                                         index))
                    continue
                parent = operand.parent
                if parent is block and owned:
                    home = span
                elif parent is None or parent.parent is not function:
                    findings.append((_DETACHED, instr, operand, index))
                    continue
                else:
                    home = dom.get(parent)
                    if home is None:
                        findings.append((_UNREACHABLE, instr, operand, index))
                        continue
                at = positions.get(operand)
                if at is None:  # gone from its block's list
                    findings.append((_DETACHED, instr, operand, index))
                    continue
                # Where a wrong parent makes ``block`` differ from
                # ``instr.parent``, the findings are never reported.
                if kind == _PHI:
                    incoming = instr._incoming_blocks
                    # A value past the last block is a φ problem already.
                    site = index < len(incoming) and dom.get(incoming[index])
                    if site and home[0] <= site[0] <= home[1]:
                        continue
                elif parent is block:
                    if at < positions[instr]:
                        continue
                elif home[0] <= number <= home[1]:
                    continue
                findings.append((_NOT_DOMINATING, instr, operand, index))
        if instrs[-1].opcode not in _TERMINATORS:
            problems.append(
                f"block %{block.name} does not end in a terminator")
        problems.extend(
            [f"block %{block.name} has a phi after non-phi instructions"]
            * late_phis)
        problems.extend(semantic)

    if blocks[0]._preds:
        problems.append(f"entry block %{blocks[0].name} has predecessors")
    problems.extend(phi_problems)
    if not problems:
        problems = [_describe(*finding) for finding in findings]
    if problems:
        raise VerificationError(function, problems)


def _stale_predecessors(blocks: List[BasicBlock]) -> Optional[str]:
    """The first block that branches out of the function, or else the
    first whose cached predecessors differ (as a set) from the blocks
    whose terminator branches to it, described; or None."""
    expected: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in blocks}
    for block in blocks:
        instrs = block._instructions
        if instrs and isinstance(instrs[-1], Branch):
            succs = instrs[-1]._successors
            for k, succ in enumerate(succs):
                if succ not in expected:
                    return (f"block %{block.name} branches to %{succ.name} "
                            f"outside the function")
                if not k or succ not in succs[:k]:
                    expected[succ].append(block)
    for block in blocks:
        cached, actual = block._preds, expected[block]
        if cached != actual and set(cached) != set(actual):
            return (f"stale predecessor list on {block.name}: "
                    f"cached {[p.name for p in cached]} vs "
                    f"actual {[p.name for p in actual]}")
    return None


def _check_phi(block: BasicBlock, phi: Phi, preds) -> List[str]:
    problems = []
    incoming = phi._incoming_blocks
    if len(phi._operands) != len(incoming):
        problems.append(
            f"phi %{phi.name} in %{block.name} has {len(phi._operands)} "
            f"values for {len(incoming)} incoming blocks")
    incoming_set = set(incoming)
    if len(incoming_set) != len(incoming):
        problems.append(
            f"phi %{phi.name} in %{block.name} has duplicate incoming blocks"
        )
    if incoming_set != preds:
        problems.append(
            f"phi %{phi.name} in %{block.name} incoming blocks "
            f"{sorted(b.name for b in incoming)} != preds "
            f"{sorted(p.name for p in preds)}"
        )
    return problems


def _describe(finding: int, instr: Instruction, operand, index) -> str:
    """The problem an operand finding of the walk reports."""
    if finding == _MISSING:
        return f"{instr!r} has a missing operand #{index}"
    if finding == _FOREIGN_ARGUMENT:
        return f"{instr!r} uses argument %{operand.name} of another function"
    if finding == _DETACHED:
        return f"{instr!r} uses detached/foreign instruction %{operand.name}"
    if finding == _UNREACHABLE:
        return f"{instr!r} uses %{operand.name} defined in unreachable block"
    if finding == _NOT_DOMINATING:
        return (f"definition %{operand.name} (in %{operand.parent.name}) does "
                f"not dominate use in {instr!r} (in %{instr.parent.name})")
    return f"{instr!r} has unexpected operand kind {type(operand).__name__}"
