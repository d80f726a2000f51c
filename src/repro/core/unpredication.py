"""Unpredication (§IV-E): guard unaligned instruction runs.

The melder places I-G (gap) instructions straight into the melded blocks,
where they would execute for *every* lane.  Unpredication splits each
melded block at gap-run boundaries and moves each run into a fresh block
reached only when the branch condition selects that run's original path.

Besides the paper's motivation (redundant execution wastes cycles and
power), this step is a *correctness requirement* for runs containing
non-speculatable instructions — a true-path store must not execute for
false-path lanes.  The implementation therefore always splits runs with
side effects and treats pure runs according to policy (default: split,
matching the paper; the ablation benchmarks flip it).

Value flow out of a guarded run is re-established by SSA repair, which
inserts exactly the ``φ [%v, %run], [undef, %bypass]`` nodes Figure 3c
shows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.divergence import CFGFacts
from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Branch, Instruction, Phi
from repro.transforms.ssa_repair import repair_ssa

from .melder import MeldResult, Side


def unpredicate(function: Function, result: MeldResult,
                split_pure_runs: bool = True,
                facts: Optional[CFGFacts] = None) -> bool:
    """Split gap runs out of the melded blocks.  Returns True if changed.
    ``facts``, when the caller keeps the CFG's, are told of every split."""
    guarded: Set[BasicBlock] = set()
    for block in list(result.melded_blocks):
        guarded.update(_unpredicate_block(function, block, result,
                                          split_pure_runs, facts))
    if guarded:
        # Only a run moved behind a guard can have stopped dominating
        # its uses; everything else still sits above its block's tail.
        repair_ssa(function, guarded,
                   facts.dominators if facts is not None else None)
    return bool(guarded)


def _runs(block: BasicBlock, sides: Dict[Instruction, Side]
          ) -> List[Tuple[Side, List[Instruction]]]:
    """Maximal same-side runs of the block's body instructions."""
    runs: List[Tuple[Side, List[Instruction]]] = []
    for instr in block.instructions:
        if isinstance(instr, Phi) or instr.is_terminator:
            continue
        side = sides.get(instr, Side.BOTH)
        if runs and runs[-1][0] is side:
            runs[-1][1].append(instr)
        else:
            runs.append((side, [instr]))
    return runs


def _should_split(side: Side, instrs: List[Instruction], split_pure: bool) -> bool:
    if side is Side.BOTH:
        return False
    if any(not i.is_speculatable for i in instrs):
        return True  # correctness: side effects must stay on their path
    return split_pure


def _unpredicate_block(function: Function, block: BasicBlock,
                       result: MeldResult, split_pure: bool,
                       facts: Optional[CFGFacts]) -> List[BasicBlock]:
    """Split ``block``'s gap runs out; returns the guarded blocks made."""
    runs = _runs(block, result.sides)
    guarded_blocks: List[BasicBlock] = []
    condition = result.condition
    current = block
    for side, instrs in runs:
        if not _should_split(side, instrs, split_pure):
            continue
        # Split `current` right after the run's last instruction; then pull
        # the run out into its own conditional block.
        tail = _split_after(function, current, instrs[-1],
                            f"{block.name}.tail")
        guarded = function.add_block(f"{block.name}.{side.value}", after=current)
        guarded_blocks.append(guarded)
        if any(not i.is_speculatable for i in instrs):
            result.guarded_side_effect_blocks.append(guarded.name)
        for instr in instrs:
            instr.parent._remove_instruction(instr)
            instr.parent = guarded
            guarded._instructions.append(instr)
        guarded.append(Branch([tail]))
        head_term = current.terminator
        assert isinstance(head_term, Branch) and not head_term.is_conditional
        if side is Side.TRUE:
            current.replace_terminator(Branch([guarded, tail], condition))
        else:
            current.replace_terminator(Branch([tail, guarded], condition))
        if facts is not None:
            facts.block_split(current, guarded, tail)
        result.melded_blocks.append(tail)
        current = tail
    return guarded_blocks


def _split_after(function: Function, block: BasicBlock, instr: Instruction,
                 name: str) -> BasicBlock:
    """Split ``block`` after ``instr``; the new block receives everything
    below (including the terminator) and inherits the CFG successors;
    ``block`` ends with an unconditional branch to it."""
    instrs = block.instructions
    index = instrs.index(instr)
    moved = instrs[index + 1:]
    tail = function.add_block(name, after=block)
    term = block.terminator
    if isinstance(term, Branch):
        term._unlink_successors()
    for moving in moved:
        block._remove_instruction(moving)
        if moving is term and isinstance(moving, Branch):
            tail.append(moving)
        else:
            moving.parent = tail
            tail._instructions.append(moving)
    # Downstream φs: control now arrives from `tail`.
    for succ in tail.succs:
        for phi in succ.phis:
            phi.replace_incoming_block(block, tail)
    block.append(Branch([tail]))
    return tail
