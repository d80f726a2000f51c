"""Instruction alignment for corresponding basic blocks (§IV-C).

Needleman–Wunsch over the two blocks' meldable instruction lists (φs and
terminators are handled structurally by the melder), scored by ``FP_I``
and with the paper's affine gap cost: two branch latencies per gap run,
independent of the run's length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.latency import DEFAULT_LATENCY_MODEL
from repro.ir.block import BasicBlock
from repro.ir.instructions import Call, Instruction

from .alignment import needleman_wunsch
from .profitability import (
    estimated_selects,
    instruction_profitability,
    meldable_instructions,
)

#: score below which a pair is treated as forbidden rather than merely bad
_FORBIDDEN = float("-inf")


@dataclass
class InstructionPair:
    """I-I (both set) or I-G (one side None) alignment entry."""

    true_instr: Optional[Instruction]
    false_instr: Optional[Instruction]

    @property
    def is_match(self) -> bool:
        return self.true_instr is not None and self.false_instr is not None

    @property
    def lone(self) -> Instruction:
        """The instruction of an I-G pair."""
        instr = self.true_instr if self.true_instr is not None else self.false_instr
        assert instr is not None
        return instr

    @property
    def from_true_path(self) -> bool:
        return self.true_instr is not None


def _match_rows(block: BasicBlock
                ) -> List[Tuple[Instruction, Optional[Tuple], int]]:
    """``(instruction, match key, latency)`` per meldable instruction.

    The key is the operand signature (``None`` for barriers, which never
    match); taking it and the latency once per block keeps both out of
    the O(n·m) score cells."""
    latency = DEFAULT_LATENCY_MODEL.latency
    return [(instr,
             None if isinstance(instr, Call) and instr.is_barrier
             else instr.operand_signature(),
             latency(instr))
            for instr in meldable_instructions(block)]


def align_instructions(
    true_block: BasicBlock,
    false_block: BasicBlock,
) -> List[InstructionPair]:
    """Optimal I-I / I-G alignment of two corresponding blocks."""
    select_latency = DEFAULT_LATENCY_MODEL.select_latency

    def score(a, b) -> float:
        # ``instructions_match`` and ``FP_I`` over the precomputed rows.
        if a[1] is None or a[1] != b[1] or a[0] is b[0]:
            return _FORBIDDEN
        return a[2] - estimated_selects(a[0], b[0]) * select_latency

    gap = 2.0 * DEFAULT_LATENCY_MODEL.branch_latency
    result = needleman_wunsch(_match_rows(true_block),
                              _match_rows(false_block), score,
                              gap_open=gap, gap_extend=0.0,
                              min_match_score=-1e17)
    return [InstructionPair(None if p.left is None else p.left[0],
                            None if p.right is None else p.right[0])
            for p in result.pairs]


def align_mapping(
    mapping: Sequence[Tuple[Optional[BasicBlock], Optional[BasicBlock]]],
) -> List[Optional[List[InstructionPair]]]:
    """The instruction alignment of every block pair of a subgraph pair's
    mapping, in mapping order (``None`` for the unmatched rows of a
    case-② mapping).  Computed once per chosen pair: the pass scores
    ``FP_I`` from it and the melder clones from it."""
    return [align_instructions(bt, bf)
            if bt is not None and bf is not None else None
            for bt, bf in mapping]


def alignment_saved_cycles(pairs: List[InstructionPair]) -> float:
    """Estimated cycles saved by this alignment (diagnostics/benchmarks)."""
    saved = 0.0
    for pair in pairs:
        if pair.is_match:
            saved += instruction_profitability(pair.true_instr, pair.false_instr)
    return saved
