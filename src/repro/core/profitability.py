"""Melding profitability metrics ``FP_B``, ``FP_S``, ``FP_I`` (§IV-C).

All three approximate the fraction (or number) of thread cycles melding
saves, using the shared static latency table
(:data:`~repro.analysis.latency.DEFAULT_LATENCY_MODEL`, the one the
simulator charges by default):

* ``FP_B(b1, b2)`` — block-level: best-case overlap of the two blocks'
  opcode-frequency profiles, weighted by latency and normalized by the
  combined block latency.  Two blocks with identical profiles score 0.5.
* ``FP_S(S1, S2)`` — subgraph-level: latency-weighted average of
  ``FP_B`` over the isomorphism's block mapping ``O``.
* ``FP_I(I1, I2)`` — instruction-level (drives the Needleman–Wunsch
  instruction alignment): ``lat(I1) - N_s * l_sel`` when the pair is
  meldable, else 0.

φ nodes and terminators are excluded from the frequency profiles:
they are melded structurally, not via alignment, and counting branches
would make empty forwarding-block pairs look profitable (a fixpoint
hazard for Algorithm 1).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.latency import DEFAULT_LATENCY_MODEL
from repro.ir.block import BasicBlock
from repro.ir.instructions import Call, Instruction, Phi


def meldable_instructions(block: BasicBlock) -> List[Instruction]:
    """The instructions that participate in alignment/profitability:
    everything except φs and the terminator."""
    return [i for i in block.instructions
            if not isinstance(i, Phi) and not i.is_terminator]


def instructions_match(a: Instruction, b: Instruction) -> bool:
    """The ``match`` predicate (Rocha et al.): same opcode shape, same
    type, same operand count, compatible attributes.  Implemented via
    :meth:`~repro.ir.instructions.Instruction.operand_signature`, which
    encodes predicates for compares, address spaces for memory ops and
    callees for calls; barriers never match (melding a barrier would
    change synchronization)."""
    if a is b:
        return False
    if isinstance(a, Call) and a.is_barrier:
        return False
    if isinstance(b, Call) and b.is_barrier:
        return False
    return a.operand_signature() == b.operand_signature()


def estimated_selects(a: Instruction, b: Instruction) -> int:
    """``N_s``: operands that would need a ``select`` if melded — the
    pre-melding approximation (operand identity before remapping)."""
    return sum(op_a is not op_b for op_a, op_b in zip(a.operands, b.operands))


#: opcode-signature → (frequency, per-instruction latency weight)
Profile = Dict[Tuple, Tuple[int, int]]


class BlockFacts(dict):
    """``facts[block]`` is the block's meldable latency and signature
    profile — all that ``FP_B`` and ``FP_S`` read of it — computed on
    first use.  Valid while no block it has seen is rewritten, so one
    lives for one scan (:func:`~repro.core.subgraph_align.most_profitable_pair`)."""

    def __missing__(self, block: BasicBlock) -> Tuple[int, Profile]:
        instrs = meldable_instructions(block)
        latency = DEFAULT_LATENCY_MODEL.latency
        facts = self[block] = (sum(latency(i) for i in instrs),
                               _signature_profile(instrs))
        return facts


def block_profitability(b1: BasicBlock, b2: BasicBlock) -> float:
    """``FP_B``: best-case saved-cycle fraction for melding two blocks."""
    facts = BlockFacts()
    return _fp_b(facts[b1], facts[b2])


def _fp_b(facts1: Tuple[int, Profile], facts2: Tuple[int, Profile]) -> float:
    (lat1, profile1), (lat2, profile2) = facts1, facts2
    total = lat1 + lat2
    if total == 0:
        return 0.0
    saved = 0.0
    for signature, (count1, weight) in profile1.items():
        if signature in profile2:
            count2, _ = profile2[signature]
            saved += min(count1, count2) * weight
    return saved / total


def _signature_profile(instrs: Iterable[Instruction]) -> Profile:
    latency = DEFAULT_LATENCY_MODEL.latency
    profile: Profile = {}
    for instr in instrs:
        signature = instr.operand_signature()
        count, _ = profile.get(signature, (0, 0))
        profile[signature] = (count + 1, latency(instr))
    return profile


def subgraph_profitability(
    mapping: List[Tuple[BasicBlock, BasicBlock]],
    facts: Optional[BlockFacts] = None,
) -> float:
    """``FP_S``: latency-weighted mean of ``FP_B`` over the block mapping
    ``O`` of two isomorphic subgraphs."""
    facts = BlockFacts() if facts is None else facts
    numerator = 0.0
    denominator = 0.0
    for b1, b2 in mapping:
        facts1, facts2 = facts[b1], facts[b2]
        pair_latency = facts1[0] + facts2[0]
        numerator += _fp_b(facts1, facts2) * pair_latency
        denominator += pair_latency
    if denominator == 0:
        return 0.0
    return numerator / denominator


def partial_subgraph_profitability(
    region_blocks: Iterable[BasicBlock],
    chosen: BasicBlock,
    single: BasicBlock,
    facts: Optional[BlockFacts] = None,
) -> float:
    """``FP_S`` for a case-② pairing: only the chosen block overlaps the
    single block; every other region block contributes latency to the
    denominator but saves nothing, so partial melds are naturally
    dominated by any available full isomorphism."""
    facts = BlockFacts() if facts is None else facts
    pair_latency = facts[chosen][0] + facts[single][0]
    total = sum(facts[b][0] for b in region_blocks) + facts[single][0]
    if total == 0:
        return 0.0
    return _fp_b(facts[chosen], facts[single]) * pair_latency / total


def instruction_profitability(a: Instruction, b: Instruction) -> float:
    """``FP_I``: cycles saved by melding ``a`` with ``b`` (0 if unmeldable)."""
    if not instructions_match(a, b):
        return 0.0
    latency = DEFAULT_LATENCY_MODEL
    return latency.latency(a) - estimated_selects(a, b) * latency.select_latency
