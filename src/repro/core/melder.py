"""Subgraph melding code generation (Algorithm 2, §IV-D).

Given a meldable divergent region with condition ``C`` and a chosen
subgraph pair ``(S_T, S_F)`` with ordered block mapping ``O``, this module
rewrites the CFG so both subgraphs become one:

1. one *melded block* per mapped block pair;
2. φ nodes are **copied** (never merged — ``select``s cannot precede φs)
   with incoming values remapped and ``undef`` flowing in from the other
   path's entry edges;
3. aligned instructions (I-I) are cloned once; operand mismatches are
   reconciled with ``select C, opT, opF``; unaligned instructions (I-G)
   are cloned as-is and tagged with their side for unpredication;
4. internal branches keep their (isomorphic) shape, selecting between the
   two conditions when they differ;
5. the melded exit ends in ``br C, B_T', B_F'`` — two fresh
   successor-distinguisher blocks that jump to the original targets and
   keep downstream φs well-formed;
6. external uses of the original instructions are rerouted to their
   melded counterparts; dominance violations introduced by the move (the
   paper's Figure 4) are repaired afterwards by
   :func:`repro.transforms.ssa_repair.repair_ssa`, which inserts exactly
   the ``φ [v, true-pred], [undef, bypass]`` nodes ``PreProcess`` would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Branch, Instruction, Phi, Select
from repro.ir.values import Undef, Value, const_bool

from .instr_align import InstructionPair
from .meldable import MeldableRegion
from .sese import SESESubgraph
from .subgraph_align import SubgraphPair


class Side(Enum):
    """Provenance of a melded instruction."""

    BOTH = "both"
    TRUE = "true"
    FALSE = "false"


@dataclass
class MeldResult:
    """What the melder produced — consumed by unpredication and metrics."""

    entry: BasicBlock
    melded_blocks: List[BasicBlock]
    #: provenance of every cloned non-φ, non-terminator instruction
    sides: Dict[Instruction, Side]
    condition: Value
    selects_inserted: int = 0
    instructions_melded: int = 0
    instructions_unaligned: int = 0
    #: names of guard blocks unpredication split out for *side-effecting*
    #: runs (filled by :func:`repro.core.unpredication.unpredicate`; the
    #: lint meld-legality audit checks each stays behind its guard)
    guarded_side_effect_blocks: List[str] = field(default_factory=list)


class Melder:
    """One melding operation on one subgraph pair."""

    def __init__(
        self,
        function: Function,
        region: MeldableRegion,
        pair: SubgraphPair,
        alignments: List[Optional[List[InstructionPair]]],
    ) -> None:
        """``alignments`` is :func:`~repro.core.instr_align.align_mapping`
        of ``pair.mapping`` — the caller has usually scored it already."""
        self.function = function
        self.region = region
        self.pair = pair
        self.alignments = alignments
        self.condition = region.condition
        self.operand_map: Dict[Value, Value] = {}
        self.block_map: Dict[BasicBlock, BasicBlock] = {}
        self.sides: Dict[Instruction, Side] = {}
        # Deferred operand fixups: (melded, original_T, original_F | None)
        self._ii_pairs: List[Tuple[Instruction, Instruction, Instruction]] = []
        self._ig_pairs: List[Tuple[Instruction, Instruction]] = []
        self._phi_clones: List[Tuple[Phi, Phi, SESESubgraph, SESESubgraph]] = []
        self._branch_conditions: List[Tuple[Branch, Value, Value]] = []
        self._selects = 0

    # ---- public API --------------------------------------------------------

    def meld(self) -> MeldResult:
        s_t, s_f = self.pair.true_subgraph, self.pair.false_subgraph
        mapping = self.pair.mapping

        # Phase 0: one melded block per pair.  In a case-② (partial)
        # mapping one side of most pairs is None; the melded block takes
        # the shape of the structure (region) side.
        anchor = self.region.entry
        for bt, bf in mapping:
            name = f"{(bt or bf).name}.m.{(bf or bt).name}"
            melded = self.function.add_block(name, after=anchor)
            anchor = melded
            if bt is not None:
                self.block_map[bt] = melded
            if bf is not None:
                self.block_map[bf] = melded

        # Phase 1: clone φs and aligned instructions (operands unresolved).
        for (bt, bf), alignment in zip(mapping, self.alignments):
            self._clone_phis(bt, bf, s_t, s_f)
            self._clone_instructions(bt, bf, alignment)
        for bt, bf in mapping:
            self._build_terminator(bt, bf, s_t, s_f)

        # Phase 2: resolve operands through the operand map.
        self._set_operands()

        # Phase 3: rewire the CFG around the melded subgraph.  Both entry
        # edges land on the structure side's entry (for a partial meld the
        # single-block path is routed through the region from its entry).
        if self.pair.partial_region_side == "false":
            structure_entry = mapping[0][1]
        elif self.pair.partial_region_side == "true":
            structure_entry = mapping[0][0]
        else:
            structure_entry = mapping[0][0]
        melded_entry = self.block_map[structure_entry]
        self._redirect_external_edges(s_t, melded_entry)
        self._redirect_external_edges(s_f, melded_entry)
        self._reroute_external_uses(s_t, s_f)

        melded_blocks = []
        for block in self.block_map.values():
            if block not in melded_blocks:
                melded_blocks.append(block)
        matched = sum(1 for i, s in self.sides.items() if s is Side.BOTH)
        unaligned = len(self.sides) - matched
        return MeldResult(
            entry=melded_entry,
            melded_blocks=melded_blocks,
            sides=dict(self.sides),
            condition=self.condition,
            selects_inserted=self._selects,
            instructions_melded=matched,
            instructions_unaligned=unaligned,
        )

    # ---- phase 1: cloning ------------------------------------------------------

    def _clone_phis(self, bt: Optional[BasicBlock], bf: Optional[BasicBlock],
                    s_t: SESESubgraph, s_f: SESESubgraph) -> None:
        melded = self.block_map[bt if bt is not None else bf]
        true_phis = [(p, s_t, s_f) for p in bt.phis] if bt is not None else []
        false_phis = [(p, s_f, s_t) for p in bf.phis] if bf is not None else []
        for phi, own, other in true_phis + false_phis:
            clone = Phi(phi.type, phi.name)
            melded.insert_after_phis(clone)
            self.operand_map[phi] = clone
            self._phi_clones.append((clone, phi, own, other))

    def _clone_instructions(self, bt: Optional[BasicBlock],
                            bf: Optional[BasicBlock],
                            alignment: Optional[List[InstructionPair]]) -> None:
        melded = self.block_map[bt if bt is not None else bf]
        if alignment is None:
            # Partial meld: the unmatched structure block's instructions
            # all become gaps of their own side (guarded by unpredication
            # when they have side effects).
            lone_block = bt if bt is not None else bf
            side = Side.TRUE if bt is not None else Side.FALSE
            from .profitability import meldable_instructions

            for original in meldable_instructions(lone_block):
                clone = original.clone()
                clone.name = original.name
                melded.append(clone)
                self.operand_map[original] = clone
                self.sides[clone] = side
                self._ig_pairs.append((clone, original))
            return
        for pair in alignment:
            if pair.is_match:
                clone = pair.true_instr.clone()
                clone.name = pair.true_instr.name
                melded.append(clone)
                self.operand_map[pair.true_instr] = clone
                self.operand_map[pair.false_instr] = clone
                self.sides[clone] = Side.BOTH
                self._ii_pairs.append((clone, pair.true_instr, pair.false_instr))
            else:
                original = pair.lone
                clone = original.clone()
                clone.name = original.name
                melded.append(clone)
                self.operand_map[original] = clone
                self.sides[clone] = Side.TRUE if pair.from_true_path else Side.FALSE
                self._ig_pairs.append((clone, original))

    def _build_terminator(self, bt: Optional[BasicBlock],
                          bf: Optional[BasicBlock],
                          s_t: SESESubgraph, s_f: SESESubgraph) -> None:
        # In a partial (case ②) meld the *region* side owns the control
        # structure for every pair — including the chosen pair, whose
        # single-block partner contributes instructions but no shape.
        region_side = self.pair.partial_region_side
        if region_side == "true":
            structure, structure_is_true = bt, True
        elif region_side == "false":
            structure, structure_is_true = bf, False
        else:
            structure = bt if bt is not None else bf
            structure_is_true = bt is not None
        melded = self.block_map[structure]
        structure_sub = s_t if structure_is_true else s_f

        if structure is structure_sub.exit:
            # Successor-distinguisher blocks B_T' / B_F'.  φs in the two
            # targets referenced the subgraphs' exit blocks (for a partial
            # meld the other side's exit is its single block, which may be
            # paired elsewhere), so redirect by subgraph exit, not by pair.
            bt_prime = self.function.add_block(f"{melded.name}.t", after=melded)
            bf_prime = self.function.add_block(f"{melded.name}.f", after=bt_prime)
            bt_prime.append(Branch([s_t.target]))
            bf_prime.append(Branch([s_f.target]))
            melded.append(Branch([bt_prime, bf_prime], self.condition))
            for phi in s_t.target.phis:
                phi.replace_incoming_block(s_t.exit, bt_prime)
            for phi in s_f.target.phis:
                phi.replace_incoming_block(s_f.exit, bf_prime)
            return

        if region_side is not None:
            # Partial meld: the structure's branch shape is kept; the
            # single-block side's lanes are steered along the fixed route
            # (select C, cond, <route constant>).
            term = structure.terminator
            assert isinstance(term, Branch)
            successors = [self.block_map[s] for s in term.successors]
            if term.is_conditional:
                branch = Branch(successors, term.condition)  # placeholder
                melded.append(branch)
                route_index = self.pair.route.get(structure, 0)
                route_const = const_bool(route_index == 0)
                if structure_is_true:
                    self._branch_conditions.append(
                        (branch, term.condition, route_const))
                else:
                    self._branch_conditions.append(
                        (branch, route_const, term.condition))
            else:
                melded.append(Branch(successors))
            return

        term_t, term_f = bt.terminator, bf.terminator
        assert isinstance(term_t, Branch) and isinstance(term_f, Branch)
        successors = [self.block_map[s] for s in term_t.successors]
        for st, sf in zip(term_t.successors, term_f.successors):
            assert self.block_map[st] is self.block_map[sf], \
                "isomorphism must map corresponding successors together"
        if term_t.is_conditional:
            branch = Branch(successors, term_t.condition)  # placeholder cond
            melded.append(branch)
            self._branch_conditions.append(
                (branch, term_t.condition, term_f.condition))
        else:
            melded.append(Branch(successors))

    # ---- phase 2: operand resolution ----------------------------------------------

    def _resolve(self, value: Value) -> Value:
        return self.operand_map.get(value, value)

    def _reconcile(self, melded: Instruction, value_t: Value, value_f: Value) -> Value:
        """The value a melded operand slot takes: shared when the two
        sides agree after mapping, otherwise ``select C, vT, vF``."""
        a, b = self._resolve(value_t), self._resolve(value_f)
        if a is b:
            return a
        select = Select(self.condition, a, b, "msel")
        melded.parent._insert_before(melded, select)
        self.sides[select] = Side.BOTH
        self._selects += 1
        return select

    def _set_operands(self) -> None:
        for melded, instr_t, instr_f in self._ii_pairs:
            for index in range(melded.num_operands):
                value = self._reconcile(melded, instr_t.operand(index),
                                        instr_f.operand(index))
                melded.set_operand(index, value)
        for melded, original in self._ig_pairs:
            for index in range(melded.num_operands):
                melded.set_operand(index, self._resolve(original.operand(index)))
        for branch, cond_t, cond_f in self._branch_conditions:
            value = self._reconcile(branch, cond_t, cond_f)
            branch.set_operand(0, value)
        for clone, phi, own, other in self._phi_clones:
            self._wire_phi(clone, phi, own, other)

    def _wire_phi(self, clone: Phi, phi: Phi, own: SESESubgraph,
                  other: SESESubgraph) -> None:
        melded_entry = self.block_map[own.entry]
        is_entry_phi = clone.parent is melded_entry
        seen: List[BasicBlock] = []
        for value, pred in phi.incoming:
            if pred in own.blocks:
                new_pred = self.block_map[pred]
                new_value = self._resolve(value)
            else:
                new_pred = pred
                new_value = value
            if new_pred in seen:
                continue
            seen.append(new_pred)
            clone.add_incoming(new_value, new_pred)
        if is_entry_phi:
            # Lanes arriving via the other path's entry edges never use
            # this φ's value: undef (paper's PreProcess construction).
            for pred in other.external_preds:
                if pred not in seen:
                    seen.append(pred)
                    clone.add_incoming(Undef(clone.type), pred)

    # ---- phase 3: CFG rewiring ------------------------------------------------------

    def _redirect_external_edges(self, subgraph: SESESubgraph,
                                 melded_entry: BasicBlock) -> None:
        for pred in subgraph.external_preds:
            term = pred.terminator
            assert isinstance(term, Branch)
            term.replace_successor(subgraph.entry, melded_entry)

    def _reroute_external_uses(self, s_t: SESESubgraph, s_f: SESESubgraph) -> None:
        """Uses of original subgraph values from outside the pair now read
        the melded clones."""
        melded_region = set(s_t.blocks) | set(s_f.blocks)
        for original, replacement in list(self.operand_map.items()):
            if not isinstance(original, Instruction):
                continue
            for user, index in original.uses:
                if not isinstance(user, Instruction) or user.parent is None:
                    continue
                if user.parent in melded_region:
                    continue
                if user.parent in self.block_map.values():
                    continue  # melded instructions resolve via the map
                user.set_operand(index, replacement)
