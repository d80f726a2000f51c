"""The CFM function pass: Algorithm 1 of the paper.

Per iteration: walk the blocks of the kernel; for the first block that
roots a meldable divergent region, simplify its path subgraphs, pick the
most profitable meldable subgraph pair, and meld it if the profitability
clears the threshold, and repeat until no profitable meld remains.

An iteration costs one meld, not one function.  The control-flow
analyses are built once per run and follow every edit after that
(:class:`~repro.analysis.divergence.CFGFacts`): only the divergence
taint reruns per iteration.  The chosen pair's instruction alignment is
computed once and shared by scoring and code generation, SSA repair
looks only at the blocks whose definitions the rewrite can have
displaced, and the cleanups revisit only what the previous round edited.

Each meld is followed by the deletion of the melded pair's blocks, SSA
repair (``PreProcess``/Figure 4), unpredication (§IV-E) and the
post-optimizations of §IV-F (redundant branch folding, trivial-φ
removal, forwarding-block removal, DCE).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.analysis.divergence import (
    CFGFacts,
    FunctionAnalyses,
    analyze_function,
    function_analyses,
)
from repro.analysis.validate import MeldValidation, RegionCapture
from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.obs import (
    BlockPairScore,
    MeldingDecision,
    current_tracer,
    emit_decisions,
    record_cfm_decisions,
    record_validate_verdict,
)
from repro.transforms.dce import eliminate_dead_code
from repro.transforms.simplifycfg import (
    delete_blocks,
    fold_redundant_branch,
    forward_block,
    remove_trivial_phis_in,
)
from repro.transforms.pass_manager import Pass, PassResult
from repro.transforms.ssa_repair import repair_ssa

from .instr_align import InstructionPair, align_mapping, alignment_saved_cycles
from .meldable import MeldableRegion, find_meldable_region
from .melder import Melder
from .profitability import block_profitability
from .sese import path_subgraphs, simplify_path_subgraphs
from .subgraph_align import SubgraphPair, most_profitable_pair
from .unpredication import unpredicate


@dataclass
class CFMConfig:
    """Tunables of the melding pass."""

    #: minimum ``FP_S`` for a pair to be melded (Algorithm 1's threshold)
    profitability_threshold: float = 0.1
    #: upper bound on Algorithm-1 iterations (one meld each)
    max_iterations: int = 64
    #: also unpredicate side-effect-free runs (the paper does; ablation knob)
    split_pure_runs: bool = True
    #: symbolically validate every accepted meld (translation validation;
    #: see :mod:`repro.analysis.validate`); off by default so evaluation
    #: sweeps pay nothing — one boolean check per meld
    validate: bool = False


@dataclass
class CFMStats:
    """Outcome of the pass: its decision log, and what follows from it."""

    #: the structured decision log: every candidate region with its
    #: FP_B/FP_S/FP_I scores, alignment, and accept/reject reason
    decisions: List[MeldingDecision] = field(default_factory=list)
    #: per-meld translation-validation verdicts (only populated when
    #: ``CFMConfig.validate`` is on; read by the
    #: :func:`~repro.analysis.validate.validate_melds_hook` pass hook)
    validations: List[MeldValidation] = field(default_factory=list)
    iterations: int = 0
    seconds: float = 0.0

    @property
    def melds(self) -> List[MeldingDecision]:
        """The accepted decisions, one per meld, in meld order."""
        return [d for d in self.decisions if d.accepted]

    @property
    def regions_considered(self) -> int:
        # _meld_one logs exactly one decision per region it considers
        return len(self.decisions)

    @property
    def pairs_rejected_unprofitable(self) -> int:
        return sum(1 for d in self.decisions
                   if d.action == "rejected-unprofitable")

    @property
    def changed(self) -> bool:
        return bool(self.melds)

    @property
    def total_selects(self) -> int:
        return sum(m.selects_inserted for m in self.melds)

    @property
    def total_melded_instructions(self) -> int:
        return sum(m.instructions_melded for m in self.melds)


class CFMPass(Pass):
    """Control-flow melding as a standard :class:`~repro.transforms.Pass`.

    This is the canonical entry point: a :class:`CFMPass` drops into any
    :class:`~repro.transforms.PassPipeline` next to the standard
    transforms and the Table-I baselines, and its :class:`CFMStats` ride
    along in the returned :class:`PassResult` (also kept on
    :attr:`stats` for the most recent run).
    """

    name = "cfm"

    def __init__(self, config: Optional[CFMConfig] = None) -> None:
        self.config = config or CFMConfig()
        #: statistics of the most recent :meth:`run`
        self.stats: Optional[CFMStats] = None

    def run(self, function: Function) -> PassResult:
        """Apply control-flow melding to ``function`` until fixpoint."""
        stats = CFMStats()
        start = time.perf_counter()

        facts = None
        for _ in range(self.config.max_iterations):
            stats.iterations += 1
            if facts is None:
                # Shared memo: a lint / facade analyze() of the same
                # unchanged IR reuses this fixpoint instead of re-running it.
                analyses = function_analyses(function)
            else:
                # The CFG facts follow every edit; only the taint reruns.
                analyses = analyze_function(function, facts=facts)
            facts = analyses.facts
            if not _meld_one(function, self.config, stats, analyses):
                break

        stats.seconds = time.perf_counter() - start
        self.stats = stats
        emit_decisions(stats.decisions, current_tracer())
        record_cfm_decisions(stats.decisions)
        return PassResult(changed=stats.changed, stats=stats)


def run_cfm(function: Function, config: Optional[CFMConfig] = None) -> CFMStats:
    """``CFMPass(config).run(function).stats``: meld to a fixpoint."""
    return CFMPass(config).run(function).stats


def _meld_one(function: Function, config: CFMConfig, stats: CFMStats,
              analyses: FunctionAnalyses) -> bool:
    """One Algorithm-1 iteration: meld at most one subgraph pair.

    Every candidate region appends one :class:`MeldingDecision` to
    ``stats.decisions`` — the structured log of why the region melded or
    was passed over.  ``analyses`` describe the current CFG, and its
    facts are kept current through every edit the iteration makes.
    """
    divergence = analyses.divergence
    facts = analyses.facts

    for block in function.blocks:
        pdt = facts.postdominators
        region = find_meldable_region(block, divergence, pdt)
        if region is None:
            continue

        true_subs = path_subgraphs(region.true_first, region.exit, pdt)
        false_subs = path_subgraphs(region.false_first, region.exit, pdt)
        if not true_subs or not false_subs:
            stats.decisions.append(MeldingDecision(
                iteration=stats.iterations, region_entry=region.entry.name,
                action="no-path-subgraphs",
                reason="a divergent path decomposes into no SESE subgraphs",
                threshold=config.profitability_threshold))
            continue
        simplified = (simplify_path_subgraphs(function, true_subs)
                      + simplify_path_subgraphs(function, false_subs))
        for sub in simplified:
            facts.collector_inserted(sub.exit, sub.blocks - {sub.exit},
                                     sub.target)

        pair = most_profitable_pair(true_subs, false_subs)
        if pair is None:
            stats.decisions.append(MeldingDecision(
                iteration=stats.iterations, region_entry=region.entry.name,
                action="no-meldable-pair",
                reason="no meldable (isomorphic or case-②) subgraph "
                       "pair exists across the two paths",
                threshold=config.profitability_threshold))
            continue
        alignments = align_mapping(pair.mapping)
        decision = _score_pair(stats.iterations, region, pair, alignments,
                               config)
        # Stamped from the analysis (not from region selection), so the
        # lint meld-legality audit has an independent fact to check.
        decision.branch_divergent = divergence.has_divergent_branch(region.entry)
        if pair.profitability <= config.profitability_threshold:
            decision.action = "rejected-unprofitable"
            decision.reason = (
                f"FP_S {pair.profitability:.4f} ≤ threshold "
                f"{config.profitability_threshold:g}")
            stats.decisions.append(decision)
            continue

        capture = None
        capture_seconds = 0.0
        if config.validate:
            # Pre-meld symbolic summaries must be taken now: the melder
            # consumes the region's blocks.  (The post-meld runs happen
            # after unpredication, before the §IV-F cleanups below.)
            v_start = time.perf_counter()
            capture = RegionCapture(region.entry, region.exit,
                                    region.condition)
            capture_seconds = time.perf_counter() - v_start

        result = Melder(function, region, pair, alignments).meld()
        # The melded pair is all the meld disconnects.
        orphans = pair.true_subgraph.blocks | pair.false_subgraph.blocks
        delete_blocks(function, [b for b in function.blocks if b in orphans])
        inside = facts.region_rewritten(region.entry, region.exit, orphans)
        # The meld rewired only the inside of the divergent region, so
        # only definitions inside it can have lost dominance.
        repair_ssa(function, inside, facts.dominators)
        unpredicated = unpredicate(function, result, config.split_pure_runs,
                                   facts)
        if capture is not None:
            v_start = time.perf_counter()
            validation = capture.compare_against_current()
            validation.seconds = (capture_seconds
                                  + time.perf_counter() - v_start)
            stats.validations.append(validation)
            decision.validation = validation.verdict
            record_validate_verdict(validation.verdict, validation.seconds)
            tracer = current_tracer()
            if tracer.enabled:
                tracer.instant(f"validate:{validation.verdict}",
                               cat="melding",
                               args={"region": validation.region_entry,
                                     "detail": validation.detail})
        _post_optimize(function, facts)

        decision.action = "melded"
        decision.reason = (
            f"FP_S {pair.profitability:.4f} > threshold "
            f"{config.profitability_threshold:g}")
        decision.selects_inserted = result.selects_inserted
        decision.instructions_melded = result.instructions_melded
        decision.instructions_unaligned = result.instructions_unaligned
        decision.unpredicated = unpredicated
        decision.guard_blocks = list(result.guarded_side_effect_blocks)
        stats.decisions.append(decision)
        return True
    return False


def _score_pair(iteration: int, region: MeldableRegion, pair: SubgraphPair,
                alignments: List[Optional[List[InstructionPair]]],
                config: CFMConfig) -> MeldingDecision:
    """Score a chosen pair *before* melding mutates its blocks: per-pair
    ``FP_B`` over the alignment and the summed instruction-level ``FP_I``
    (estimated cycles saved) of every fully-mapped block pair."""
    block_scores = []
    fp_i_total = 0.0
    for (bt, bf), alignment in zip(pair.mapping, alignments):
        if alignment is None:
            block_scores.append(BlockPairScore(
                true_block=bt.name if bt is not None else None,
                false_block=bf.name if bf is not None else None,
                fp_b=0.0))
            continue
        block_scores.append(BlockPairScore(
            true_block=bt.name, false_block=bf.name,
            fp_b=block_profitability(bt, bf)))
        fp_i_total += alignment_saved_cycles(alignment)
    return MeldingDecision(
        iteration=iteration,
        region_entry=region.entry.name,
        action="melded",  # overwritten by the caller's verdict
        reason="",
        threshold=config.profitability_threshold,
        fp_s=pair.profitability,
        true_entry=pair.true_subgraph.entry.name,
        false_entry=pair.false_subgraph.entry.name,
        partial=pair.is_partial,
        alignment=[(bt.name if bt is not None else None,
                    bf.name if bf is not None else None)
                   for bt, bf in pair.mapping],
        block_scores=block_scores,
        fp_i_saved_cycles=fp_i_total,
    )


def _post_optimize(function: Function, facts: CFGFacts) -> None:
    """§IV-F post-optimizations (kept local: full SimplifyCFG runs later
    in the driver pipeline): rounds of branch folding, trivial-φ removal
    and forwarding-block removal, each a sweep in block order, until a
    round changes nothing; then DCE.  None of the three can disconnect a
    block.

    The first round sweeps every block (``docs/melding.md``, "The
    identity gate").  Each later round visits only what the rewrites
    since the previous round began can have made rewritable: a
    rewritten block, a block whose φs or predecessors changed, and the
    predecessors of both (the forwarding blocks whose φ check reads
    them).  So the rewrites happen in the order whole-function rounds
    make them."""
    dirty = set(function.blocks)
    while dirty:
        edited: Set[BasicBlock] = set()

        def touch(blocks) -> None:
            for block in blocks:
                for seen in (block, *block._preds):
                    edited.add(seen)
                    dirty.add(seen)

        for block in function.blocks:
            if block in dirty and fold_redundant_branch(block):
                facts.branch_folded(block)
                touch((block,))
        for block in function.blocks:
            if block in dirty:
                touched = remove_trivial_phis_in(block)
                if touched:
                    touch(touched)
        for block in function.blocks:
            if block in dirty:
                forwarded = forward_block(function, block)
                if forwarded is not None:
                    succ, preds = forwarded
                    facts.block_forwarded(block, succ, preds)
                    touch((succ,))
        dirty = edited
    eliminate_dead_code(function)
