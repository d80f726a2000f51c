"""The CFM function pass: Algorithm 1 of the paper.

Per iteration: walk the blocks of the kernel; for the first block that
roots a meldable divergent region, simplify its path subgraphs, pick the
most profitable meldable subgraph pair, and meld it if the profitability
clears the threshold.  Melding invalidates every control-flow analysis,
so the pass recomputes them and repeats until no profitable meld remains.

An iteration costs one meld, not one function: each analysis is built
once per CFG state (divergence hands over the post-dominator tree it was
computed from; the chosen pair's instruction alignment is computed once
and shared by scoring and code generation), and SSA repair looks only at
the blocks whose definitions the rewrite can have displaced.

Each meld is followed by SSA repair (``PreProcess``/Figure 4),
unpredication (§IV-E) and the post-optimizations of §IV-F (redundant
branch folding, trivial-φ removal, unreachable-block cleanup, DCE).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.divergence import function_analyses, invalidate_divergence
from repro.analysis.dominators import compute_postdominator_tree
from repro.analysis.latency import DEFAULT_LATENCY_MODEL, LatencyModel
from repro.analysis.regions import region_blocks
from repro.analysis.validate import MeldValidation, RegionCapture
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
    fold_redundant_branches,
    remove_forwarding_blocks,
    remove_trivial_phis,
    remove_unreachable_blocks,
)
from repro.transforms.pass_manager import Pass, PassResult
from repro.transforms.ssa_repair import repair_ssa

from .instr_align import InstructionPair, align_mapping, alignment_saved_cycles
from .meldable import MeldableRegion, find_meldable_region
from .melder import Melder, MeldResult
from .profitability import block_profitability
from .sese import path_subgraphs, simplify_path_subgraphs
from .subgraph_align import (
    SubgraphPair,
    align_subgraphs,
    most_profitable_pair,
)
from .unpredication import unpredicate


@dataclass
class CFMConfig:
    """Tunables of the melding pass."""

    #: minimum ``FP_S`` for a pair to be melded (Algorithm 1's threshold)
    profitability_threshold: float = 0.1
    #: upper bound on Algorithm-1 iterations (one meld each)
    max_iterations: int = 64
    #: run §IV-E unpredication after each meld
    unpredication: bool = True
    #: also unpredicate side-effect-free runs (the paper does; ablation knob)
    split_pure_runs: bool = True
    #: use optimal NW subgraph alignment instead of the paper's greedy scan
    optimal_subgraph_alignment: bool = False
    #: allow case-② melds (simple region with single basic block, Def. 6)
    allow_partial_melds: bool = True
    #: symbolically validate every accepted meld (translation validation;
    #: see :mod:`repro.analysis.validate`); off by default so evaluation
    #: sweeps pay nothing — one boolean check per meld
    validate: bool = False
    latency: LatencyModel = field(default_factory=lambda: DEFAULT_LATENCY_MODEL)


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

        for _ in range(self.config.max_iterations):
            stats.iterations += 1
            if not _meld_one(function, self.config, stats):
                break

        stats.seconds = time.perf_counter() - start
        self.stats = stats
        emit_decisions(stats.decisions, current_tracer())
        record_cfm_decisions(stats.decisions)
        return PassResult(changed=stats.changed, stats=stats)


def run_cfm(function: Function, config: Optional[CFMConfig] = None) -> CFMStats:
    """``CFMPass(config).run(function).stats``: meld to a fixpoint."""
    return CFMPass(config).run(function).stats


def _meld_one(function: Function, config: CFMConfig, stats: CFMStats) -> bool:
    """One Algorithm-1 iteration: meld at most one subgraph pair.

    Every candidate region appends one :class:`MeldingDecision` to
    ``stats.decisions`` — the structured log of why the region melded or
    was passed over.
    """
    # Shared memo: a lint / facade analyze() of the same unchanged IR
    # reuses this fixpoint instead of re-running it — and the fixpoint's
    # own post-dominator tree is the one this CFG state needs.
    analyses = function_analyses(function)
    divergence = analyses.divergence
    pdt = analyses.postdominators

    for block in function.blocks:
        if pdt is None:
            pdt = compute_postdominator_tree(function)
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
        changed_t = simplify_path_subgraphs(function, true_subs)
        changed_f = simplify_path_subgraphs(function, false_subs)
        if changed_t or changed_f:
            invalidate_divergence(function)
            # Region simplification only inserts forwarding exit blocks;
            # the subgraph descriptors were updated in place and the
            # melder does not consult the stale post-dominator tree.  It
            # is rebuilt only if this region ends up not melding and the
            # scan moves on to the next block.
            pdt = None

        pair = _choose_pair(true_subs, false_subs, config)
        if pair is None:
            stats.decisions.append(MeldingDecision(
                iteration=stats.iterations, region_entry=region.entry.name,
                action="no-meldable-pair",
                reason="no meldable (isomorphic or case-②) subgraph "
                       "pair exists across the two paths",
                threshold=config.profitability_threshold))
            continue
        alignments = align_mapping(pair.mapping, config.latency)
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
        remove_unreachable_blocks(function)
        # The meld rewired only the inside of the divergent region, so
        # only definitions inside it can have lost dominance.
        repair_ssa(function, region_blocks(region.entry, region.exit))
        unpredicated = False
        if config.unpredication:
            unpredicated = unpredicate(function, result,
                                       config.split_pure_runs)
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
        _post_optimize(function)
        invalidate_divergence(function)

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
            fp_b=block_profitability(bt, bf, config.latency)))
        fp_i_total += alignment_saved_cycles(alignment, config.latency)
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


def _choose_pair(true_subs, false_subs, config: CFMConfig) -> Optional[SubgraphPair]:
    if config.optimal_subgraph_alignment:
        pairs = align_subgraphs(true_subs, false_subs, config.latency)
        profitable = [p for p in pairs
                      if p.profitability > config.profitability_threshold]
        if not profitable:
            return None
        return max(profitable, key=lambda p: p.profitability)
    return most_profitable_pair(true_subs, false_subs, config.latency,
                                allow_partial=config.allow_partial_melds)


def _post_optimize(function: Function) -> None:
    """§IV-F post-optimizations (kept local: full SimplifyCFG runs later
    in the driver pipeline).  None of the three cleanups can disconnect
    a block — they fold duplicate edges, drop φs and bypass forwarding
    blocks — so the unreachable-block sweep right after the meld is the
    only one an iteration needs."""
    changed = True
    while changed:
        changed = False
        changed |= fold_redundant_branches(function)
        changed |= remove_trivial_phis(function)
        changed |= remove_forwarding_blocks(function)
    eliminate_dead_code(function)
