"""GPU divergence analysis (data dependence + sync dependence).

Follows the structure of LLVM's divergence analysis that the paper relies
on (§II-B): a value is *divergent* when threads of a warp may observe
different values for it.  Divergence seeds are the thread-id intrinsics;
taint propagates forward through

* **data dependence** — any user of a divergent value is divergent
  (loads become divergent when their address is divergent), and
* **sync dependence** — φ nodes at the join points of a divergent branch
  are divergent even when all incoming values are uniform, because *which*
  incoming value arrives depends on the thread.

Join points are over-approximated: for a divergent branch in ``B`` with
successors ``s1, s2``, every multi-predecessor block reachable from both
successors is treated as a join.  *Temporal* divergence is handled
separately: when a loop has a divergent exiting branch, threads leave the
loop at different iterations, so every value defined inside the loop and
used outside it is divergent — even though it may be uniform across the
threads still active inside the loop.  This matches the conservative
built-in LLVM analysis the paper uses (§II-B) rather than Rosemann et
al.'s precise one.

The analysis result also classifies *branches*: a branch is divergent when
its condition is (Definition in §II-B); CFM only melds regions rooted at a
divergent branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, Iterable, List, Optional, Set, Tuple

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    Branch,
    Call,
    Instruction,
    IntrinsicName,
)
from repro.ir.types import VoidType
from repro.ir.values import Argument, Value

from .cfg import (
    _fast_succs,
    reachable_from,
    reverse_postorder,
    reverse_postorder_from,
)
from .dominators import (
    DominatorTree,
    compute_dominator_tree,
    compute_postdominator_tree,
    immediate_postdominator,
)
from .loops import Loop, LoopInfo, compute_loop_info


class DivergenceInfo:
    """Result object: query divergence of values and branches."""

    def __init__(self, function: Function, divergent_values: Set[Value],
                 divergent_blocks: Set[BasicBlock]) -> None:
        self.function = function
        self._divergent = divergent_values
        self._divergent_branch_blocks = divergent_blocks

    def is_divergent(self, value: Value) -> bool:
        return value in self._divergent

    def is_uniform(self, value: Value) -> bool:
        return value not in self._divergent

    def has_divergent_branch(self, block: BasicBlock) -> bool:
        """True if ``block`` terminates in a divergent conditional branch."""
        return block in self._divergent_branch_blocks

    @property
    def divergent_branch_blocks(self) -> Set[BasicBlock]:
        return set(self._divergent_branch_blocks)

    @property
    def divergent_values(self) -> Set[Value]:
        return set(self._divergent)


class CFGFacts:
    """The CFG analyses divergence is derived from: the post-dominator
    tree, the loop forest, each branch's join set and — built on first
    use — the dominator tree.

    A fresh instance describes the CFG it was built on.  The CFM pass
    keeps one for a whole run: after each structured edit it calls the
    matching method below, which updates both trees by a local rule and
    drops only the join sets, and the loop forest, that the edit can
    have changed (``docs/melding.md``, "Maintained through edits")."""

    def __init__(self, function: Function) -> None:
        order = reverse_postorder(function)
        self.function = function
        self.postdominators = compute_postdominator_tree(function, order)
        self._loops: Optional[LoopInfo] = compute_loop_info(function, order)
        self._dominators: Optional[DominatorTree] = None
        self._joins: Dict[BasicBlock, Set[BasicBlock]] = {}
        #: per branch block, the blocks its join set was read off
        self._spans: Dict[BasicBlock, Set[BasicBlock]] = {}
        #: per block, the branch blocks whose span holds it; indexed on
        #: the first edit, so an analysis nobody edits pays nothing for it
        self._spanned_by: Optional[Dict[BasicBlock, Set[BasicBlock]]] = None

    @property
    def dominators(self) -> DominatorTree:
        if self._dominators is None:
            self._dominators = compute_dominator_tree(self.function)
        return self._dominators

    @property
    def loops(self) -> LoopInfo:
        if self._loops is None:
            self._loops = compute_loop_info(self.function,
                                            dominators=self.dominators)
        return self._loops

    def join_blocks(self, branch_block: BasicBlock) -> Set[BasicBlock]:
        """:func:`_join_blocks` of ``branch_block``, computed once."""
        joins = self._joins.get(branch_block)
        if joins is None:
            joins, span = _join_span(branch_block, self.postdominators)
            self._joins[branch_block] = joins
            self._spans[branch_block] = span
            if self._spanned_by is not None:
                self._index(branch_block, span)
        return joins

    def _index(self, branch_block: BasicBlock, span: Set[BasicBlock]) -> None:
        for block in span:
            self._spanned_by.setdefault(block, set()).add(branch_block)

    # ---- structured edits ------------------------------------------------

    def region_rewritten(self, entry: BasicBlock, exit_: BasicBlock,
                         deleted: Collection[BasicBlock]) -> Set[BasicBlock]:
        """The inside of the region ``(entry, exit_)`` was rewritten (a
        meld) and the ``deleted`` blocks it orphaned are gone.  The region
        is single-entry and single-exit before and after, so only its own
        blocks and the exit's immediate dominator move.  Returns the
        region's blocks."""
        order = reverse_postorder_from(entry, _fast_succs,
                                        lambda block: block is not exit_)
        blocks = set(order)
        self._edited(blocks.union(deleted, (exit_,)))
        dt = self._dominators
        if dt is not None:
            dt.recompute(order, _preds_of)
            if exit_ is not dt.root:
                # A back edge into the exit comes from below it, which
                # the region's rewrite did not move.
                dt.relink({exit_: dt.common_dominator(
                    p for p in exit_._preds if not dt.dominates(exit_, p))})
            dt.remove(deleted)
        pdt = self.postdominators
        reverse = reverse_postorder_from(exit_, _preds_of, blocks.__contains__)
        if pdt.contains(exit_) and len(reverse) == len(blocks) + 1:
            pdt.recompute(reverse, _fast_succs)
            pdt.remove(deleted)
        else:
            # Some block of the region cannot reach its exit (a return
            # or an endless loop inside): post-dominance leaves it.
            self.postdominators = compute_postdominator_tree(self.function)
        return blocks

    def collector_inserted(self, collector: BasicBlock,
                           blocks: Collection[BasicBlock],
                           target: BasicBlock) -> None:
        """Every edge from ``blocks`` to ``target`` now passes through the
        new ``collector`` (``Simplify``)."""
        self._edited(set(blocks).union((collector, target)))
        for tree in self._trees():
            tree.collector(collector, blocks, target)

    def block_split(self, head: BasicBlock, guarded: BasicBlock,
                    tail: BasicBlock) -> None:
        """``tail`` took ``head``'s terminator and ``head`` now branches to
        ``guarded`` and ``tail`` (unpredication)."""
        self._edited({head, guarded, tail, *_fast_succs(tail)})
        for tree in self._trees():
            tree.split(head, guarded, tail)

    def block_forwarded(self, block: BasicBlock, succ: BasicBlock,
                        preds: Collection[BasicBlock]) -> None:
        """The forwarding ``block`` is gone: its ``preds`` branch to
        ``succ`` directly."""
        self._edited({block, succ, *preds})
        for tree in self._trees():
            tree.bypass(block)

    def branch_folded(self, block: BasicBlock) -> None:
        """``br c, x, x`` in ``block`` became ``br x``: the CFG's edge set
        is unchanged."""
        self._edited((block,), loops=False)

    def _trees(self) -> List[DominatorTree]:
        trees = [self.postdominators]
        if self._dominators is not None:
            trees.append(self._dominators)
        return trees

    def _edited(self, blocks: Collection[BasicBlock], loops: bool = True) -> None:
        """Forget what an edit of ``blocks`` can have changed: the join
        sets read off any of them, and the loop forest if one of them is
        in a loop (a block outside every loop cannot start one)."""
        if self._spanned_by is None:
            self._spanned_by = {}
            for branch, span in self._spans.items():
                self._index(branch, span)
        for block in blocks:
            for branch in self._spanned_by.pop(block, ()):
                del self._joins[branch]
                for other in self._spans.pop(branch):
                    if other is not block:
                        self._spanned_by[other].discard(branch)
        if (loops and self._loops  # None, or a forest with no loop
                and any(self._loops.loop_for(b) is not None for b in blocks)):
            self._loops = None


def _preds_of(block: BasicBlock) -> List[BasicBlock]:
    return block._preds


@dataclass
class FunctionAnalyses:
    """What is known about one CFG state of a function: the divergence of
    its values and branches, and the CFG facts it was derived from.
    Consumers that want divergence (CFM, lint) want the post-dominator
    tree of the same CFG next, so each is built once per CFG state."""

    divergence: DivergenceInfo
    facts: CFGFacts

    @property
    def postdominators(self) -> DominatorTree:
        return self.facts.postdominators

    @property
    def loops(self) -> LoopInfo:
        return self.facts.loops


def compute_divergence(
    function: Function,
    divergent_args: Optional[Iterable[Argument]] = None,
) -> DivergenceInfo:
    """Run the fixpoint divergence analysis.

    ``divergent_args`` lets callers mark arguments as divergence sources
    (kernel arguments are uniform by default, matching GPU semantics).
    """
    return analyze_function(function, divergent_args).divergence


def analyze_function(
    function: Function,
    divergent_args: Optional[Iterable[Argument]] = None,
    facts: Optional[CFGFacts] = None,
) -> FunctionAnalyses:
    """Divergence of ``function`` plus the CFG analyses it was derived from.

    ``facts`` are the current CFG's, when the caller keeps them through
    its edits; otherwise they are built here.  The taint fixpoint is
    sparse: a value is visited once, when it turns divergent, and pushes
    only its users.  The CFG is immutable meanwhile, so each branch's
    join set and each loop's live-outs are computed at most once.
    """
    if facts is None:
        facts = CFGFacts(function)
    exited_loops: Dict[BasicBlock, List[Loop]] = {}
    for loop in facts.loops:
        for block in loop.exiting_blocks:
            exited_loops.setdefault(block, []).append(loop)

    divergent: Set[Value] = set(divergent_args or ())
    divergent_branch_blocks: Set[BasicBlock] = set()
    # Seed: thread-id intrinsics.
    for block in function.blocks:
        for instr in block:
            if (isinstance(instr, Call)
                    and instr.callee in IntrinsicName.THREAD_ID_SOURCES):
                divergent.add(instr)
    work: List[Value] = list(divergent)
    temporal_headers: Set[BasicBlock] = set()

    def taint(values: Iterable[Value]) -> None:
        for value in values:
            if value not in divergent:
                divergent.add(value)
                work.append(value)

    while work:
        for user, _ in work.pop()._uses:
            if (user in divergent or not isinstance(user, Instruction)
                    or user.parent is None):
                continue
            if not isinstance(user, Branch):
                # Data dependence (a load's only operand is its address).
                if not isinstance(user.type, VoidType):
                    divergent.add(user)
                    work.append(user)
                continue
            # A divergent condition: classify the branch, then taint what
            # depends on *which way* each thread went.
            block = user.parent
            divergent_branch_blocks.add(block)
            # Sync dependence: φs at the branch's join points.
            for join in facts.join_blocks(block):
                taint(join.phis)
            # Temporal divergence: threads leave a loop at different
            # iterations, so its live-outs differ between them.
            for loop in exited_loops.get(block, ()):
                if loop.header not in temporal_headers:
                    temporal_headers.add(loop.header)
                    taint(_live_outs(loop))

    return FunctionAnalyses(
        DivergenceInfo(function, divergent, divergent_branch_blocks), facts)


# ---------------------------------------------------------------------------
# Per-function memoization.
#
# The fixpoint is the most expensive analysis in the repo and at least
# three consumers want the same answer for the same IR: the CFM pass, the
# lint rules, and facade callers (``repro.analyze``).  The bundle lives
# on the Function itself (``Function.memo``), so it dies with the
# function — a module-level table, even a weak-keyed one, would keep
# every analysed function alive through ``DivergenceInfo.function``.  It
# is guarded by a cheap structural fingerprint so an *unchanged* function
# hits while any pass that adds/removes blocks or instructions naturally
# misses.  The fingerprint cannot see in-place operand rewrites, so
# mutating callers (PassPipeline between passes, CFM after each meld)
# must also call :func:`invalidate_divergence` explicitly.

_MEMO_KEY = "analysis"


def _fingerprint(function: Function) -> tuple:
    return tuple((id(block), len(block)) for block in function.blocks)


def function_analyses(function: Function) -> FunctionAnalyses:
    """Memoized :func:`analyze_function` (default ``divergent_args``)."""
    token = _fingerprint(function)
    hit: Optional[Tuple[tuple, FunctionAnalyses]] = function.memo.get(_MEMO_KEY)
    if hit is not None and hit[0] == token:
        return hit[1]
    analyses = analyze_function(function)
    function.memo[_MEMO_KEY] = (token, analyses)
    return analyses


def cached_divergence(function: Function) -> DivergenceInfo:
    """Memoized :func:`compute_divergence` (default ``divergent_args``).

    Consumers that share the default-seeded analysis (lint, CFM, the
    facade's ``repro.analyze``) go through here so one compile runs the
    fixpoint once, not once per consumer.
    """
    return function_analyses(function).divergence


def invalidate_divergence(function: Function) -> None:
    """Drop the cached analyses of ``function`` (call after mutating it)."""
    function.memo.pop(_MEMO_KEY, None)


def _live_outs(loop: Loop) -> List[Instruction]:
    """Values defined inside ``loop`` and used outside it."""
    return [instr for block in loop.blocks for instr in block
            if not instr.type.is_void
            and any(isinstance(user, Instruction)
                    and user.parent not in loop.blocks
                    for user, _ in instr._uses)]


def _join_blocks(branch_block: BasicBlock,
                 pdt=None) -> Set[BasicBlock]:
    """Join points of the branch in ``branch_block``.

    Joins are multi-predecessor blocks reachable from two successors on
    paths that do not pass *through* the branch's immediate
    post-dominator, plus the IPDOM itself when it merges control flow.
    The IPDOM cut mirrors the SIMT machine exactly: the simulator's warp
    scheduler reconverges split lanes at the IPDOM, so beyond it the
    "which successor was taken" token is dead and cannot make a φ
    divergent.  In particular a *uniform* loop around the branch no
    longer sees its header φs tainted through the backedge (the old
    over-approximation); divergent loop *exits* are still handled by the
    temporal-divergence step of :func:`analyze_function`.
    """
    if pdt is None:
        pdt = compute_postdominator_tree(branch_block.parent)
    return _join_span(branch_block, pdt)[0]


def _join_span(branch_block: BasicBlock, pdt: DominatorTree
               ) -> Tuple[Set[BasicBlock], Set[BasicBlock]]:
    """``(join set, span)`` of the branch in ``branch_block``.  The span
    holds every block the join set was read off — the branch block, the
    blocks reachable from a successor before the IPDOM, and the IPDOM —
    so an edit touching none of them leaves the join set as it is."""
    succs = branch_block.succs
    span = {branch_block}
    if len(succs) < 2:
        return set(), span
    rpc = immediate_postdominator(pdt, branch_block)
    reach = [reachable_from(s, stop=rpc) | {s} for s in succs]
    joined: Set[BasicBlock] = set()
    for i in range(len(reach)):
        span |= reach[i]
        for j in range(i + 1, len(reach)):
            for block in reach[i] & reach[j]:
                if len(block.preds) >= 2:
                    joined.add(block)
    if rpc is not None:
        span.add(rpc)
        if len(rpc.preds) >= 2:
            joined.add(rpc)
    return joined, span
