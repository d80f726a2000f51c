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
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    Branch,
    Call,
    Instruction,
    IntrinsicName,
)
from repro.ir.values import Argument, Value

from .cfg import reachable_from, reverse_postorder
from .dominators import (
    DominatorTree,
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


@dataclass
class FunctionAnalyses:
    """What is known about one CFG state of a function.

    The three results are computed together because divergence needs the
    other two, and consumers that want divergence (CFM, lint) want the
    post-dominator tree of the same CFG next: each is built exactly once
    per CFG state."""

    divergence: DivergenceInfo
    postdominators: DominatorTree
    loops: LoopInfo


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
) -> FunctionAnalyses:
    """Divergence of ``function`` plus the CFG analyses it was derived from.

    The taint fixpoint is sparse: a value is visited once, when it turns
    divergent, and pushes only its users.  The CFG is immutable
    meanwhile, so the post-dominator tree, the loop forest, each
    branch's join set and each loop's live-outs are computed once.
    """
    order = reverse_postorder(function)
    pdt = compute_postdominator_tree(function, order)
    loops = compute_loop_info(function, order)
    exited_loops: Dict[BasicBlock, List[Loop]] = {}
    for loop in loops:
        for block in loop.exiting_blocks:
            exited_loops.setdefault(block, []).append(loop)

    divergent: Set[Value] = set(divergent_args or ())
    divergent_branch_blocks: Set[BasicBlock] = set()
    # Seed: thread-id intrinsics.
    for instr in function.instructions():
        if isinstance(instr, Call) and instr.callee in IntrinsicName.THREAD_ID_SOURCES:
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
            if (not isinstance(user, Instruction) or user.parent is None
                    or user in divergent):
                continue
            if not isinstance(user, Branch):
                # Data dependence (a load's only operand is its address).
                if not user.type.is_void:
                    taint((user,))
                continue
            # A divergent condition: classify the branch, then taint what
            # depends on *which way* each thread went.
            block = user.parent
            divergent_branch_blocks.add(block)
            # Sync dependence: φs at the branch's join points.
            for join in _join_blocks(block, pdt):
                taint(join.phis)
            # Temporal divergence: threads leave a loop at different
            # iterations, so its live-outs differ between them.
            for loop in exited_loops.get(block, ()):
                if loop.header not in temporal_headers:
                    temporal_headers.add(loop.header)
                    taint(_live_outs(loop))

    return FunctionAnalyses(
        DivergenceInfo(function, divergent, divergent_branch_blocks),
        pdt, loops)


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
    over-approximation); divergent loop *exits* are still handled by
    :func:`_mark_temporal_divergence`.
    """
    succs = branch_block.succs
    if len(succs) < 2:
        return set()
    if pdt is None:
        pdt = compute_postdominator_tree(branch_block.parent)
    rpc = immediate_postdominator(pdt, branch_block)
    reach = [reachable_from(s, stop=rpc) | {s} for s in succs]
    joined: Set[BasicBlock] = set()
    for i in range(len(reach)):
        for j in range(i + 1, len(reach)):
            for block in reach[i] & reach[j]:
                if len(block.preds) >= 2:
                    joined.add(block)
    if rpc is not None and len(rpc.preds) >= 2:
        joined.add(rpc)
    return joined
