"""The built-in rule set.

Each rule encodes one GPU-semantics contract the verifier cannot see
(:mod:`repro.ir.verifier` checks SSA shape; these check *meaning*):

* ``barrier-divergence`` — a barrier reachable only under divergent
  control flow deadlocks a real GPU (§II-B; GPUVerify's barrier
  divergence condition).
* ``shared-memory-race`` — a divergent-indexed shared store followed by
  a load of the same array with no barrier in between reads another
  thread's slot before it is published (the difftest generator's race
  discipline, enforced statically).
* ``undef-use`` — control flow on undef is meaningless (error); data
  flow through undef (selects, stores) is suspicious but defined
  behaviour in this IR (warning) — legal late if-conversion hoists CFM
  selects above their guards.
* ``dead-store`` / ``unreachable-block`` — classic hygiene findings.
* ``out-of-bounds-access`` — a memory access through a GEP on a sized
  global whose index interval (``repro.analysis.ranges``) lies entirely
  outside the array: every executing thread faults.
* ``tautological-branch`` — a conditional branch whose condition the
  interval analysis decides statically: the other side is dead weight
  (and, post-CFM, often a sign a guard lost its meaning).
* ``meld-legality`` — audits the CFM pass's own decision log: a melded
  region's entry branch must have been divergent (Definition 5), the
  guard blocks unpredication created for side-effecting runs must still
  be guarded by a conditional branch (§IV-E), and a meld whose symbolic
  translation validation (``repro.analysis.validate``) came back
  ``INEQUIVALENT`` is reported as an error.

Importing this module populates the registry; :mod:`repro.lint.engine`
stays rule-agnostic.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from repro.ir.block import BasicBlock
from repro.ir.function import GlobalVariable
from repro.ir.instructions import (
    Branch,
    Call,
    GetElementPtr,
    Load,
    Phi,
    Select,
    Store,
)
from repro.ir.types import AddressSpace, PointerType
from repro.ir.values import Undef, Value

from .diagnostics import Diagnostic, Severity
from .engine import LintContext, LintRule, register


def _shared_base(pointer: Value) -> Optional[Value]:
    """The shared-memory object ``pointer`` addresses, or None.

    Peels one GEP level (the IR has no nested GEPs) and accepts either a
    ``shared`` global or any value of shared-space pointer type.
    """
    base = pointer.base if isinstance(pointer, GetElementPtr) else pointer
    if isinstance(base, GlobalVariable):
        return base if base.is_shared else None
    base_type = getattr(base, "type", None)
    if isinstance(base_type, PointerType) and base_type.space == AddressSpace.SHARED:
        return base
    return None


def _gep_index(pointer: Value) -> Optional[Value]:
    return pointer.index if isinstance(pointer, GetElementPtr) else None


def _divergent_terms(index: Value, divergence) -> frozenset:
    """The divergent leaves of an additive index expression.

    ``add(mul(tid, 4), e)`` decomposes to ``{mul(tid, 4)}`` when ``e`` is
    uniform.  Two shared accesses whose indexes share the *same*
    divergent terms and differ only by uniform offsets follow the
    thread-private bucket discipline (each thread stays inside its own
    slot group), which the race rule exempts; accesses through
    *different* divergent expressions (``tid`` vs ``urem(tid+shift)``)
    are exactly the cross-thread handoffs that need a barrier.
    """
    from repro.ir.instructions import BinaryOp, Opcode

    terms = set()
    work = [index]
    while work:
        value = work.pop()
        if divergence.is_uniform(value):
            continue
        if isinstance(value, BinaryOp) and value.opcode == Opcode.ADD:
            work.extend(value.operands)
        else:
            terms.add(value)
    return frozenset(terms)


@register
class BarrierDivergenceRule(LintRule):
    """A barrier that only part of a warp reaches hangs the warp."""

    id = "barrier-divergence"
    severity = Severity.ERROR
    description = ("llvm.gpu.barrier call control-dependent on a divergent "
                   "branch: threads of one warp may disagree about reaching "
                   "it, which deadlocks real hardware")

    def check(self, ctx: LintContext) -> Iterable[Diagnostic]:
        for block in ctx.function.blocks:
            if block not in ctx.reachable:
                continue  # unreachable-block owns that finding
            for instr in block:
                if not (isinstance(instr, Call) and instr.is_barrier):
                    continue
                if ctx.divergence_guarded(block):
                    yield self.diag(
                        ctx,
                        "barrier is only reached under a divergent branch",
                        block=block, instruction=instr)


class _RaceScan:
    """Forward walk from one divergent shared store, cut by barriers."""

    def __init__(self, ctx: LintContext, store: Store, base: Value) -> None:
        self.ctx = ctx
        self.store = store
        self.base = base
        index = _gep_index(store.pointer)
        self.store_terms = (_divergent_terms(index, ctx.divergence)
                            if index is not None else frozenset())

    def conflicting_load(self) -> Optional[Load]:
        block = self.store.parent
        instrs = block.instructions
        tail = instrs[instrs.index(self.store) + 1:]
        hit, cut = self._scan(tail)
        if hit is not None or cut:
            return hit
        seen: Set[BasicBlock] = {block}
        work: List[BasicBlock] = list(block.succs)
        while work:
            succ = work.pop()
            if succ in seen:
                continue
            seen.add(succ)
            hit, cut = self._scan(succ.instructions)
            if hit is not None:
                return hit
            if not cut:
                work.extend(succ.succs)
        return None

    def _scan(self, instrs) -> Tuple[Optional[Load], bool]:
        """(conflicting load, walk-was-cut-by-barrier) over one run."""
        for instr in instrs:
            if isinstance(instr, Call) and instr.is_barrier:
                return None, True
            if (isinstance(instr, Load)
                    and _shared_base(instr.pointer) is self.base
                    and self._conflicts(instr)):
                return instr, False
        return None, False

    def _conflicts(self, load: Load) -> bool:
        """A load conflicts unless it provably stays in the storing
        thread's own slots: same SSA pointer, or an index sharing the
        store's divergent terms with only uniform offsets on top."""
        if load.pointer is self.store.pointer:
            return False
        index = _gep_index(load.pointer)
        if index is None:
            return True
        return (_divergent_terms(index, self.ctx.divergence)
                != self.store_terms)


@register
class SharedMemoryRaceRule(LintRule):
    """store shared[divergent]; …no barrier…; load shared[other]."""

    id = "shared-memory-race"
    severity = Severity.ERROR
    description = ("a divergent-indexed store to shared memory is read "
                   "back through a different address with no intervening "
                   "barrier: the load may observe another thread's slot "
                   "before it is written")

    def check(self, ctx: LintContext) -> Iterable[Diagnostic]:
        # Divergence is computed at the first shared store with a GEP
        # index, so a kernel without one pays no fixpoint.
        for block in ctx.function.blocks:
            if block not in ctx.reachable:
                continue
            for instr in block:
                if not isinstance(instr, Store):
                    continue
                base = _shared_base(instr.pointer)
                if base is None:
                    continue
                index = _gep_index(instr.pointer)
                if index is None or ctx.divergence.is_uniform(index):
                    continue
                load = _RaceScan(ctx, instr, base).conflicting_load()
                if load is not None:
                    yield self.diag(
                        ctx,
                        f"store to shared {base.name!r} reaches a load of "
                        f"the same array (in %{load.parent.name}) with no "
                        f"intervening barrier",
                        block=block, instruction=instr,
                        load_block=load.parent.name)


@register
class UndefUseRule(LintRule):
    """Control or data flow through an undef value."""

    id = "undef-use"
    severity = Severity.WARNING
    emits = (Severity.ERROR, Severity.WARNING)
    description = ("an undef value feeds control flow (error) or memory / "
                   "select data flow (warning); φ incomings are exempt — "
                   "SSA construction and unpredication create them legally")

    def check(self, ctx: LintContext) -> Iterable[Diagnostic]:
        for block in ctx.function.blocks:
            if block not in ctx.reachable:
                continue
            for instr in block:
                if isinstance(instr, Phi):
                    continue
                if isinstance(instr, Branch):
                    if instr.is_conditional and isinstance(instr.condition, Undef):
                        yield self.diag(
                            ctx, "branch on undef condition",
                            block=block, instruction=instr,
                            severity=Severity.ERROR)
                    continue
                if isinstance(instr, Select) and isinstance(instr.condition, Undef):
                    yield self.diag(
                        ctx, "select on undef condition (propagates undef)",
                        block=block, instruction=instr)
                    continue
                if isinstance(instr, Store) and (
                        isinstance(instr.value, Undef)
                        or isinstance(instr.pointer, Undef)):
                    yield self.diag(
                        ctx, "store of/through undef",
                        block=block, instruction=instr)


@register
class DeadStoreRule(LintRule):
    """Two stores to one SSA pointer with nothing reading in between."""

    id = "dead-store"
    severity = Severity.WARNING
    description = ("a store is overwritten by a later store to the same "
                   "SSA pointer in the same block with no intervening "
                   "read, call, or barrier")

    def check(self, ctx: LintContext) -> Iterable[Diagnostic]:
        for block in ctx.function.blocks:
            pending: dict = {}
            for instr in block:
                if isinstance(instr, Store):
                    earlier = pending.get(instr.pointer)
                    if earlier is not None:
                        yield self.diag(
                            ctx, "store overwritten before being read",
                            block=block, instruction=earlier)
                    pending[instr.pointer] = instr
                elif instr.may_read_memory or isinstance(instr, Call):
                    pending.clear()


@register
class UnreachableBlockRule(LintRule):
    """Blocks the entry cannot reach."""

    id = "unreachable-block"
    severity = Severity.WARNING
    description = "a basic block is unreachable from the function entry"

    def check(self, ctx: LintContext) -> Iterable[Diagnostic]:
        for block in ctx.function.blocks:
            if block not in ctx.reachable:
                yield self.diag(ctx, "block is unreachable from entry",
                                block=block)


@register
class OutOfBoundsAccessRule(LintRule):
    """A GEP index interval provably outside its global's bounds."""

    id = "out-of-bounds-access"
    severity = Severity.ERROR
    description = ("a load/store addresses a sized global through an index "
                   "whose value range lies entirely outside the array — "
                   "every thread that executes the access faults")

    def check(self, ctx: LintContext) -> Iterable[Diagnostic]:
        for block in ctx.function.blocks:
            if block not in ctx.reachable:
                continue
            for instr in block:
                pointer = getattr(instr, "pointer", None)
                if not isinstance(instr, (Load, Store)) or \
                        not isinstance(pointer, GetElementPtr):
                    continue
                base = pointer.base
                if not isinstance(base, GlobalVariable):
                    continue
                interval = ctx.ranges.range_of(pointer.index)
                if interval.empty:
                    continue  # dynamically unreachable computation
                if not interval.intersects(0, base.element_count - 1):
                    yield self.diag(
                        ctx,
                        f"index range {interval} never falls inside "
                        f"@{base.name}[0..{base.element_count - 1}]",
                        block=block, instruction=instr,
                        array=base.name,
                        element_count=base.element_count)


@register
class TautologicalBranchRule(LintRule):
    """A conditional branch the interval analysis decides statically."""

    id = "tautological-branch"
    severity = Severity.WARNING
    description = ("a conditional branch's condition is decided by the "
                   "value-range analysis (always true or always false): "
                   "one successor is statically dead, which usually means "
                   "a guard that lost its meaning or a missed fold")

    def check(self, ctx: LintContext) -> Iterable[Diagnostic]:
        from repro.ir.values import Constant

        for block in ctx.function.blocks:
            if block not in ctx.reachable:
                continue
            term = block.terminator
            if not isinstance(term, Branch) or not term.is_conditional:
                continue
            condition = term.condition
            if isinstance(condition, (Constant, Undef)):
                continue  # simplifycfg / undef-use own those findings
            decided = ctx.ranges.decided_condition(condition)
            if decided is not None:
                dead = (term.false_successor if decided
                        else term.true_successor)
                yield self.diag(
                    ctx,
                    f"branch condition is always {str(decided).lower()}; "
                    f"%{dead.name} is statically dead",
                    block=block, instruction=term,
                    always=decided, dead_successor=dead.name)


@register
class MeldLegalityRule(LintRule):
    """Audit the CFM pass's decisions against the divergence analysis."""

    id = "meld-legality"
    severity = Severity.ERROR
    description = ("a melded region's entry branch must have been "
                   "divergent (Definition 5), every guard block "
                   "unpredication created for a side-effecting run must "
                   "still sit behind a conditional branch (§IV-E), and "
                   "no accepted meld may carry an INEQUIVALENT "
                   "translation-validation verdict")

    def check(self, ctx: LintContext) -> Iterable[Diagnostic]:
        for decision in ctx.decisions:
            if not getattr(decision, "accepted", False):
                continue
            if getattr(decision, "validation", None) == "INEQUIVALENT":
                yield self.diag(
                    ctx,
                    f"meld at %{decision.region_entry} failed symbolic "
                    f"translation validation (INEQUIVALENT): the rewrite "
                    f"provably changes an observable under some mask case",
                    region_entry=decision.region_entry,
                    iteration=decision.iteration)
            if getattr(decision, "branch_divergent", None) is False:
                yield self.diag(
                    ctx,
                    f"region at %{decision.region_entry} was melded but "
                    f"its entry branch was uniform — CFM must only meld "
                    f"divergent branches",
                    region_entry=decision.region_entry,
                    iteration=decision.iteration)
            for name in getattr(decision, "guard_blocks", ()) or ():
                try:
                    guard = ctx.function.block_by_name(name)
                except KeyError:
                    continue  # cleaned up by a later pass — nothing to audit
                if not self._guarded(guard):
                    yield self.diag(
                        ctx,
                        f"unpredicated side-effecting block %{name} is no "
                        f"longer behind a conditional guard branch",
                        block=guard,
                        region_entry=decision.region_entry)

    @staticmethod
    def _guarded(block: BasicBlock) -> bool:
        preds = block.preds
        if len(preds) != 1:
            return False
        term = preds[0].terminator
        return isinstance(term, Branch) and term.is_conditional
