"""Symbolic translation validation for control-flow melds.

For every meld the CFM pass accepts, this module proves (or refutes)
that the transformed region is observably equivalent to the original
one under **both** divergence-mask cases — the guarantee the dynamic
difftest oracle can only sample.  The protocol mirrors classic
translation validation:

1. *before* the meld, snapshot the SESE region (a detached structural
   clone — the melder is about to consume the original blocks);
2. *after* melding + SSA repair + unpredication (but before the §IV-F
   post-optimizations), symbolically execute both versions from the
   region entry's terminator to its exit, once with the divergent
   condition ``C`` pinned true and once pinned false;
3. compare, per case and per internal path, the ordered observable
   effects (stores, barriers, definite traps), the trap-capable
   operations actually executed, and the values flowing out through the
   exit block's φ nodes.

Internal branches whose condition the mask case does not decide (nested
data-dependent divergence) are *forked*: the undecided condition
expression is pinned true in one path and false in the other, and —
crucially — the same pin applies to the pre- and post-meld runs, so
both programs are compared under identical assumptions.

Live-in values (everything defined outside the executed region) are
named by a :class:`SymbolTable` shared across all runs of one
validation, keyed by object identity — melding never recreates values
defined outside the region, so identity is a sound correlation.

Verdicts:

* ``EQUIVALENT`` — every case × path matches; ``undef`` in the
  pre-meld program may be *refined* to any concrete post-meld value
  (the usual refinement direction), never the reverse.
* ``INEQUIVALENT`` — some mask case provably changes an observable.
  The :func:`validate_melds_hook` pass hook turns this into a hard
  :class:`MeldValidationError`, next to the difftest oracle's verifier
  and lint hooks in ``PassPipeline(after_each=...)``.
* ``UNSUPPORTED`` — the region leaves the validator's decidable
  fragment (a cycle inside the region, path or step budget blowout, an
  uncorrelatable exit φ).  This is the documented soundness boundary
  (``docs/analysis.md``): unsupported melds are *not* treated as
  failures, they simply fall back to the dynamic oracle's coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.ir.block import BasicBlock
from repro.ir.instructions import (
    Branch,
    Call,
    Cast,
    GetElementPtr,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from repro.ir.scalars import EvalError, eval_strict, is_strict, trap_operand
from repro.ir.values import Constant, Undef, Value

from .cfg import reachable_from

EQUIVALENT = "EQUIVALENT"
INEQUIVALENT = "INEQUIVALENT"
UNSUPPORTED = "UNSUPPORTED"
VERDICTS = (EQUIVALENT, INEQUIVALENT, UNSUPPORTED)

_UNDEF = ("undef",)


class SymbolTable:
    """Stable symbolic names for live-in values, keyed by identity.

    Shared between every pre/post run of one validation so the same
    outside-the-region :class:`Value` reads as the same symbol in both
    programs."""

    def __init__(self) -> None:
        self._symbols: Dict[int, Tuple[object, ...]] = {}
        self._pinned: List[Value] = []  # keep ids stable for our lifetime

    def expr_of(self, value: Value) -> Tuple[object, ...]:
        expr = self._symbols.get(id(value))
        if expr is None:
            expr = ("sym", len(self._symbols), value.name or "v")
            self._symbols[id(value)] = expr
            self._pinned.append(value)
        return expr


def _const_expr(value: Constant) -> Tuple[object, ...]:
    return ("const", value.value, repr(value.type))


def _is_const(expr) -> bool:
    return isinstance(expr, tuple) and expr and expr[0] == "const"


class _Unsupported(Exception):
    pass


class _Fork(Exception):
    """A branch condition neither the mask case nor the current
    assumptions decide: the driver re-runs both programs twice with the
    condition expression pinned each way."""

    def __init__(self, expr: Tuple[object, ...]) -> None:
        self.expr = expr
        super().__init__(repr(expr))


@dataclass
class CaseSummary:
    """Observables of one symbolic execution (one case × assumption set)."""

    case: bool
    #: ordered effects: ("store", ptr, value) | ("barrier",) |
    #: ("call", name, args, n) — comparison is order-sensitive
    events: List[Tuple[object, ...]] = field(default_factory=list)
    #: trap-capable ops executed, in order, with the operand that decides
    #: the trap: (opcode, expr)
    traps: List[Tuple[object, ...]] = field(default_factory=list)
    #: (φ node, symbolic incoming value) at arrival in the exit block
    phi_outputs: List[Tuple[Phi, Tuple[object, ...]]] = field(
        default_factory=list)
    #: opcode of a statically-definite trap that halted the execution
    halted: Optional[str] = None
    unsupported: Optional[str] = None


class _CaseExecutor:
    """One symbolic walk from a start edge to the region exit."""

    def __init__(self, exit_block: BasicBlock, symtab: SymbolTable,
                 condition: Value, case: bool,
                 assumptions: Dict[Tuple[object, ...], bool],
                 phi_incoming: Callable[[Phi, BasicBlock], Optional[Value]],
                 max_steps: int) -> None:
        self.exit_block = exit_block
        self.symtab = symtab
        self.assumptions = assumptions
        self.phi_incoming = phi_incoming
        self.max_steps = max_steps
        self.env: Dict[int, Tuple[object, ...]] = {
            id(condition): ("const", 1 if case else 0, "i1")}
        self.case = case

    def expr(self, value: Value) -> Tuple[object, ...]:
        if isinstance(value, Constant):
            return _const_expr(value)
        if isinstance(value, Undef):
            return _UNDEF
        expr = self.env.get(id(value))
        if expr is None:
            expr = self.symtab.expr_of(value)
        pinned = self.assumptions.get(expr)
        if pinned is not None:
            return ("const", 1 if pinned else 0, "i1")
        return expr

    def run(self, start: BasicBlock, pred: BasicBlock) -> CaseSummary:
        summary = CaseSummary(case=self.case)
        try:
            block = start
            visited = set()
            steps = 0
            while block is not self.exit_block:
                if block in visited:
                    raise _Unsupported(f"cycle through block {block.name}")
                visited.add(block)
                self._enter_phis(block, pred, summary)
                next_edge = None
                for instr in block:
                    if isinstance(instr, Phi):
                        continue
                    steps += 1
                    if steps > self.max_steps:
                        raise _Unsupported(
                            f"step budget ({self.max_steps}) exceeded")
                    next_edge = self._step(instr, block, summary)
                    if summary.halted is not None:
                        return summary
                    if next_edge is not None:
                        break
                if next_edge is None:
                    raise _Unsupported(
                        f"block {block.name} fell through without a branch")
                block, pred = next_edge
            # Arrival at the exit: the φ outputs are the region's data
            # interface (values defined inside a SESE region can only
            # escape through them).
            for phi in self.exit_block.phis:
                incoming = self.phi_incoming(phi, pred)
                if incoming is None:
                    raise _Unsupported(
                        f"exit φ {phi.name} has no incoming for "
                        f"{pred.name}")
                summary.phi_outputs.append((phi, self.expr(incoming)))
        except _Unsupported as exc:
            summary.unsupported = str(exc)
        return summary

    # -- helpers ------------------------------------------------------------

    def _enter_phis(self, block: BasicBlock, pred: BasicBlock,
                    summary: CaseSummary) -> None:
        # Parallel φ semantics: read all incomings before binding any.
        phis = block.phis
        values = []
        for phi in phis:
            try:
                values.append(self.expr(phi.incoming_for(pred)))
            except KeyError:
                raise _Unsupported(
                    f"φ {phi.name} has no incoming for {pred.name}")
        for phi, expr in zip(phis, values):
            self.env[id(phi)] = expr

    def follow(self, terminator: Optional[Instruction], block: BasicBlock
               ) -> Tuple[BasicBlock, BasicBlock]:
        if not isinstance(terminator, Branch):
            raise _Unsupported(
                f"block {block.name} ends in "
                f"{'a return' if isinstance(terminator, Ret) else 'no branch'}"
                f" inside the region")
        if not terminator.is_conditional:
            return terminator.true_successor, block
        cond = self.expr(terminator.condition)
        if not _is_const(cond):
            raise _Fork(cond)
        taken = (terminator.true_successor if cond[1]
                 else terminator.false_successor)
        return taken, block

    def _step(self, instr: Instruction, block: BasicBlock,
              summary: CaseSummary
              ) -> Optional[Tuple[BasicBlock, BasicBlock]]:
        """Execute one instruction; returns the taken edge for branches."""
        if isinstance(instr, Branch):
            return self.follow(instr, block)
        if isinstance(instr, Ret):
            raise _Unsupported(f"return inside the region ({block.name})")
        if isinstance(instr, Store):
            summary.events.append(
                ("store", self.expr(instr.pointer), self.expr(instr.value)))
            return None
        if is_strict(instr):
            self.env[id(instr)] = self._strict(instr, summary)
            return None
        if isinstance(instr, Call):
            if instr.is_barrier:
                summary.events.append(("barrier",))
                return None
            args = tuple(self.expr(a) for a in instr.args)
            if instr.is_pure_intrinsic:
                self.env[id(instr)] = ("op", _op_key(instr), args)
                return None
            event = ("call", instr.callee, args, len(summary.events))
            summary.events.append(event)
            self.env[id(instr)] = event
            return None
        if isinstance(instr, Load):
            # A load is a pure function of its address and the memory
            # state, which in a straight-line path is determined by the
            # number of effects executed so far.
            self.env[id(instr)] = ("load", instr.address_space,
                                   self.expr(instr.pointer),
                                   len(summary.events))
            return None
        if isinstance(instr, Select):
            cond = self.expr(instr.condition)
            t, f = self.expr(instr.true_value), self.expr(instr.false_value)
            if _is_const(cond):
                self.env[id(instr)] = t if cond[1] else f
            elif t == f:
                self.env[id(instr)] = t
            else:
                self.env[id(instr)] = ("op", "select", (cond, t, f))
            return None
        if isinstance(instr, GetElementPtr):
            self.env[id(instr)] = ("op", "gep", (self.expr(instr.base),
                                                 self.expr(instr.index)))
            return None
        raise _Unsupported(f"unsupported opcode {instr.opcode!r}")

    def _known(self, value: Value):
        expr = self.expr(value)
        return expr[1] if _is_const(expr) else None

    def _strict(self, instr: Instruction,
                summary: CaseSummary) -> Tuple[object, ...]:
        """A strict pure op: folded through the semantics table when every
        operand is constant on this path, else a symbolic node."""
        args = tuple(self.expr(operand) for operand in instr.operands)
        # Record the trap-deciding operand of every trap-capable op the
        # path actually executes; a meld must neither add nor remove one.
        decider = trap_operand(instr, self._known)
        if decider is not None:
            summary.traps.append((instr.opcode, self.expr(decider)))
        if all(_is_const(a) for a in args):
            try:
                value = eval_strict(instr, [a[1] for a in args])
            except EvalError:
                summary.halted = instr.opcode
                return _UNDEF
            return ("const", value, repr(instr.type))
        return ("op", _op_key(instr), args)


def _op_key(instr: Instruction) -> str:
    """What, besides its operands, identifies a pure op's value."""
    if isinstance(instr, Call):
        return f"call:{instr.callee}"
    if isinstance(instr, Cast):
        return f"{instr.opcode}:{instr.type!r}"
    predicate = getattr(instr, "predicate", None)
    return instr.opcode if predicate is None else f"{instr.opcode}:{predicate}"


def _refines(pre, post) -> bool:
    """Is ``post`` equal to ``pre`` modulo refinement of pre-``undef``?

    Structural equality over the expression trees, except that an
    ``undef`` leaf in the *pre* program matches anything — a transform
    may give undef a concrete value, never the other way around."""
    if pre == post:
        return True
    if pre == _UNDEF:
        return True
    if (isinstance(pre, tuple) and isinstance(post, tuple)
            and len(pre) == len(post)):
        return all(_refines(a, b) for a, b in zip(pre, post))
    return False


@dataclass
class MeldValidation:
    """Verdict of one meld's translation validation."""

    region_entry: str
    verdict: str
    detail: str = ""
    seconds: float = 0.0
    #: case × assumption paths compared (diagnostics/tests)
    paths: int = 0

    @property
    def ok(self) -> bool:
        return self.verdict != INEQUIVALENT


def _compare_case(pre: CaseSummary, post: CaseSummary) -> Tuple[str, str]:
    label = "C=true" if pre.case else "C=false"
    if pre.unsupported is not None:
        return UNSUPPORTED, f"[{label}] pre-meld: {pre.unsupported}"
    if post.unsupported is not None:
        return UNSUPPORTED, f"[{label}] post-meld: {post.unsupported}"
    if pre.halted != post.halted:
        side = "removes" if post.halted is None else "introduces"
        return INEQUIVALENT, (
            f"[{label}] meld {side} a definite trap "
            f"({pre.halted or post.halted})")
    if len(pre.events) != len(post.events):
        return INEQUIVALENT, (
            f"[{label}] effect count changed: "
            f"{len(pre.events)} -> {len(post.events)}")
    for i, (a, b) in enumerate(zip(pre.events, post.events)):
        if not _refines(a, b):
            return INEQUIVALENT, (
                f"[{label}] effect #{i} differs: pre {a!r} vs post {b!r}")
    if pre.traps != post.traps:
        return INEQUIVALENT, (
            f"[{label}] trap-capable operations differ: "
            f"pre {pre.traps!r} vs post {post.traps!r}")
    post_outputs = {id(phi): expr for phi, expr in post.phi_outputs}
    for phi, pre_expr in pre.phi_outputs:
        if id(phi) not in post_outputs:
            return UNSUPPORTED, (
                f"[{label}] exit φ {phi.name} not correlatable after meld")
        if not _refines(pre_expr, post_outputs[id(phi)]):
            return INEQUIVALENT, (
                f"[{label}] exit φ {phi.name} changes value: "
                f"pre {pre_expr!r} vs post {post_outputs[id(phi)]!r}")
    return EQUIVALENT, ""


def _snapshot_blocks(blocks: List[BasicBlock]
                     ) -> Tuple[Dict[BasicBlock, BasicBlock],
                                Dict[int, Value]]:
    """Detached structural clone of ``blocks``.

    Unlike :func:`repro.transforms.clone.clone_blocks`, the clones are
    never inserted into the function and never link CFG predecessor
    lists — they exist only for the validator to walk after the melder
    has consumed the originals.  Branch targets and φ incoming blocks
    pointing inside the set are remapped to the clones; external ones
    (the region entry, the exit) are kept.

    Crucially, the finished snapshot is *invisible* to the live IR: the
    use-list entries that cloning registered on live operands are
    stripped before returning.  The melder's own SSA repair walks those
    use-lists (``replace_all_uses_with``, dominance checks) and would
    otherwise rewrite the frozen pre-image in place — exactly the
    mutation the snapshot exists to escape.
    """
    block_map: Dict[BasicBlock, BasicBlock] = {}
    for block in blocks:
        clone = BasicBlock(f"{block.name}.preimage")
        block_map[block] = clone
    value_map: Dict[int, Value] = {}
    pairs: List[Tuple[BasicBlock, Instruction, Instruction]] = []
    for block in blocks:
        for instr in block:
            clone = instr.clone()
            clone.name = instr.name
            value_map[id(instr)] = clone
            pairs.append((block, instr, clone))
    for block, original, clone in pairs:
        if isinstance(clone, Phi):
            for pred in clone.incoming_blocks:
                mapped = block_map.get(pred)
                if mapped is not None:
                    clone.replace_incoming_block(pred, mapped)
        for i, operand in enumerate(clone.operands):
            mapped_value = value_map.get(id(operand))
            if mapped_value is not None:
                clone.set_operand(i, mapped_value)
        if isinstance(clone, Branch):
            for i, succ in enumerate(clone.successors):
                mapped = block_map.get(succ)
                if mapped is not None:
                    clone.set_successor(i, mapped)
        target = block_map[block]
        clone.parent = target
        target._instructions.append(clone)
    # Detach from every live use-list: operand slots stay (the walk reads
    # them), the reverse edges go.
    for _, _, clone in pairs:
        for index, operand in enumerate(clone.operands):
            if operand is not None:
                operand._remove_use(clone, index)
    return block_map, value_map


class RegionCapture:
    """Pre-meld snapshot of a region, ready to diff after the meld.

    Create one right before the melder mutates the region, then call
    :meth:`compare_against_current` once the rewritten region is in
    place (after SSA repair and unpredication)."""

    def __init__(self, entry: BasicBlock, exit_block: BasicBlock,
                 condition: Value, max_steps: int = 4000,
                 max_paths: int = 4096) -> None:
        self.entry = entry
        self.exit_block = exit_block
        self.condition = condition
        self.max_steps = max_steps
        self.max_paths = max_paths
        self.symtab = SymbolTable()

        interior = [b for b in reachable_from(entry, stop=exit_block)
                    if b is not entry]
        # Keep function order for deterministic clone naming/iteration.
        order = {b: i for i, b in enumerate(entry.parent.blocks)}
        interior.sort(key=lambda b: order.get(b, len(order)))

        # An interior-defined value used beyond the exit φs (possible
        # only when its block dominates the exit) cannot be correlated
        # once ``repair_ssa`` renames it — declare the region out of the
        # decidable fragment instead of silently under-checking.
        self._escape: Optional[str] = None
        interior_set = set(interior)
        for block in interior:
            for instr in block:
                for user in instr.users:
                    parent = getattr(user, "parent", None)
                    if parent in interior_set:
                        continue
                    if parent is exit_block and isinstance(user, Phi):
                        continue
                    self._escape = (f"value {instr.name or '<anon>'} "
                                    f"escapes the region outside its "
                                    f"exit φs")
                    break

        self._block_map, self._value_map = _snapshot_blocks(interior)

        term = entry.terminator
        if isinstance(term, Branch) and term.is_conditional:
            self._pre_targets = (
                self._block_map.get(term.true_successor,
                                    term.true_successor),
                self._block_map.get(term.false_successor,
                                    term.false_successor))
        else:
            self._pre_targets = None  # degenerate; reported UNSUPPORTED

        # The exit φs' pre-meld incomings, keyed per φ by the (cloned)
        # predecessor — the melder is about to rewrite the real ones.
        self._exit_phi_pre: List[Tuple[Phi, Dict[int, Value]]] = []
        for phi in exit_block.phis:
            per_pred: Dict[int, Value] = {}
            for value, pred in phi.incoming:
                mapped_pred = self._block_map.get(pred, pred)
                mapped_value = self._value_map.get(id(value), value)
                per_pred[id(mapped_pred)] = mapped_value
            self._exit_phi_pre.append((phi, per_pred))

    # -- runs ---------------------------------------------------------------

    def _run_pre(self, case: bool, assumptions) -> CaseSummary:
        if self._pre_targets is None:
            summary = CaseSummary(case=case)
            summary.unsupported = "region entry has no conditional branch"
            return summary

        def phi_incoming(phi: Phi, pred: BasicBlock) -> Optional[Value]:
            for recorded, per_pred in self._exit_phi_pre:
                if recorded is phi:
                    return per_pred.get(id(pred))
            return None

        executor = _CaseExecutor(self.exit_block, self.symtab,
                                 self.condition, case, assumptions,
                                 phi_incoming, self.max_steps)
        start = self._pre_targets[0] if case else self._pre_targets[1]
        return executor.run(start, self.entry)

    def _run_post(self, case: bool, assumptions) -> CaseSummary:
        def phi_incoming(phi: Phi, pred: BasicBlock) -> Optional[Value]:
            try:
                return phi.incoming_for(pred)
            except KeyError:
                return None

        executor = _CaseExecutor(self.exit_block, self.symtab,
                                 self.condition, case, assumptions,
                                 phi_incoming, self.max_steps)
        summary = CaseSummary(case=case)
        try:
            start, pred = executor.follow(self.entry.terminator, self.entry)
        except _Unsupported as exc:
            summary.unsupported = str(exc)
            return summary
        if start is self.exit_block:
            # The whole region folded away: the exit φs read their
            # entry-edge incomings directly.
            for phi in self.exit_block.phis:
                incoming = phi_incoming(phi, pred)
                if incoming is None:
                    summary.unsupported = (
                        f"exit φ {phi.name} has no incoming for "
                        f"{pred.name}")
                    return summary
                summary.phi_outputs.append((phi, executor.expr(incoming)))
            return summary
        return executor.run(start, pred)

    # -- verdict ------------------------------------------------------------

    def compare_against_current(self) -> MeldValidation:
        try:
            return self._compare()
        finally:
            self.dispose()

    def _compare(self) -> MeldValidation:
        if self._escape is not None:
            return MeldValidation(self.entry.name, UNSUPPORTED, self._escape)
        unsupported: Optional[str] = None
        paths = 0
        for case in (True, False):
            stack: List[Dict[Tuple[object, ...], bool]] = [{}]
            while stack:
                assumptions = stack.pop()
                paths += 1
                if paths > self.max_paths:
                    unsupported = (f"path explosion "
                                   f"(> {self.max_paths} case paths)")
                    break
                try:
                    pre = self._run_pre(case, assumptions)
                    post = self._run_post(case, assumptions)
                except _Fork as fork:
                    for pin in (True, False):
                        extended = dict(assumptions)
                        extended[fork.expr] = pin
                        stack.append(extended)
                    continue
                verdict, detail = _compare_case(pre, post)
                if verdict == INEQUIVALENT:
                    return MeldValidation(self.entry.name, INEQUIVALENT,
                                          detail, paths=paths)
                if verdict == UNSUPPORTED and unsupported is None:
                    unsupported = detail
        if unsupported is not None:
            return MeldValidation(self.entry.name, UNSUPPORTED, unsupported,
                                  paths=paths)
        return MeldValidation(self.entry.name, EQUIVALENT, paths=paths)

    def dispose(self) -> None:
        """Drop the snapshot (it holds no live use-list entries)."""
        self._block_map = {}


class MeldValidationError(RuntimeError):
    """A melded region failed symbolic translation validation."""

    def __init__(self, pass_name: str, validation: MeldValidation) -> None:
        self.pass_name = pass_name
        self.validation = validation
        super().__init__(
            f"meld at region {validation.region_entry!r} is INEQUIVALENT "
            f"after pass {pass_name!r}: {validation.detail}")


def validate_melds_hook(pass_name: str, function, result) -> None:
    """A ``PassPipeline(after_each=...)`` hook failing on a bad meld.

    Inspects the :class:`PassResult` for CFM statistics carrying
    per-meld validations (the pass records them when its config enables
    validation) and raises :class:`MeldValidationError` on the first
    ``INEQUIVALENT`` verdict; a no-op after any other pass.
    ``UNSUPPORTED`` melds pass — see the module docstring for the
    soundness boundary."""
    stats = getattr(result, "stats", None)
    for validation in getattr(stats, "validations", None) or []:
        if validation.verdict == INEQUIVALENT:
            raise MeldValidationError(pass_name, validation)
