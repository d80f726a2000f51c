"""Rule registry and diagnostics engine.

A :class:`LintRule` inspects one function through a :class:`LintContext`
— a per-run cache of the analyses rules share (divergence, post-dominance
frontiers, reachability, value ranges), so ten rules cost one fixpoint,
not ten.  Rules register themselves in a module-level registry
(:func:`register`); :func:`run_lint` instantiates nothing — the registry
holds singleton rule objects, and all per-run state lives on the context.

The engine is observability-aware: under an ambient tracer
(:mod:`repro.obs`) every diagnostic is emitted as a ``lint:<rule>``
instant on the compile timeline, next to the pass spans and melding
decisions, so a Perfetto view of a compile shows *where in the pipeline*
each finding appeared.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.cfg import reachable_blocks
from repro.analysis.divergence import (
    DivergenceInfo,
    FunctionAnalyses,
    function_analyses,
)
from repro.analysis.dominators import DominatorTree, postdominance_frontier
from repro.analysis.ranges import ValueRanges, compute_ranges
from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.printer import format_instruction
from repro.obs import COMPILE_PID, current_tracer

from .diagnostics import Diagnostic, LintReport, Severity


class LintContext:
    """Shared state of one lint run: the function and lazily computed,
    memoized analyses."""

    def __init__(self, function: Function,
                 decisions: Optional[Sequence[object]] = None) -> None:
        self.function = function
        #: the CFM pass's melding decision log, when the caller has one
        #: (:class:`repro.obs.MeldingDecision` records; consumed by the
        #: meld-legality audit)
        self.decisions: List[object] = list(decisions or [])
        self._analyses: Optional[FunctionAnalyses] = None
        self._pdf: Optional[Dict[BasicBlock, Set[BasicBlock]]] = None
        self._reachable: Optional[Set[BasicBlock]] = None
        self._divergent_deps: Dict[BasicBlock, bool] = {}
        self._ranges: Optional[ValueRanges] = None
        self._ir_lines: Optional[Dict[object, "Tuple[int, int]"]] = None

    # ---- memoized analyses ------------------------------------------------

    @property
    def analyses(self) -> FunctionAnalyses:
        """The function's shared analysis bundle: divergence plus the
        post-dominator tree and loop forest it was computed from (one
        fixpoint and one tree per compile, whoever asks first)."""
        if self._analyses is None:
            self._analyses = function_analyses(self.function)
        return self._analyses

    @property
    def divergence(self) -> DivergenceInfo:
        return self.analyses.divergence

    @property
    def postdominators(self) -> DominatorTree:
        return self.analyses.postdominators

    @property
    def control_dependence(self) -> Dict[BasicBlock, Set[BasicBlock]]:
        """Post-dominance frontier: ``b in PDF(a)`` means ``a`` executes
        (or not) depending on the branch in ``b``."""
        if self._pdf is None:
            self._pdf = postdominance_frontier(self.function,
                                               self.postdominators)
        return self._pdf

    @property
    def reachable(self) -> Set[BasicBlock]:
        if self._reachable is None:
            self._reachable = reachable_blocks(self.function)
        return self._reachable

    @property
    def ranges(self) -> ValueRanges:
        """Interval value ranges (``repro.analysis.ranges``), seeded with
        the thread-geometry intrinsics' bounds — one sparse fixpoint
        shared by every range-based rule."""
        if self._ranges is None:
            self._ranges = compute_ranges(self.function)
        return self._ranges

    # ---- printed-IR locations ---------------------------------------------

    def printed_location(self, block: Optional[BasicBlock],
                         instruction: Optional[Instruction]
                         ) -> "Tuple[Optional[int], Optional[int]]":
        """(line, column), 1-indexed, of a finding's anchor inside
        :func:`repro.ir.printer.print_function` output.

        The map mirrors the printer's fixed layout — ``define`` on line
        1, then per block one label line followed by one line per
        instruction at two-space indentation — so no text parsing is
        needed and the answer stays exact as long as the diagnostic and
        the printed artifact come from the same IR state.
        """
        if self._ir_lines is None:
            lines: Dict[object, Tuple[int, int]] = {}
            line = 1  # line 1 is the "define" header
            for blk in self.function.blocks:
                line += 1
                lines[blk.name] = (line, 1)
                for instr in blk:
                    line += 1
                    lines[id(instr)] = (line, 3)
            self._ir_lines = lines
        if instruction is not None:
            found = self._ir_lines.get(id(instruction))
            if found is not None:
                return found
        if block is not None:
            found = self._ir_lines.get(block.name)
            if found is not None:
                return found
        return None, None

    # ---- derived queries --------------------------------------------------

    def divergence_guarded(self, block: BasicBlock) -> bool:
        """True when reaching ``block`` (or how many times it runs)
        depends on a *divergent* branch: the iterated control-dependence
        set of ``block`` contains a divergent-branch block.

        This is the §II-B reachability notion the barrier rule needs —
        loop bodies are control-dependent on their exiting branches, so
        a divergently-exiting loop taints everything it contains.
        """
        memo = self._divergent_deps
        if block in memo:
            return memo[block]
        pdf = self.control_dependence
        divergence = self.divergence
        seen: Set[BasicBlock] = {block}
        work = [block]
        guarded = False
        while work:
            node = work.pop()
            for dep in pdf.get(node, ()):
                if divergence.has_divergent_branch(dep):
                    guarded = True
                    work = []
                    break
                if dep not in seen:
                    seen.add(dep)
                    work.append(dep)
        for node in seen:
            # The closure is shared: every visited node has the same
            # verdict only when guarded is False; a positive verdict is
            # recorded for the queried block alone.
            if not guarded:
                memo[node] = False
        memo[block] = guarded
        return guarded


class LintRule:
    """One named diagnostic rule.

    Subclasses set :attr:`id`, :attr:`severity` (the default severity of
    their findings) and :attr:`description`, and implement
    :meth:`check`, yielding :class:`Diagnostic` objects (most easily via
    :meth:`diag`).  A rule that passes ``severity=`` to :meth:`diag`
    also lists every severity it can emit in :attr:`emits` — a caller
    that reads only errors (the differential-lint oracle) runs only
    :func:`rules_emitting` them.
    """

    id: str = "rule"
    severity: str = Severity.WARNING
    #: every severity :meth:`check` can emit; None means only
    #: :attr:`severity`
    emits: Optional[Tuple[str, ...]] = None
    description: str = ""

    def can_emit(self, severity: str) -> bool:
        return severity in (self.emits or (self.severity,))

    def check(self, ctx: LintContext) -> Iterable[Diagnostic]:
        raise NotImplementedError

    def diag(self, ctx: LintContext, message: str,
             block: Optional[BasicBlock] = None,
             instruction: Optional[Instruction] = None,
             severity: Optional[str] = None,
             **data: object) -> Diagnostic:
        """Build one diagnostic at the given location."""
        if severity is None:
            severity = self.severity
        if not self.can_emit(severity):
            raise ValueError(f"rule {self.id!r} emitted severity {severity!r} "
                             f"it does not declare in `emits`")
        line, column = ctx.printed_location(block, instruction)
        return Diagnostic(
            rule=self.id,
            severity=severity,
            message=message,
            function=ctx.function.name,
            block=block.name if block is not None else None,
            instruction=(format_instruction(instruction)
                         if instruction is not None else None),
            line=line,
            column=column,
            data=dict(data),
        )

    def __repr__(self) -> str:
        return f"<LintRule {self.id!r}>"


#: rule id -> singleton rule instance
REGISTRY: Dict[str, LintRule] = {}


def register(rule_cls):
    """Class decorator: instantiate and register a :class:`LintRule`."""
    rule = rule_cls()
    if not rule.id or rule.id == "rule":
        raise ValueError(f"{rule_cls.__name__} must set a rule id")
    if rule.id in REGISTRY:
        raise ValueError(f"duplicate lint rule id {rule.id!r}")
    REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> List[LintRule]:
    """Every registered rule, in stable (id-sorted) order."""
    return [REGISTRY[rule_id] for rule_id in sorted(REGISTRY)]


def rules_emitting(severity: str) -> List[LintRule]:
    """The registered rules that can emit ``severity`` (stable order):
    running only these yields the same diagnostics of that severity as
    running every rule."""
    return [rule for rule in all_rules() if rule.can_emit(severity)]


def get_rule(rule_id: str) -> LintRule:
    try:
        return REGISTRY[rule_id]
    except KeyError:
        raise ValueError(f"unknown lint rule {rule_id!r} "
                         f"(available: {sorted(REGISTRY)})") from None


def resolve_rules(rules: Optional[Sequence[Union[str, LintRule]]]
                  ) -> List[LintRule]:
    """Normalize a rule selection (names or instances) to instances."""
    if rules is None:
        return all_rules()
    resolved: List[LintRule] = []
    for entry in rules:
        resolved.append(entry if isinstance(entry, LintRule)
                        else get_rule(entry))
    return resolved


def run_lint(function: Function,
             rules: Optional[Sequence[Union[str, LintRule]]] = None,
             decisions: Optional[Sequence[object]] = None) -> LintReport:
    """Run the (selected) rules over ``function`` and report.

    ``decisions`` is the CFM pass's melding decision log when the caller
    has one — required for the meld-legality audit to have anything to
    audit (without it the rule is a no-op).

    Under an ambient :mod:`repro.obs` tracer each diagnostic is emitted
    as a ``lint:<rule>`` instant event with the diagnostic as args.
    """
    ctx = LintContext(function, decisions=decisions)
    report = LintReport(function=function.name)
    tracer = current_tracer()
    for rule in resolve_rules(rules):
        report.rules_run.append(rule.id)
        for diagnostic in rule.check(ctx):
            report.diagnostics.append(diagnostic)
            if tracer.enabled:
                tracer.instant(f"lint:{diagnostic.rule}", cat="lint",
                               pid=COMPILE_PID,
                               args=diagnostic.as_dict())
    if report.diagnostics:
        # Capture the IR text the line/column coordinates index into, so
        # the SARIF writer can embed it as the physical artifact.  Only
        # paid on a dirty report — the hot differential-lint path stays
        # print-free.
        from repro.ir.printer import print_function
        report.ir_text = print_function(function)
    return report
