"""Diagnostic schema of the lint layer.

A :class:`Diagnostic` is one finding of one rule: rule id, severity,
human message, and a location (function / block / instruction, the
instruction rendered through the IR printer so a diagnostic reads like
the IR it points at).  :class:`LintReport` aggregates the findings of
one :func:`repro.lint.run_lint` invocation and is the unit the
differential-lint oracle compares across passes.

Severity semantics (mirrors the verifier/warning split of real
compilers):

* ``error`` — the IR violates a GPU-semantics contract (barrier under
  divergent control flow, a shared-memory race, an illegal meld).  The
  differential oracle treats a *new* error after a pass as that pass's
  failure, and the CLI exits non-zero.
* ``warning`` — suspicious but not certainly broken (dead stores,
  select-on-undef: legal late if-conversion hoists CFM selects above
  their guards — PR 2's lesson — so runtime undef propagation is the
  defined behaviour).
* ``info`` — advisory findings.

Rules are chosen, and so suppressed, by the ``rules=`` selection of
:func:`repro.lint.run_lint`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class Severity:
    """Diagnostic severity levels, most severe first."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    ALL = (ERROR, WARNING, INFO)
    #: SARIF 2.1.0 ``level`` values for each severity
    SARIF_LEVEL = {ERROR: "error", WARNING: "warning", INFO: "note"}

    _rank = {ERROR: 0, WARNING: 1, INFO: 2}

    @classmethod
    def rank(cls, severity: str) -> int:
        """Sort key: lower is more severe."""
        return cls._rank.get(severity, len(cls._rank))

    @classmethod
    def at_least(cls, severity: str, threshold: str) -> bool:
        """True if ``severity`` is as severe as ``threshold`` or more."""
        return cls.rank(severity) <= cls.rank(threshold)


@dataclass
class Diagnostic:
    """One finding of one rule at one IR location."""

    rule: str
    severity: str
    message: str
    function: str
    #: block label the finding anchors to (None for whole-function findings)
    block: Optional[str] = None
    #: offending instruction rendered via the IR printer
    instruction: Optional[str] = None
    #: 1-indexed position inside the printed-IR artifact
    #: (:func:`repro.ir.printer.print_function` of the linted function);
    #: None when the finding has no block/instruction anchor
    line: Optional[int] = None
    column: Optional[int] = None
    #: extra machine-readable facts (rule-specific)
    data: Dict[str, object] = field(default_factory=dict)

    @property
    def is_error(self) -> bool:
        return self.severity == Severity.ERROR

    @property
    def location(self) -> str:
        """``@function`` / ``@function:%block`` rendering."""
        where = f"@{self.function}"
        if self.block is not None:
            where += f":%{self.block}"
        return where

    def fingerprint(self) -> Tuple[str, str, Optional[str]]:
        """Identity of the finding for cross-report comparison.

        Deliberately excludes the message and the rendered instruction:
        value names shift as passes rewrite the IR, and the differential
        oracle must not report a renamed finding as a new one.
        """
        return (self.rule, self.function, self.block)

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "function": self.function,
            "block": self.block,
            "instruction": self.instruction,
        }
        if self.line is not None:
            record["line"] = self.line
            record["column"] = self.column
        if self.data:
            record["data"] = dict(self.data)
        return record

    def render(self) -> str:
        """One-line human rendering, grep-friendly."""
        line = f"{self.severity}[{self.rule}] {self.location}: {self.message}"
        if self.instruction:
            line += f"\n    {self.instruction}"
        return line


@dataclass
class LintReport:
    """Every diagnostic one :func:`run_lint` invocation produced."""

    function: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: rules that actually ran (after config suppression), in run order
    rules_run: List[str] = field(default_factory=list)
    #: printed IR of the linted function, captured when the report is
    #: dirty — the artifact the diagnostics' line/column point into
    ir_text: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the report holds no error-severity diagnostics."""
        return not self.errors

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.WARNING]

    def by_rule(self, rule_id: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule_id]

    def new_errors(self, baseline: "LintReport") -> List[Diagnostic]:
        """Errors in this report absent from ``baseline``.

        The differential-lint oracle's comparison: a pass is guilty when
        it *introduces* an error the input IR did not already carry.
        Comparison is by rule id (not fingerprint): passes rename and
        restructure blocks, so a pre-existing finding that moved must
        not read as new.
        """
        baseline_rules = {d.rule for d in baseline.errors}
        return [d for d in self.errors if d.rule not in baseline_rules]

    def as_dict(self) -> Dict[str, object]:
        return {
            "function": self.function,
            "rules_run": list(self.rules_run),
            "ok": self.ok,
            "counts": {
                "error": len(self.errors),
                "warning": len(self.warnings),
                "info": len(self.diagnostics)
                - len(self.errors) - len(self.warnings),
            },
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }

    def render(self, min_severity: str = Severity.INFO) -> str:
        """Multi-line human rendering of the report."""
        shown = [d for d in self.diagnostics
                 if Severity.at_least(d.severity, min_severity)]
        if not shown:
            return f"@{self.function}: clean ({len(self.rules_run)} rules)"
        lines = [f"@{self.function}: {len(self.errors)} error(s), "
                 f"{len(self.warnings)} warning(s)"]
        for diag in sorted(shown, key=lambda d: (Severity.rank(d.severity),
                                                 d.rule, d.block or "")):
            lines.append("  " + diag.render().replace("\n", "\n  "))
        return "\n".join(lines)
