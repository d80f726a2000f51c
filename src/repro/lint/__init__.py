"""``repro.lint`` — divergence-aware static diagnostics over the IR.

The package is *callable*: ``repro.lint(kernel)`` lints a kernel-like
object and returns a :class:`LintReport` (see :func:`lint_kernel`), and
``python -m repro.lint`` sweeps the benchmark kernels across opt levels
from the command line (JSON and SARIF output).

Rules encode GPU-semantics contracts the SSA verifier cannot express —
barriers under divergent control flow, shared-memory races across a
missing barrier, melds of uniform branches.  The same report powers the
differential-lint oracle in :mod:`repro.difftest`: no pass may introduce
a new error-severity diagnostic.  See ``docs/lint.md``.
"""

from __future__ import annotations

import sys
from types import ModuleType

from .diagnostics import Diagnostic, LintReport, Severity
from .engine import (
    LintContext,
    LintRule,
    all_rules,
    get_rule,
    register,
    resolve_rules,
    rules_emitting,
    run_lint,
)
from . import rules as rules  # populates the registry on import
from .api import LINT_LEVELS, compile_at_level, lint_at_level, lint_kernel
from .sarif import to_sarif, write_sarif

__all__ = [
    "Severity", "Diagnostic", "LintReport",
    "LintContext", "LintRule", "register", "all_rules", "get_rule",
    "resolve_rules", "rules_emitting", "run_lint", "rules",
    "LINT_LEVELS", "compile_at_level", "lint_at_level", "lint_kernel",
    "to_sarif", "write_sarif",
]


class _CallableLintModule(ModuleType):
    """Lets ``repro.lint`` be used as a function.

    ``import repro.lint`` binds the submodule as an attribute of
    ``repro``, which would otherwise shadow any facade function of the
    same name — so instead the module *itself* is callable, delegating
    to :func:`lint_kernel`.
    """

    def __call__(self, kernel, **kwargs) -> LintReport:
        return lint_kernel(kernel, **kwargs)


sys.modules[__name__].__class__ = _CallableLintModule
