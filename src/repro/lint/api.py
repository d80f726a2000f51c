"""Programmatic entry points: ``repro.lint(kernel)`` and level sweeps.

:func:`lint_kernel` is what the callable ``repro.lint`` package resolves
to — it lints a kernel-like object *as it currently is*.
:func:`lint_at_level` additionally compiles a kernel under one of the
difftest matrix's opt levels first, capturing the CFM decision log so
the meld-legality audit has material; the CLI and the kernels-clean
acceptance test are built on it.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.ir.function import Function
from repro.pipeline import ARMS, as_function, compile_arm

from .diagnostics import LintReport
from .engine import LintRule, run_lint
from . import rules as _rules  # noqa: F401  (populates the registry)

#: the opt levels are the compile driver's arms
LINT_LEVELS = ARMS


def _decisions_of(kernel) -> Optional[list]:
    """Pull a melding decision log off the object when it carries one
    (a facade CompileReport with cfm_stats, or a CFMStats itself)."""
    stats = getattr(kernel, "cfm_stats", None) or kernel
    decisions = getattr(stats, "decisions", None)
    return list(decisions) if decisions else None


def lint_kernel(kernel,
                rules: Optional[Sequence[Union[str, LintRule]]] = None,
                decisions: Optional[Sequence[object]] = None) -> LintReport:
    """Lint a kernel-like object as-is (no compilation).

    When ``kernel`` is a facade ``CompileReport`` from a ``cfm=True``
    compile, its melding decision log is picked up automatically so the
    meld-legality audit runs without extra plumbing.
    """
    if decisions is None:
        decisions = _decisions_of(kernel)
    return run_lint(as_function(kernel), rules=rules, decisions=decisions)


def compile_at_level(function: Function, level: str,
                     cfm_config=None) -> Optional[list]:
    """Run one opt level (a compile-driver arm) on ``function`` in place.

    Returns the CFM decision log for the ``o3-cfm`` level (None
    otherwise).
    """
    stats = compile_arm(function, level, cfm_config, verify=False).cfm_stats
    return list(stats.decisions) if stats else None


def lint_at_level(kernel, level: str,
                  rules: Optional[Sequence[Union[str, LintRule]]] = None,
                  cfm_config=None) -> LintReport:
    """Compile ``kernel`` in place at ``level``, then lint it.

    The ``o3-cfm`` level feeds the pass's decision log to the
    meld-legality audit.  Callers wanting several levels of one kernel
    must rebuild it per level — compilation mutates the IR.
    """
    function = as_function(kernel)
    decisions = compile_at_level(function, level, cfm_config=cfm_config)
    return run_lint(function, rules=rules, decisions=decisions)
