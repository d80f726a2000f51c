"""The error-capable rules compute divergence only where one reads it.

``shared-memory-race`` reads ``ctx.divergence`` at a shared store with a
GEP index, as ``barrier-divergence`` reads it at a barrier, so the
differential-lint oracle pays no divergence fixpoint on a kernel with
neither.  Computing divergence up front must change no diagnostic.
"""

import pytest

import repro
from repro.analysis import divergence as divergence_module
from repro.difftest.generator import build_kernel, generate_spec
from repro.ir.instructions import Call, Store
from repro.lint import LintContext, Severity, engine, rules_emitting, run_lint
from repro.lint.rules import _shared_base
from repro.pipeline import compile_arm

ARMS = ("noopt", "o3", "o3-cfm")
ERROR_RULES = rules_emitting(Severity.ERROR)


class _EagerContext(LintContext):
    """A lint context that computes divergence before any rule runs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.divergence


def _needs_divergence(function):
    """Whether ``function`` has a shared store or a barrier."""
    return any(
        (isinstance(instr, Store) and _shared_base(instr.pointer) is not None)
        or (isinstance(instr, Call) and instr.is_barrier)
        for block in function.blocks for instr in block)


def _lint_lazily_and_eagerly(function, monkeypatch):
    """The error rules' diagnostics and ``analyze_function`` call count
    on ``function`` with an empty memo, and the diagnostics of an eager
    context."""
    function.assign_names()  # a dirty report names values: do it first
    calls = []
    analyze = divergence_module.analyze_function
    function.memo.clear()
    with monkeypatch.context() as patch:
        patch.setattr(divergence_module, "analyze_function",
                      lambda *a, **kw: (calls.append(1), analyze(*a, **kw))[1])
        lazy = run_lint(function, ERROR_RULES)
    with monkeypatch.context() as patch:
        patch.setattr(engine, "LintContext", _EagerContext)
        eager = run_lint(function, ERROR_RULES)
    assert ([d.as_dict() for d in lazy.diagnostics]
            == [d.as_dict() for d in eager.diagnostics])
    return len(calls)


def _assert_lazy(functions, monkeypatch):
    skipped = 0
    for function in functions:
        calls = _lint_lazily_and_eagerly(function, monkeypatch)
        if not _needs_divergence(function):
            assert calls == 0, function.name
            skipped += 1
    return skipped


@pytest.mark.parametrize("arm", ARMS)
def test_fig7_fig8_kernels(arm, monkeypatch):
    def compiled():
        for name in sorted(repro.ALL_BUILDERS):
            case = repro.ALL_BUILDERS[name]()
            yield compile_arm(case, arm).function

    assert _assert_lazy(compiled(), monkeypatch) > 0


@pytest.mark.parametrize("arm", ARMS)
def test_generated_kernels(arm, monkeypatch):
    def compiled():
        for seed in range(50):
            builder = build_kernel(generate_spec(seed))
            yield compile_arm(builder, arm).function

    assert _assert_lazy(compiled(), monkeypatch) > 0
