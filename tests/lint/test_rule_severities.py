"""A rule's declared severities (``LintRule.emits``) cannot drift from
what it emits, so running only the error-capable rules — what the
differential-lint oracle does after every pass — loses no error.
"""

import pytest

from repro.difftest.generator import build_kernel, generate_spec
from repro.lint import (
    LintContext,
    LintRule,
    Severity,
    all_rules,
    get_rule,
    rules_emitting,
    run_lint,
)
from repro.pipeline import ARMS, compile_arm

from tests.lint.test_rules import (
    GUARDED,
    UNGUARDED,
    _branch_kernel,
    _decision,
    _diamond_with_barrier,
    _indexed_shared_kernel,
    _staged_kernel,
)
from tests.support import parse

BRANCH_ON_UNDEF = """
define void @k() {
entry:
  br i1 undef, label %a, label %b
a:
  br label %b
b:
  ret void
}
"""

UNDEF_DATA_FLOW_AND_DEAD_STORE = """
define void @k(i32 addrspace(1)* %p) {
entry:
  %v = select i1 undef, i32 1, i32 2
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 0
  store i32 %v, i32 addrspace(1)* %g
  store i32 undef, i32 addrspace(1)* %g
  ret void
orphan:
  ret void
}
"""

#: (function, decision log): the triggering kernel of every rule in
#: tests/lint/test_rules.py and its clean twin
CATALOG = [
    (_diamond_with_barrier(guarded=True), None),
    (_diamond_with_barrier(guarded=False), None),
    (_staged_kernel(with_barrier=False), None),
    (_staged_kernel(with_barrier=True), None),
    (_staged_kernel(with_barrier=False, neighbour="bucket"), None),
    (_indexed_shared_kernel("oob"), None),
    (_indexed_shared_kernel("masked"), None),
    (_branch_kernel(decided=True), None),
    (_branch_kernel(decided=False), None),
    (parse(BRANCH_ON_UNDEF), None),
    (parse(UNDEF_DATA_FLOW_AND_DEAD_STORE), None),
    (parse(GUARDED), [_decision(branch_divergent=False)]),
    (parse(GUARDED), [_decision(branch_divergent=True,
                                validation="INEQUIVALENT")]),
    (parse(UNGUARDED), [_decision(branch_divergent=True,
                                  guard_blocks=["g"])]),
    (parse(GUARDED), [_decision(branch_divergent=True,
                                guard_blocks=["g"])]),
]


def _assert_filter_loses_no_error(function, decisions=None):
    # A dirty report prints the IR, which names anonymous values: do it
    # up front so both reports render instructions the same way.
    function.assign_names()
    everything = run_lint(function, decisions=decisions)
    filtered = run_lint(function, rules=rules_emitting(Severity.ERROR),
                        decisions=decisions)
    for diagnostic in everything.diagnostics:
        assert get_rule(diagnostic.rule).can_emit(diagnostic.severity)
    assert filtered.errors == everything.errors
    return everything


def test_the_error_capable_rules():
    assert [rule.id for rule in rules_emitting(Severity.ERROR)] == [
        "barrier-divergence", "meld-legality", "out-of-bounds-access",
        "shared-memory-race", "undef-use"]
    # Undeclared means "only the default severity".
    for rule in all_rules():
        assert rule.can_emit(rule.severity)
        assert rule.emits is None or rule.severity in rule.emits


def test_an_undeclared_severity_cannot_be_emitted():
    class Drifted(LintRule):
        id = "drifted"
        severity = Severity.WARNING

    ctx = LintContext(parse(GUARDED))
    assert Drifted().diag(ctx, "fine").severity == Severity.WARNING
    with pytest.raises(ValueError, match="does not declare"):
        Drifted().diag(ctx, "an error nobody would run me for",
                       severity=Severity.ERROR)


def test_catalog_kernels_lose_no_error_to_the_filter():
    emitted = set()
    for function, decisions in CATALOG:
        report = _assert_filter_loses_no_error(function, decisions)
        emitted |= {(d.rule, d.severity) for d in report.diagnostics}
    # The catalog really exercises every rule, and both of undef-use's
    # severities.
    assert {rule for rule, _ in emitted} == {r.id for r in all_rules()}
    assert {("undef-use", Severity.ERROR),
            ("undef-use", Severity.WARNING)} <= emitted


@pytest.mark.parametrize("arm", ARMS)
def test_generated_kernels_lose_no_error_to_the_filter(arm):
    for seed in range(50):
        builder = build_kernel(generate_spec(seed))
        stats = compile_arm(builder, arm).cfm_stats
        _assert_filter_loses_no_error(
            builder.function, stats.decisions if stats else None)
