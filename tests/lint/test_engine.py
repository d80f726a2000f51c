"""Registry, context, rule selection, report algebra, obs integration."""

import pytest

import repro
from repro.lint import (
    Diagnostic,
    LintReport,
    LintRule,
    Severity,
    all_rules,
    get_rule,
    register,
    resolve_rules,
    run_lint,
)
from repro.lint.engine import REGISTRY, LintContext
from repro.obs import Tracer, use as use_tracer

from tests.support import build_diamond, parse


class TestRegistry:
    def test_all_rules_sorted_by_id(self):
        ids = [r.id for r in all_rules()]
        assert ids == sorted(ids)
        assert {"barrier-divergence", "shared-memory-race", "undef-use",
                "dead-store", "unreachable-block",
                "meld-legality"} <= set(ids)

    def test_get_rule_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown lint rule"):
            get_rule("nonsense")

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            @register
            class Clash(LintRule):
                id = "dead-store"
        assert REGISTRY["dead-store"].__class__.__name__ != "Clash"

    def test_missing_id_rejected(self):
        with pytest.raises(ValueError, match="must set a rule id"):
            @register
            class NoId(LintRule):
                pass

    def test_resolve_mixed_names_and_instances(self):
        rule = get_rule("undef-use")
        resolved = resolve_rules(["dead-store", rule])
        assert [r.id for r in resolved] == ["dead-store", "undef-use"]


class TestLintContext:
    def test_divergence_shares_function_memo(self):
        f = build_diamond()
        ctx = LintContext(f)
        assert ctx.divergence is repro.analyze(f)

    def test_analyses_memoized_per_context(self):
        ctx = LintContext(build_diamond())
        assert ctx.ranges is ctx.ranges
        assert ctx.control_dependence is ctx.control_dependence
        assert ctx.reachable is ctx.reachable

    def test_divergence_guarded(self):
        f = build_diamond()
        ctx = LintContext(f)
        then_block = f.entry.succs[0]
        assert ctx.divergence_guarded(then_block)
        assert not ctx.divergence_guarded(f.entry)


class TestConfig:
    def test_disabled_rule_does_not_run(self):
        f = parse("""
define void @k() {
entry:
  ret void
orphan:
  ret void
}
""")
        rules = [r for r in all_rules() if r.id != "unreachable-block"]
        report = run_lint(f, rules=rules)
        assert "unreachable-block" not in report.rules_run
        assert report.by_rule("unreachable-block") == []


def _diag(rule="dead-store", severity=Severity.ERROR, block="b"):
    return Diagnostic(rule=rule, severity=severity, message="m",
                      function="k", block=block)


class TestReportAlgebra:
    def test_new_errors_compares_by_rule_id(self):
        baseline = LintReport("k", diagnostics=[_diag(block="old")])
        moved = LintReport("k", diagnostics=[_diag(block="renamed")])
        # Same rule, different block: a finding that moved is NOT new.
        assert moved.new_errors(baseline) == []
        fresh = LintReport("k", diagnostics=[
            _diag(block="old"), _diag(rule="barrier-divergence")])
        assert [d.rule for d in fresh.new_errors(baseline)] == [
            "barrier-divergence"]

    def test_warnings_never_count_as_new_errors(self):
        baseline = LintReport("k")
        later = LintReport("k",
                           diagnostics=[_diag(severity=Severity.WARNING)])
        assert later.new_errors(baseline) == []
        assert later.ok

    def test_render_and_dict(self):
        report = LintReport("k", diagnostics=[_diag()], rules_run=["x"])
        assert "error[dead-store] @k:%b" in report.render()
        record = report.as_dict()
        assert record["counts"] == {"error": 1, "warning": 0, "info": 0}
        assert record["ok"] is False


class TestObsIntegration:
    def test_diagnostics_emitted_as_lint_instants(self):
        f = parse("""
define void @k() {
entry:
  ret void
orphan:
  ret void
}
""")
        tracer = Tracer()
        with use_tracer(tracer):
            run_lint(f)
        instants = [e for e in tracer.events
                    if e.get("name", "").startswith("lint:")]
        assert len(instants) == 1
        assert instants[0]["name"] == "lint:unreachable-block"
        assert instants[0]["cat"] == "lint"
        assert instants[0]["args"]["block"] == "orphan"

    def test_no_tracer_no_events(self):
        # NullTracer path: nothing recorded, nothing crashes.
        run_lint(build_diamond())
