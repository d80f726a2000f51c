"""The unified Pass API: Pass objects, PassResult, and the verify hook."""

import pytest

from repro import (
    BranchFusionPass,
    CFMPass,
    TailMergingPass,
    run_cfm,
)
from repro.transforms import (
    CallablePass,
    Pass,
    PassPipeline,
    PassResult,
    as_pass,
    eliminate_dead_code,
    fold_constants,
)

from tests.support import build_diamond, parse


def make_function():
    return parse("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %a = add i32 2, 3
  %dead = mul i32 %a, 7
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 0
  store i32 %a, i32 addrspace(1)* %g
  ret void
}
""")


class TestPassObjects:
    def test_pass_result_is_truthy_on_change(self):
        assert PassResult(changed=True)
        assert not PassResult(changed=False)

    def test_callable_pass_wraps_function(self):
        p = CallablePass("dce", eliminate_dead_code)
        assert p.name == "dce"
        result = p.run(make_function())
        assert isinstance(result, PassResult) and result.changed

    def test_as_pass_passthrough_and_wrap(self):
        p = CallablePass("x", lambda f: False)
        assert as_pass(p) is p
        wrapped = as_pass(lambda f: False, name="y")
        assert isinstance(wrapped, Pass) and wrapped.name == "y"

    def test_base_pass_requires_run(self):
        with pytest.raises(NotImplementedError):
            Pass().run(make_function())

    def test_pass_object_call_protocol(self):
        # __call__ keeps Pass objects usable anywhere a bool-returning
        # transform function is expected.
        assert CallablePass("fold", fold_constants)(make_function()) is True


class TestPipelineHosting:
    def test_accepts_mixed_pass_forms(self):
        pipeline = PassPipeline([("fold", fold_constants),
                                 CallablePass("dce", eliminate_dead_code)])
        assert [p.name for p in pipeline.passes] == ["fold", "dce"]
        assert pipeline.run(make_function())

    def test_hosts_cfm_and_baselines_uniformly(self):
        for reducer in (CFMPass(), TailMergingPass(), BranchFusionPass()):
            function = build_diamond(identical=True)
            pipeline = PassPipeline([reducer])
            result = pipeline.run(function)
            assert isinstance(result, bool)

    def test_cfm_pass_exposes_stats(self):
        function = build_diamond(identical=True)
        p = CFMPass()
        result = p.run(function)
        assert result.changed
        assert p.stats is result.stats
        assert len(result.stats.melds) == 1

    def test_run_cfm_alias_matches_pass(self):
        via_alias = run_cfm(build_diamond(identical=True))
        via_pass = CFMPass().run(build_diamond(identical=True)).stats
        assert len(via_alias.melds) == len(via_pass.melds) == 1


class TestVerifyAfterEach:
    def test_hook_sees_every_pass_in_order(self):
        seen = []
        pipeline = PassPipeline(
            [("fold", fold_constants), ("dce", eliminate_dead_code)],
            after_each=[lambda name, fn, result: seen.append(name)])
        pipeline.run(make_function())
        assert seen == ["fold", "dce"]

    def test_hook_failure_propagates(self):
        class Boom(Exception):
            pass

        def hook(name, fn, result):
            raise Boom(name)

        pipeline = PassPipeline([("fold", fold_constants)], after_each=[hook])
        with pytest.raises(Boom):
            pipeline.run(make_function())

    def test_hook_runs_even_when_pass_reports_no_change(self):
        seen = []
        pipeline = PassPipeline(
            [("noop", lambda f: False)],
            after_each=[lambda n, f, r: seen.append((n, r.changed))])
        pipeline.run(make_function())
        assert seen == [("noop", False)]

    def test_hook_receives_the_pass_result(self):
        results = []
        pipeline = PassPipeline(
            [CFMPass(), ("dce", eliminate_dead_code)],
            after_each=[lambda n, f, r: results.append(r)])
        pipeline.run(build_diamond(identical=True))
        cfm, dce = results
        assert cfm.changed and len(cfm.stats.melds) == 1
        assert dce.stats is None


class TestLintAfterEach:
    def test_hook_symmetric_with_verify(self):
        # Hooks run in list order after every pass execution.
        calls = []
        pipeline = PassPipeline(
            [("fold", fold_constants), ("dce", eliminate_dead_code)],
            after_each=[lambda name, fn, r: calls.append(("verify", name)),
                        lambda name, fn, r: calls.append(("lint", name))])
        pipeline.run(make_function())
        assert calls == [("verify", "fold"), ("lint", "fold"),
                         ("verify", "dce"), ("lint", "dce")]

    def test_lint_hook_failure_propagates(self):
        class LintBoom(Exception):
            pass

        def hook(name, fn, result):
            raise LintBoom(name)

        seen = []
        pipeline = PassPipeline(
            [("fold", fold_constants)],
            after_each=[lambda n, f, r: seen.append(n), hook,
                        lambda n, f, r: seen.append("after boom")])
        with pytest.raises(LintBoom):
            pipeline.run(make_function())
        assert seen == ["fold"]

    def test_default_is_none(self):
        assert PassPipeline([]).after_each == ()

    def test_changed_pass_invalidates_divergence_memo(self):
        from repro.analysis import cached_divergence

        function = make_function()
        before = cached_divergence(function)
        observed = []
        pipeline = PassPipeline(
            [("fold", fold_constants)],
            after_each=[lambda n, f, r: observed.append(cached_divergence(f))])
        assert pipeline.run(function)  # fold changes the IR
        # The hook saw a FRESH analysis, not the stale pre-pass memo.
        assert observed[0] is not before
