"""Tests for symbolic translation validation of melds.

Three layers, innermost out:

* :class:`RegionCapture` as a unit — snapshot a region, optionally
  mutate the live IR, and diff;
* the CFM pass with ``CFMConfig(validate=True)`` — every accepted meld
  on every benchmark kernel must verdict ``EQUIVALENT``, through both
  the direct pass pipeline and the lint layer's ``compile_at_level``;
* the :func:`validate_melds_hook` pipeline hook — a corrupted melder
  must raise :class:`MeldValidationError` at the guilty pass.
"""

import pytest

import repro
from repro import CFMConfig, CFMPass, late_pipeline, o3_pipeline
from repro.analysis import (
    EQUIVALENT,
    INEQUIVALENT,
    UNSUPPORTED,
    MeldValidationError,
    RegionCapture,
    validate_melds_hook,
)
from repro.ir import I32, Select
from repro.ir.values import Constant
from repro.kernels import ALL_BUILDERS
from repro.transforms import PassPipeline

from tests.support import build_diamond, parse


def _capture_diamond():
    f = build_diamond()
    entry, then, els, merge = f.blocks
    return f, RegionCapture(entry, merge, entry.terminator.condition)


class TestRegionCapture:
    def test_unmodified_region_is_equivalent(self):
        _, capture = _capture_diamond()
        validation = capture.compare_against_current()
        assert validation.verdict == EQUIVALENT
        assert validation.paths > 0
        assert validation.ok

    def test_mutated_region_is_inequivalent(self):
        f, capture = _capture_diamond()
        then = f.blocks[1]
        add = next(i for i in then if getattr(i, "name", "") == "ra")
        add.set_operand(1, Constant(I32, 2))  # was +1, now +2
        validation = capture.compare_against_current()
        assert validation.verdict == INEQUIVALENT
        assert not validation.ok
        assert "differs" in validation.detail

    def test_path_cap_degrades_to_unsupported_not_wrong(self):
        f = build_diamond()
        entry, then, els, merge = f.blocks
        capture = RegionCapture(entry, merge, entry.terminator.condition,
                                max_paths=0)
        validation = capture.compare_against_current()
        assert validation.verdict == UNSUPPORTED
        assert validation.ok  # soundness boundary: not a conviction


#: both arms do ``out[tid] = <body>(in[tid])`` on their own buffers
_FLOAT_DIAMOND = """
define void @k(float addrspace(1)* %a, float addrspace(1)* %b, i32 addrspace(1)* %out) {{
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %rem = urem i32 %tid, 2
  %cond = icmp eq i32 %rem, 0
  %po = getelementptr i32, i32 addrspace(1)* %out, i32 %tid
  br i1 %cond, label %then, label %else
then:
  %pa = getelementptr float, float addrspace(1)* %a, i32 %tid
  %va = load float, float addrspace(1)* %pa
{then}
  br label %merge
else:
  %pb = getelementptr float, float addrspace(1)* %b, i32 %tid
  %vb = load float, float addrspace(1)* %pb
{els}
  br label %merge
merge:
  ret void
}}
"""


def _float_diamond(then, els):
    f = parse(_FLOAT_DIAMOND.format(then=then, els=els))
    entry, _, _, merge = f.blocks
    return f, RegionCapture(entry, merge, entry.terminator.condition)


class TestEveryStrictOpIsInTheFragment:
    """The validator folds and records traps through the semantics table
    (``repro.ir.scalars``): no pure op is an unknown opcode, and a
    trapping constant is a verdict, not a traceback."""

    def test_melded_fneg_diamond_is_equivalent(self):
        f, _ = _float_diamond(
            "  %na = fneg float %va\n  store float %na, float addrspace(1)* %pa",
            "  %nb = fneg float %vb\n  store float %nb, float addrspace(1)* %pb")
        cfm = CFMPass(CFMConfig(validate=True))
        cfm.run(f)
        assert [v.verdict for v in cfm.stats.validations] == [EQUIVALENT]

    def test_constant_non_finite_fptosi_is_a_verdict_not_a_traceback(self):
        body = ("  %i{0} = fdiv float 1.0, 0.0\n"
                "  %q{0} = fptosi float %i{0} to i32\n"
                "  store i32 %q{0}, i32 addrspace(1)* %po")
        f, _ = _float_diamond(body.format("a"), body.format("b"))
        cfm = CFMPass(CFMConfig(validate=True))
        cfm.run(f)  # used to raise EvalError
        # Both programs halt in the same definite trap: comparable.
        assert [v.verdict for v in cfm.stats.validations] == [EQUIVALENT]

    def test_a_safe_literal_melded_into_a_select_is_still_safe(self):
        # `sdiv %va, 5` / `sdiv %vb, 7` meld into `sdiv %v, select(C, 5, 7)`:
        # no literal any more, but per mask case the divisor is a known
        # nonzero constant — not a trap-capable op the meld added.
        body = ("  %c{0} = fptosi float %v{0} to i32\n"
                "  %q{0} = sdiv i32 %c{0}, {1}\n"
                "  %s{0} = shl i32 %q{0}, {2}\n"
                "  store i32 %s{0}, i32 addrspace(1)* %po")
        f, _ = _float_diamond(body.format("a", 5, 3), body.format("b", 7, 4))
        cfm = CFMPass(CFMConfig(validate=True))
        cfm.run(f)
        assert any(i.opcode == "sdiv" and isinstance(i.operand(1), Select)
                   for i in f.instructions())
        assert [v.verdict for v in cfm.stats.validations] == [EQUIVALENT]

    def test_dropping_an_fptosi_from_one_path_is_inequivalent(self):
        body = ("  %q{0} = fptosi float %v{0} to i32\n"
                "  store i32 7, i32 addrspace(1)* %po")
        f, capture = _float_diamond(body.format("a"), body.format("b"))
        next(i for i in f.blocks[1] if i.opcode == "fptosi").erase_from_parent()
        validation = capture.compare_against_current()
        assert validation.verdict == INEQUIVALENT
        assert "trap-capable operations differ" in validation.detail
        assert "fptosi" in validation.detail


def _compile_with_validation(function):
    """o3 fixpoint, CFM with validation, late cleanups; returns stats."""
    o3_pipeline().run_to_fixpoint(function)
    cfm = CFMPass(CFMConfig(validate=True))
    cfm.run(function)
    late_pipeline().run(function)
    return cfm.stats


class TestBenchmarkKernelsValidate:
    def test_every_meld_on_every_benchmark_kernel_is_equivalent(self):
        total = 0
        for name, builder in sorted(ALL_BUILDERS.items()):
            stats = _compile_with_validation(builder().function)
            for validation in stats.validations:
                assert validation.verdict == EQUIVALENT, (
                    f"{name}: meld at {validation.region_entry!r} is "
                    f"{validation.verdict}: {validation.detail}")
            total += len(stats.validations)
        assert total > 0, "no benchmark kernel melded — sweep is vacuous"

    def test_lint_compile_path_stamps_verdicts_on_decisions(self):
        from repro.lint import compile_at_level

        verdicts = set()
        for name, builder in sorted(ALL_BUILDERS.items()):
            decisions = compile_at_level(builder().function, "o3-cfm",
                                         cfm_config=CFMConfig(validate=True))
            for decision in decisions or []:
                if decision.accepted:
                    assert decision.validation is not None
                    verdicts.add(decision.validation)
        assert verdicts == {EQUIVALENT}

    def test_validation_off_by_default_records_nothing(self):
        case = next(iter(sorted(ALL_BUILDERS.items())))[1]()
        function = case.function
        o3_pipeline().run_to_fixpoint(function)
        cfm = CFMPass(CFMConfig())
        cfm.run(function)
        assert cfm.stats.validations == []
        assert all(d.validation is None for d in cfm.stats.decisions)


class TestValidateMeldsHook:
    def _run_cfm_stage(self, function):
        o3_pipeline().run_to_fixpoint(function)
        pipeline = PassPipeline([CFMPass(CFMConfig(validate=True))],
                                after_each=[validate_melds_hook])
        pipeline.run(function)

    def test_healthy_compile_passes_the_hook(self):
        self._run_cfm_stage(build_diamond())  # must not raise

    def test_corrupted_meld_raises_at_the_guilty_pass(self):
        from repro.difftest import inject

        with inject("meld-swap-operand-under-mask"):
            with pytest.raises(MeldValidationError) as excinfo:
                self._run_cfm_stage(build_diamond())
        assert excinfo.value.pass_name == "cfm"
        assert excinfo.value.validation.verdict == INEQUIVALENT
        assert "INEQUIVALENT" in str(excinfo.value)
