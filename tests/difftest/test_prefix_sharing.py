"""One build and one ``-O3`` prefix per ``run_oracle`` call.

The kernel is built once; the ``-O3`` fixpoint runs once, fully hooked,
on a clone of the build; each reducer arm compiles its own clone of the
post-``-O3`` module with the reducer stage alone.  The contract: every
arm's IR, melds, decision log and failure are what a standalone, fully
hooked compile of that arm produces — with and without an injected bug
— and every distinct pipeline state is still checked: the one check
hook skips only a state equal to the one it checked last.
"""

import pytest

import repro
from repro import pipeline
from repro.difftest import (
    build_kernel,
    generate_spec,
    inject,
    oracle,
    run_oracle,
)
from repro.difftest.bugs import BUGS
from repro.difftest.oracle import ALL_ARMS, MELDING_ARMS, _compile_arm

from tests.difftest.test_mutation import SEED_HUNT, _masked_spec

#: reducer + the four late cleanups
REDUCER_STAGE_PASSES = 5


def _printed(report):
    return report.builder and repro.print_module(report.builder.module)


def _facts(report):
    return (_printed(report), report.melds,
            [d.as_dict() for d in report.decisions], report.failure)


def _failures(verdict):
    return [(f.arm, f.kind, f.pass_name, f.detail, f.input_seed)
            for f in verdict.failures]


class _Standalone(oracle._Prefix):
    """Shares nothing: every arm is a standalone, fully hooked
    ``_compile_arm`` call, then run and diffed as usual."""

    def __init__(self, spec, cfm_config, validate):
        self.spec, self.cfm_config, self.validate = spec, cfm_config, validate

    def compile(self, arm):
        return _compile_arm(arm, self.spec, self.cfm_config, self.validate)


def _run_every_arm_alone(monkeypatch, spec, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_Prefix", _Standalone)
        return run_oracle(spec, **kwargs)


class TestHealthyCompiler:
    @pytest.mark.parametrize("seed", range(50))
    def test_every_arm_is_its_standalone_compile(self, seed):
        spec = generate_spec(seed)
        verdict = run_oracle(spec, validate=True)
        alone = {arm: _compile_arm(arm, spec, None, validate=True)
                 for arm in ALL_ARMS}
        for arm in ALL_ARMS:
            assert _facts(verdict.arms[arm]) == _facts(alone[arm]), arm
        assert verdict.ok
        # Only the first o3* arm checked the prefix...
        assert verdict.arms["o3"].verified_passes \
            == alone["o3"].verified_passes > 0
        for arm in MELDING_ARMS:
            # ...the others check what is theirs alone: the states the
            # standalone compile checked after -O3, plus at most the
            # post--O3 state, which a fresh hook checks when the reducer
            # leaves it as it was.
            after_o3 = (alone[arm].verified_passes
                        - alone["o3"].verified_passes)
            assert 0 <= after_o3 <= REDUCER_STAGE_PASSES
            assert after_o3 <= verdict.arms[arm].verified_passes \
                <= after_o3 + 1
            assert verdict.arms[arm].verified_passes >= 1

    @pytest.mark.parametrize("seed", range(0, 50, 5))
    def test_a_reducer_arm_can_go_first(self, seed):
        spec = generate_spec(seed)
        default = run_oracle(spec, validate=True)
        swapped = run_oracle(spec, arms=("o3-cfm", "o3"), validate=True)
        assert list(swapped.arms) == ["noopt", "o3-cfm", "o3"]
        for arm in swapped.arms:
            assert _facts(swapped.arms[arm]) == _facts(default.arms[arm])
        assert swapped.ok == default.ok
        # The prefix was checked by the CFM arm this time.
        fixpoint = default.arms["o3"].verified_passes
        assert swapped.arms["o3-cfm"].verified_passes \
            == fixpoint + default.arms["o3-cfm"].verified_passes
        assert swapped.arms["o3"].verified_passes == 0

    def test_each_state_is_checked_once_and_nothing_less(self, monkeypatch):
        spec = generate_spec(4)
        fixpoint = len(pipeline.compile_arm(build_kernel(spec),
                                            "o3").pass_timings)
        hooked, final, diffs, audits, validated = [], [], [], [], []
        states = []
        verify = oracle.verify_function
        validate = oracle.validate_melds_hook
        stamp = oracle.fingerprint
        lint = type(repro.lint).__call__

        def recording_lint(module, kernel, rules=None, **kwargs):
            (diffs if rules is oracle._ERROR_RULES else audits).append(rules)
            return lint(module, kernel, rules=rules, **kwargs)

        def recording_validate(pass_name, function, result):
            validated.append(pass_name)
            return validate(pass_name, function, result)

        monkeypatch.setattr(oracle, "verify_function",
                            lambda f: (hooked.append(f), verify(f))[1])
        monkeypatch.setattr(pipeline, "verify_function",
                            lambda f: (final.append(f), verify(f))[1])
        monkeypatch.setattr(oracle, "fingerprint",
                            lambda f: (states.append(stamp(f)), states[-1])[1])
        monkeypatch.setattr(type(repro.lint), "__call__", recording_lint)
        monkeypatch.setattr(oracle, "validate_melds_hook", recording_validate)
        with repro.trace() as tracer:
            verdict = run_oracle(spec, validate=True)
        assert verdict.ok
        executed = [e["name"] for e in tracer.events
                    if e["name"].startswith("pass:")]
        # One fixpoint, then each reducer stage on its own clone...
        assert len(executed) == fixpoint + 3 * REDUCER_STAGE_PASSES
        # ...one state read per pass execution; each hook (one for the
        # prefix, one per reducer arm) checks its first state and every
        # state that differs from the one before it...
        assert len(states) == len(executed)
        segments = [states[:fixpoint]] + [
            states[fixpoint + i * REDUCER_STAGE_PASSES:][
                :REDUCER_STAGE_PASSES] for i in range(3)]
        checks = sum(1 + sum(a != b for a, b in zip(seg, seg[1:]))
                     for seg in segments)
        assert checks < len(executed)
        assert len(hooked) == checks
        assert sum(r.verified_passes for r in verdict.arms.values()) == checks
        # ...by the verifier and by the lint diff (plus the one baseline
        # over the input IR), and the CFM arm's audit still runs.
        assert len(diffs) == checks + 1
        assert audits == [["meld-legality"]]
        # compile_arm's own final verify runs for noopt alone: a hooked
        # compile's last state is the one its hook checked last.
        assert len(final) == 1
        assert "cfm" in validated


def test_the_reference_runs_every_arm_fully_hooked(monkeypatch):
    spec = generate_spec(4)
    alone = _run_every_arm_alone(monkeypatch, spec)
    for arm in MELDING_ARMS:
        assert alone.arms[arm].verified_passes \
            == _compile_arm(arm, spec, None).verified_passes \
            >= alone.arms["o3"].verified_passes


def _hunted_specs(bug):
    if bug == "meld-swap-operand-under-mask":
        return [_masked_spec()]
    return [generate_spec(seed) for seed in SEED_HUNT]


class TestUnderEveryInjectedBug:
    @pytest.mark.parametrize("bug", sorted(BUGS))
    def test_failures_are_those_of_arms_compiled_alone(self, bug, monkeypatch):
        convicted = 0
        with inject(bug):
            for spec in _hunted_specs(bug):
                verdict = run_oracle(spec, validate=True)
                alone = _run_every_arm_alone(monkeypatch, spec, validate=True)
                assert _failures(verdict) == _failures(alone)
                for arm in ALL_ARMS:
                    assert _facts(verdict.arms[arm]) \
                        == _facts(alone.arms[arm]), arm
                convicted += not verdict.ok
        assert convicted, f"{bug} never caught"

    def test_a_dirty_prefix_is_rediscovered_by_every_arm(self):
        # drop-barrier sabotages dce *inside* -O3: nothing is proven, so
        # every o3* arm convicts dce under its own name.
        with inject("drop-barrier"):
            for seed in SEED_HUNT:
                verdict = run_oracle(generate_spec(seed))
                if not verdict.ok:
                    break
        assert [(f.arm, f.kind, f.pass_name) for f in verdict.failures] == [
            (arm, "lint", "dce") for arm in ("o3", *MELDING_ARMS)]
