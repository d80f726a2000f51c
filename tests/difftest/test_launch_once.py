"""One launch per distinct µop program per ``run_oracle`` call.

Each compiled arm is lowered once; an arm whose symbolic program and
global layout equal an earlier arm's takes that launch's outputs, and
its launch failure renamed to the arm, instead of launching again.  The
contract: every arm's outputs, failure and mismatches are those of an
*unshared* reference that launches every arm's builder on a fresh GPU,
from a fresh clone with nothing lowered or seeded — and the reuse key
is the program itself, so an in-place rewrite the IR fingerprint cannot
see (an ``icmp`` predicate) still launches and still mismatches.
"""

import json

import pytest

import repro
from repro.baselines import TailMergingPass
from repro.difftest import generate_spec, inject, oracle, run_oracle
from repro.difftest.bugs import BUGS
from repro.difftest.oracle import Failure
from repro.ir import fingerprint
from repro.ir.instructions import ICmp
from repro.simt import DEFAULT_CONFIG, lower_symbolic
from repro.transforms import clone_module

from tests.difftest.test_mutation import _masked_spec

INPUT_SEEDS = (0, 1)


def _unshared(report, spec):
    """``report``'s arm launched alone: each input set on a fresh GPU,
    from a fresh clone of its module, so no launch, lowering or seeded
    program is shared with anything."""
    module = clone_module(report.builder.module)
    outputs = []
    for input_seed in INPUT_SEEDS:
        try:
            result = repro.launch(module, spec.grid_dim, spec.block_dim,
                                  oracle.make_inputs(spec, input_seed))
        except Exception as exc:
            return None, Failure(arm=report.arm, kind="crash",
                                 input_seed=input_seed,
                                 detail=f"{type(exc).__name__}: {exc}")
        outputs.append(result.outputs)
    return outputs, None


def _assert_launches_unshared(verdict, spec):
    reference = {arm: _unshared(report, spec)
                 for arm, report in verdict.arms.items()
                 if report.builder is not None}
    mismatches = []
    for arm, (outputs, failure) in reference.items():
        report = verdict.arms[arm]
        assert report.outputs == outputs, arm
        if failure is not None:
            assert report.failure == failure, arm
        else:
            assert report.failure is None or report.failure.kind == "mismatch"
        expected = reference["noopt"][0]
        if arm == "noopt" or outputs is None or expected is None:
            continue
        for input_seed, ref, got in zip(INPUT_SEEDS, expected, outputs):
            if got != ref:
                mismatches.append((arm, input_seed,
                                   oracle._first_difference(ref, got)))
    assert [(f.arm, f.input_seed, f.detail) for f in verdict.failures
            if f.kind == "mismatch"] == mismatches
    return mismatches


def _program(report):
    return json.dumps(lower_symbolic(report.builder.function,
                                     DEFAULT_CONFIG.latency))


@pytest.mark.parametrize("seed", range(100))
def test_outputs_and_failures_equal_unshared_launches(seed):
    spec = generate_spec(seed)
    verdict = run_oracle(spec, input_seeds=INPUT_SEEDS, validate=True)
    _assert_launches_unshared(verdict, spec)


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize("bug", sorted(BUGS))
def test_unshared_under_each_injected_bug(bug, validate):
    spec = _masked_spec()
    with inject(bug):
        verdict = run_oracle(spec, input_seeds=INPUT_SEEDS,
                             validate=validate)
        mismatches = _assert_launches_unshared(verdict, spec)
    if bug == "swap-select":
        # A melding arm launches a program of its own, and mismatches.
        assert mismatches


def test_a_reused_launch_failure_is_renamed(monkeypatch):
    # Buffers one element long: every arm traps, the o3-tail arm in the
    # launch it shares with o3, and reports the trap under its own name.
    make_inputs = oracle.make_inputs

    def short_inputs(spec, input_seed):
        return {name: value[:1] if isinstance(value, list) else value
                for name, value in make_inputs(spec, input_seed).items()}

    monkeypatch.setattr(oracle, "make_inputs", short_inputs)
    spec = generate_spec(0)
    verdict = run_oracle(spec, input_seeds=INPUT_SEEDS)
    assert _program(verdict.arms["o3-tail"]) == _program(verdict.arms["o3"])
    _assert_launches_unshared(verdict, spec)
    assert [(f.arm, f.kind) for f in verdict.failures] == [
        (arm, "crash") for arm in oracle.ALL_ARMS]


class TestLaunchCount:
    @pytest.mark.parametrize("seed", range(20))
    def test_one_launch_per_distinct_program_and_input_set(self, seed,
                                                          monkeypatch):
        launched = []
        launch = repro.launch
        monkeypatch.setattr(repro, "launch", lambda module, *args, **kw: (
            launched.append(module), launch(module, *args, **kw))[1])
        verdict = run_oracle(generate_spec(seed), input_seeds=INPUT_SEEDS)
        assert verdict.ok
        programs = {_program(report) for report in verdict.arms.values()}
        assert len(launched) == len(programs) * len(INPUT_SEEDS)
        if seed == 0:
            arms = verdict.arms
            assert _program(arms["o3-tail"]) == _program(arms["o3"])
            assert arms["o3"].builder.module in launched
            assert arms["o3-tail"].builder.module not in launched
            assert arms["o3-tail"].outputs == arms["o3"].outputs


_INVERSE = {"eq": "ne", "ne": "eq", "slt": "sge", "sge": "slt",
            "sgt": "sle", "sle": "sgt", "ult": "uge", "uge": "ult",
            "ugt": "ule", "ule": "ugt"}


def test_an_in_place_predicate_rewrite_still_mismatches(monkeypatch):
    # Tail merging changes nothing on seed 0; this hook then inverts the
    # first icmp's predicate in place.  The fingerprint cannot see that,
    # so the check hook skips the state — but the program differs from
    # the o3 arm's, so the arm launches, and the run-and-diff convicts it.
    run = TailMergingPass.run
    stamps = []

    def rewriting(self, function):
        result = run(self, function)
        before = fingerprint(function)
        compare = next(instr for block in function.blocks
                       for instr in block.instructions
                       if isinstance(instr, ICmp))
        compare.predicate = _INVERSE[compare.predicate]
        stamps.append((before, fingerprint(function)))
        return result

    monkeypatch.setattr(TailMergingPass, "run", rewriting)
    verdict = run_oracle(generate_spec(0), input_seeds=INPUT_SEEDS)
    assert stamps and all(before == after for before, after in stamps)
    assert verdict.arms["o3-tail"].verified_passes == 0
    assert [(f.arm, f.kind) for f in verdict.failures] == [
        ("o3-tail", "mismatch")] * len(INPUT_SEEDS)
