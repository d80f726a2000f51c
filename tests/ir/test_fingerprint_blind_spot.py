"""No pass changes an instruction in place where ``fingerprint`` is blind.

``repro.ir.fingerprint`` stamps the identity of every block, instruction,
operand, successor and φ incoming block.  What it cannot see is an
instruction that stays the same object, in the same place, over the
same operands, but whose opcode, predicate, callee or type was
rewritten.  Every ``Function.memo`` entry rests on no pass doing that,
and so does the differential oracle's check hook, which verifies and
lint-diffs a pass state only when its fingerprint differs from the one
it checked last.  This file pins the assumption: every pass of ``-O3``,
of the three reducers and of the late cleanups, over every Fig. 7/8
kernel and generator seeds 0–49, leaves each instruction that survives
it with the opcode, predicate, callee and type it had.  Where a pass
leaves the fingerprint as it was, the derived state the verifier also
reads — block and instruction parents, predecessor lists and use lists
— must be as it was too.
"""

import pytest

import repro
from repro.difftest import build_kernel, generate_spec
from repro.ir import fingerprint
from repro.pipeline import compile_arm

REDUCER_ARMS = ("o3-cfm", "o3-tail", "o3-bf")


def _facts(function):
    """Each instruction -> what ``fingerprint`` cannot see of it.  The
    keys hold the instructions, so no id is reused while compared."""
    return {instr: (instr.opcode, getattr(instr, "predicate", None),
                    getattr(instr, "callee", None), instr.type)
            for instr in function.instructions()}


def _derived(function):
    values = [*function.args, *function.module.globals.values()]
    rows = [(block, block.parent, list(block._preds))
            for block in function.blocks]
    for instr in function.instructions():
        values.append(instr)
        rows.append((instr, instr.parent))
    rows += [(value, list(value._uses)) for value in values]
    return rows


class InPlaceWatch:
    """Pass hook comparing each state with the one before it."""

    def __init__(self, function) -> None:
        self.facts = _facts(function)
        self.stamp = fingerprint(function)
        self.derived = _derived(function)
        self.passes = self.unchanged = 0

    def __call__(self, pass_name, function, result) -> None:
        self.passes += 1
        facts = _facts(function)
        for instr, now in facts.items():
            before = self.facts.get(instr)
            assert before in (None, now), (pass_name, instr, before, now)
        stamp, derived = fingerprint(function), _derived(function)
        if stamp == self.stamp:
            self.unchanged += 1
            assert derived == self.derived, pass_name
        self.facts, self.stamp, self.derived = facts, stamp, derived


def _watch(kernel, arm):
    watch = InPlaceWatch(kernel.function)
    compile_arm(kernel, arm, after_each=[watch])
    return watch


@pytest.mark.parametrize("name", sorted(repro.ALL_BUILDERS))
def test_paper_kernels(name):
    for arm in REDUCER_ARMS:
        watch = _watch(repro.ALL_BUILDERS[name](), arm)
        assert watch.passes > watch.unchanged > 0


@pytest.mark.parametrize("seed", range(50))
def test_generated_kernels(seed):
    spec = generate_spec(seed)
    for arm in REDUCER_ARMS:
        watch = _watch(build_kernel(spec), arm)
        assert watch.passes > watch.unchanged > 0
