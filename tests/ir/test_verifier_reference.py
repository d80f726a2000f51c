"""The verifier against its reference: same exception, same problems.

``repro.ir.verify_function`` checks a function in one walk;
``tests/ir/reference_verifier.py`` is the phase-by-phase implementation
it replaced.  Every function below goes through both, and they must
raise the same exception type and — for a :class:`VerificationError` —
the identical ``problems`` list, in order: every pass state of every
Fig. 7/8 kernel under both arms, every pass state of generated kernels
under all five oracle arms (clean and with each ``bugs.py`` injection),
the hand-built malformed functions of ``test_verifier.py``, and random
corruptions of real pass states.
"""

import copy
import random

import pytest

import repro
from repro.difftest import BUGS, build_kernel, generate_spec, inject
from repro.ir import Phi, VerificationError, verify_function
from repro.pipeline import ARMS, compile_arm

from tests.ir import reference_verifier
from tests.ir.test_verifier import MALFORMED


def outcome(verify, function):
    """``None``, or what ``verify(function)`` raised."""
    try:
        verify(function)
    except VerificationError as exc:
        return VerificationError, exc.problems
    except Exception as exc:
        return type(exc), None
    return None


def same_outcome(function):
    """Both verifiers' outcome on ``function``, asserted equal."""
    new = outcome(verify_function, function)
    old = outcome(reference_verifier.verify_function, function)
    assert new == old, f"{function.name}: {new} != reference {old}"
    return new


class Differ:
    """Pass hook comparing the verifiers on every pipeline state."""

    def __init__(self, keep_states: bool = False) -> None:
        self.outcomes = []
        self.mismatches = []
        self.states = [] if keep_states else None

    def check(self, label, function) -> None:
        new = outcome(verify_function, function)
        old = outcome(reference_verifier.verify_function, function)
        self.outcomes.append(new)
        if new != old:
            self.mismatches.append((label, new, old))
        if self.states is not None:
            self.states.append(copy.deepcopy(function))

    def __call__(self, pass_name, function, result) -> None:
        self.check(pass_name, function)

    def compile(self, kernel, arm) -> None:
        """Compile ``kernel`` under ``arm``, comparing the input and every
        pass state; whatever the compile raises is the verifier's (or an
        injected bug's) business, not this test's."""
        self.check("input", kernel.function)
        try:
            compile_arm(kernel, arm, after_each=[self])
        except Exception:
            pass


@pytest.mark.parametrize("name", sorted(repro.ALL_BUILDERS))
def test_paper_kernels_every_pass_state(name):
    differ = Differ()
    for arm in ("o3", "o3-cfm"):
        differ.compile(repro.ALL_BUILDERS[name](), arm)
    assert differ.mismatches == []
    assert len(differ.outcomes) > 10
    assert set(differ.outcomes) == {None}


def _generated(seeds):
    differ = Differ()
    for seed in seeds:
        spec = generate_spec(seed)
        for arm in ARMS:
            differ.compile(build_kernel(spec), arm)
    return differ


@pytest.mark.parametrize("seeds", [range(start, start + 10)
                                   for start in range(0, 50, 10)],
                         ids=lambda seeds: f"{seeds.start}-{seeds.stop - 1}")
def test_generated_kernels_all_arms(seeds):
    differ = _generated(seeds)
    assert differ.mismatches == []
    assert set(differ.outcomes) == {None}


@pytest.mark.slow
def test_generated_kernels_all_arms_wide():
    differ = _generated(range(50, 300))
    assert differ.mismatches == []
    assert set(differ.outcomes) == {None}


@pytest.mark.parametrize("bug", sorted(BUGS))
def test_injected_bugs(bug):
    differ = Differ()
    with inject(bug):
        differ.compile(repro.ALL_BUILDERS["SB1"](), "o3-cfm")
        for seed in range(30):
            spec = generate_spec(seed)
            for arm in ARMS:
                differ.compile(build_kernel(spec), arm)
    assert differ.mismatches == []
    if bug == "drop-undef-phi":
        # The one injection that breaks the IR: both verifiers see it.
        assert any(o is not None for o in differ.outcomes)


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_functions(name):
    build, expected = MALFORMED[name]
    assert same_outcome(build()) == (VerificationError, expected)


# ---- random corruptions of real pass states ------------------------------

def _swap_instructions(rng, function):
    blocks = [b for b in function._blocks if len(b._instructions) > 1]
    if blocks:
        instrs = rng.choice(blocks)._instructions
        i, j = rng.sample(range(len(instrs)), 2)
        instrs[i], instrs[j] = instrs[j], instrs[i]


def _move_to_other_block(rng, function):
    if len(function._blocks) > 1:
        source, target = rng.sample(function._blocks, 2)
        if source._instructions:
            instr = rng.choice(source._instructions)
            source._instructions.remove(instr)
            target._instructions.insert(
                rng.randrange(len(target._instructions) + 1), instr)


def _rewire_operand(rng, function):
    users = [i for b in function._blocks for i in b._instructions
             if i._operands]
    values = [i for b in function._blocks for i in b._instructions
              if not i.type.is_void]
    if users and values:
        user = rng.choice(users)
        index = rng.randrange(len(user._operands))
        user._operands[index] = rng.choice(values + [None])


def _drop_phi_incoming(rng, function):
    phis = [i for b in function._blocks for i in b._instructions
            if isinstance(i, Phi) and i._incoming_blocks]
    if phis:
        phi = rng.choice(phis)
        phi.remove_incoming(rng.choice(phi._incoming_blocks))


def _duplicate_phi_incoming(rng, function):
    phis = [i for b in function._blocks for i in b._instructions
            if isinstance(i, Phi) and i._incoming_blocks]
    if phis:
        phi = rng.choice(phis)
        k = rng.randrange(len(phi._incoming_blocks))
        phi._operands.append(phi._operands[k])
        phi._incoming_blocks.append(phi._incoming_blocks[k])


def _edit_preds(rng, function):
    block = rng.choice(function._blocks)
    if block._preds and rng.random() < 0.5:
        block._preds.remove(rng.choice(block._preds))
    else:
        block._preds.append(rng.choice(function._blocks))


def _retarget_branch(rng, function):
    branches = [b._instructions[-1] for b in function._blocks
                if b._instructions and hasattr(b._instructions[-1],
                                               "_successors")]
    if branches:
        branch = rng.choice(branches)
        branch.set_successor(rng.randrange(len(branch._successors)),
                             rng.choice(function._blocks))


def _drop_instruction(rng, function):
    block = rng.choice(function._blocks)
    if block._instructions:
        block._instructions.pop(rng.randrange(len(block._instructions)))


def _detach_definition(rng, function):
    values = [i for b in function._blocks for i in b._instructions
              if i._uses]
    if values:
        rng.choice(values).parent = None


CORRUPTIONS = [_swap_instructions, _move_to_other_block, _rewire_operand,
               _drop_phi_incoming, _duplicate_phi_incoming, _edit_preds,
               _retarget_branch, _drop_instruction, _detach_definition]


@pytest.mark.parametrize("kernel", ["SB2", "LUD", "BIT"])
def test_random_corruptions(kernel):
    differ = Differ(keep_states=True)
    differ.compile(repro.ALL_BUILDERS[kernel](), "o3-cfm")
    rng = random.Random(kernel)
    rejected = 0
    for state in differ.states:
        for _ in range(6):
            function = copy.deepcopy(state)
            for corrupt in rng.sample(CORRUPTIONS, rng.randint(1, 2)):
                try:
                    corrupt(rng, function)
                except ValueError:
                    pass  # set_successor on preds an earlier edit broke
            rejected += same_outcome(function) is not None
    assert rejected > len(differ.states)
