"""The sparse solver's heap-ordered worklist visits instructions in
exactly the order the old ``sort``-then-``pop(0)`` loop did: same facts,
same visit counts, same widening points.  The old loop lives on here as
the reference.
"""

import pytest

import repro
from repro.analysis import SparseSolver
from repro.analysis.ranges import compute_ranges
from repro.difftest.generator import build_kernel, generate_spec
from repro.ir.instructions import Instruction
from repro.pipeline import compile_arm


def _reference_solve(self, function):
    """``SparseSolver.solve`` as it was."""
    instrs = [i for block in function.blocks for i in block
              if not i.type.is_void]
    position = {id(i): n for n, i in enumerate(instrs)}
    worklist = list(instrs)
    queued = {id(i) for i in instrs}
    while worklist:
        worklist.sort(key=lambda i: position[id(i)])
        instr = worklist.pop(0)
        queued.discard(id(instr))
        new = self.transfer(instr, self.fact_of)
        old = self.fact_of(instr)
        count = self._recomputations.get(id(instr), 0) + 1
        self._recomputations[id(instr)] = count
        if self.widen is not None and count > self.widen_after:
            new = self.widen(old, new)
        if new == old:
            continue
        self.facts[id(instr)] = (instr, new)
        for user, _ in instr.uses:
            if (isinstance(user, Instruction) and user.parent is not None
                    and not user.type.is_void and id(user) in position
                    and id(user) not in queued):
                worklist.append(user)
                queued.add(id(user))


def _assert_same_order(function, monkeypatch):
    """Both spellings of the solver on one (read-only) function."""
    ranges = compute_ranges(function)._solver
    with monkeypatch.context() as patch:
        patch.setattr(SparseSolver, "solve", _reference_solve)
        reference = compute_ranges(function)._solver
    assert ranges.facts == reference.facts
    # Per-value visit counts: a different order would widen elsewhere.
    assert ranges._recomputations == reference._recomputations


@pytest.mark.parametrize("name", list(repro.ALL_BUILDERS))
@pytest.mark.parametrize("arm", ["noopt", "o3"])
def test_paper_kernels(name, arm, monkeypatch):
    case = repro.ALL_BUILDERS[name]()
    compile_arm(case, arm)
    _assert_same_order(case.function, monkeypatch)


def test_generated_kernels(monkeypatch):
    for seed in range(50):
        for arm in ("noopt", "o3"):
            builder = build_kernel(generate_spec(seed))
            compile_arm(builder, arm)
            _assert_same_order(builder.function, monkeypatch)

