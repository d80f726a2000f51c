"""The heap-ordered worklists visit nodes in exactly the order the old
``sort``-then-``pop(0)`` loops did: same facts, same visit counts, same
widening points.  The old loops live on here as the reference.
"""

import pytest

import repro
from repro.analysis import SparseSolver, run_dataflow
from repro.analysis import dataflow
from repro.analysis.dataflow import (
    BACKWARD,
    FORWARD,
    DataflowAnalysis,
    DataflowResult,
)
from repro.analysis.ranges import compute_ranges
from repro.difftest.generator import build_kernel, generate_spec
from repro.ir.instructions import Instruction
from repro.ir.values import Argument
from repro.pipeline import compile_arm

from tests.support import parse


class _Liveness(DataflowAnalysis):
    """A backward client: the instructions and arguments live into each
    block (φ incomings count as uses in the φ's own block)."""

    direction = BACKWARD

    def boundary(self, function):
        return frozenset()

    def initial(self):
        return frozenset()

    def join(self, states):
        out = set()
        for state in states:
            out |= state
        return frozenset(out)

    def transfer(self, block, state):
        live = set(state)
        for instr in reversed(block.instructions):
            live.discard(instr)
            for operand in instr.operands:
                if isinstance(operand, (Instruction, Argument)):
                    live.add(operand)
        return frozenset(live)


def _reference_run_dataflow(function, analysis,
                            max_iterations_before_widen=32):
    """``run_dataflow`` as it was: re-sort the worklist on every pop."""
    forward = analysis.direction == FORWARD
    order = dataflow.reverse_postorder(function)
    if not forward:
        order.reverse()
    position = {block: i for i, block in enumerate(order)}
    pre, post, visits = {}, {}, {}
    worklist = list(order)
    queued = set(worklist)
    total_visits = 0
    while worklist:
        worklist.sort(key=lambda b: position.get(b, len(position)))
        block = worklist.pop(0)
        queued.discard(block)
        total_visits += 1
        inputs = block.preds if forward else block.succs
        incoming = [post[p] for p in inputs if p in post]
        boundary = (block is function.entry) if forward else not block.succs
        if boundary:
            state = analysis.boundary(function)
            if incoming:
                state = analysis.join([state] + incoming)
        elif incoming:
            state = analysis.join(incoming)
        else:
            state = analysis.initial()
        new_post = analysis.transfer(block, state)
        visits[block] = visits.get(block, 0) + 1
        if block in post and visits[block] > max_iterations_before_widen:
            new_post = analysis.widen(post[block], new_post)
        changed = block not in post or post[block] != new_post
        pre[block] = state
        post[block] = new_post
        if changed:
            for target in (block.succs if forward else block.preds):
                if target not in queued:
                    worklist.append(target)
                    queued.add(target)
    result = DataflowResult(iterations=total_visits)
    if forward:
        result.state_in, result.state_out = pre, post
    else:
        result.state_in, result.state_out = post, pre
    return result


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
    """Both solvers, both spellings, on one (read-only) function."""
    ranges = compute_ranges(function)._solver
    with monkeypatch.context() as patch:
        patch.setattr(SparseSolver, "solve", _reference_solve)
        reference = compute_ranges(function)._solver
    assert ranges.facts == reference.facts
    # Per-value visit counts: a different order would widen elsewhere.
    assert ranges._recomputations == reference._recomputations

    liveness = run_dataflow(function, _Liveness())
    expected = _reference_run_dataflow(function, _Liveness())
    assert liveness.state_in == expected.state_in
    assert liveness.state_out == expected.state_out
    assert liveness.iterations == expected.iterations


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


def test_blocks_outside_the_order_keep_insertion_order(monkeypatch):
    # Unreachable predecessors of a backward problem are not in the
    # postorder: they tie at ``len(position)`` and the old stable sort
    # visited them first come, first served.
    function = parse("""
define void @k(i32 %x) {
entry:
  br label %join
dead.b:
  %b = add i32 %x, 2
  br label %join
dead.a:
  %a = add i32 %x, 1
  br label %join
join:
  ret void
}
""")
    _assert_same_order(function, monkeypatch)

    def visit_order(solve):
        visited = []

        class Recording(_Liveness):
            def transfer(self, block, state):
                visited.append(block.name)
                return super().transfer(block, state)

        solve(function, Recording())
        return visited

    order = visit_order(run_dataflow)
    assert order == visit_order(_reference_run_dataflow)
    assert order[:2] == ["join", "entry"]
    assert sorted(order[2:]) == ["dead.a", "dead.b"]
