"""Tests for the generic dataflow framework (block-level + sparse SSA)."""

import pytest

from repro.analysis import (
    FORWARD,
    DataflowAnalysis,
    SparseSolver,
    run_dataflow,
)
from repro.ir.instructions import BinaryOp
from repro.ir.values import Constant

from tests.support import parse


# ---------------------------------------------------------------------------
# block-level engine


class _ReachedFrom(DataflowAnalysis):
    """Forward may-analysis: the set of block names on some path here."""

    direction = FORWARD

    def boundary(self, function):
        return frozenset()

    def initial(self):
        return frozenset()

    def join(self, states):
        out = frozenset()
        for state in states:
            out |= state
        return out

    def transfer(self, block, state):
        return state | {block.name}


class _Counter(DataflowAnalysis):
    """Deliberately divergent on cycles: the per-block count grows by one
    every visit, so only widening (or the visit cap) can stop it."""

    direction = FORWARD

    def __init__(self, with_widening):
        self.with_widening = with_widening

    def boundary(self, function):
        return 0.0

    def initial(self):
        return 0.0

    def join(self, states):
        return max(states) if states else 0.0

    def transfer(self, block, state):
        return state + 1.0

    def widen(self, old, new):
        if self.with_widening:
            return float("inf")
        return new


LOOP = """
define void @loop(i32 %n) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %ni, %h ]
  %ni = add i32 %i, 1
  %c = icmp slt i32 %ni, %n
  br i1 %c, label %h, label %x
x:
  ret void
}
"""


class TestRunDataflow:
    def test_forward_reachability_through_a_diamond(self):
        f = parse("""
define void @k(i1 %c) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %m
e:
  br label %m
m:
  ret void
}
""")
        result = run_dataflow(f, _ReachedFrom())
        merge = f.block_by_name("m")
        # Facts from both arms meet at the merge.
        assert result.state_in[merge] == {"entry", "t", "e"}
        assert result.state_out[merge] == {"entry", "t", "e", "m"}

    def test_acyclic_cfg_converges_in_one_sweep(self):
        f = parse("""
define void @k(i1 %c) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %m
e:
  br label %m
m:
  ret void
}
""")
        result = run_dataflow(f, _ReachedFrom())
        # Reverse postorder seeding: every block transferred exactly once.
        assert result.iterations == len(f.blocks)

    def test_loop_reaches_fixpoint(self):
        f = parse(LOOP)
        result = run_dataflow(f, _ReachedFrom())
        header = f.block_by_name("h")
        # The back edge folds the header's own name into its input.
        assert result.state_in[header] == {"entry", "h"}

    def test_widening_terminates_an_infinite_lattice(self):
        f = parse(LOOP)
        result = run_dataflow(f, _Counter(with_widening=True),
                              max_iterations_before_widen=3)
        assert result.state_out[f.block_by_name("h")] == float("inf")

    def test_visit_cap_raises_instead_of_returning_a_non_fixpoint(self):
        f = parse(LOOP)
        with pytest.raises(RuntimeError, match="did not converge"):
            run_dataflow(f, _Counter(with_widening=False),
                         max_iterations_before_widen=10_000, max_visits=50)


# ---------------------------------------------------------------------------
# sparse SSA engine


def _const_fold_transfer(instr, fact_of):
    """Tiny constant-folding client: int or the "top" sentinel."""

    def read(value):
        if isinstance(value, Constant):
            return value.value
        return fact_of(value)

    if isinstance(instr, BinaryOp) and instr.opcode == "add":
        a, b = read(instr.lhs), read(instr.rhs)
        if isinstance(a, int) and isinstance(b, int):
            return a + b
    return "top"


class TestSparseSolver:
    FUNC = """
define void @k(i32 %n) {
entry:
  %a = add i32 2, 3
  %b = add i32 %a, 4
  %c = add i32 %b, %n
  ret void
}
"""

    def _solver(self):
        return SparseSolver(bottom=None, join=lambda a, b: a,
                            transfer=_const_fold_transfer)

    def _instr(self, f, name):
        return next(i for block in f.blocks for i in block
                    if getattr(i, "name", None) == name)

    def test_facts_propagate_along_def_use_chains(self):
        f = parse(self.FUNC)
        solver = self._solver()
        solver.solve(f)
        assert solver.fact_of(self._instr(f, "a")) == 5
        assert solver.fact_of(self._instr(f, "b")) == 9
        # %n is an unseeded argument: the chain degrades to top.
        assert solver.fact_of(self._instr(f, "c")) == "top"

    def test_seeded_leaf_facts_flow_downstream(self):
        f = parse(self.FUNC)
        solver = self._solver()
        solver.seed(f.args[0], 100)
        solver.solve(f)
        assert solver.fact_of(self._instr(f, "c")) == 109

    def test_unknown_values_read_as_bottom(self):
        f = parse(self.FUNC)
        solver = self._solver()
        # Before solve, nothing has a fact.
        assert solver.fact_of(self._instr(f, "a")) is None
