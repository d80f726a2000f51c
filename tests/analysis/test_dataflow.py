"""Tests for the sparse SSA dataflow solver."""

import pytest

from repro.analysis import SparseSolver
from repro.ir.instructions import BinaryOp, Phi
from repro.ir.values import Constant

from tests.support import parse


def _read(value, fact_of):
    return value.value if isinstance(value, Constant) else fact_of(value)


def _const_fold_transfer(instr, fact_of):
    """Tiny constant-folding client: int or the "top" sentinel."""
    if isinstance(instr, BinaryOp) and instr.opcode == "add":
        a, b = _read(instr.lhs, fact_of), _read(instr.rhs, fact_of)
        if isinstance(a, int) and isinstance(b, int):
            return a + b
    return "top"


#: where the counter below saturates: a solver that lost its visit cap
#: still terminates, so the cap test fails instead of hanging
_SATURATION = 1000


def _counter_transfer(instr, fact_of):
    """A φ-carried counter: the φ takes the largest incoming count and
    each ``add`` adds, so every trip round the loop raises both by one."""
    if isinstance(instr, Phi):
        return max(_read(value, fact_of) for value, _ in instr.incoming)
    if isinstance(instr, BinaryOp) and instr.opcode == "add":
        return min(_read(instr.lhs, fact_of) + _read(instr.rhs, fact_of),
                   _SATURATION)
    return 0


def _to_infinity(old, new):
    return new if new == old else float("inf")


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

    def test_widen_terminates_a_phi_carried_counter(self):
        f = parse(LOOP)
        solver = SparseSolver(bottom=0, join=max, transfer=_counter_transfer,
                              widen=_to_infinity, widen_after=3)
        solver.solve(f, max_visits=50)
        assert solver.fact_of(self._instr(f, "i")) == float("inf")
        assert solver.fact_of(self._instr(f, "ni")) == float("inf")

    def test_visit_cap_raises_instead_of_returning_a_non_fixpoint(self):
        f = parse(LOOP)
        solver = SparseSolver(bottom=0, join=max, transfer=_counter_transfer)
        with pytest.raises(RuntimeError, match="did not converge"):
            solver.solve(f, max_visits=50)
