"""Tests for loop-invariant code motion."""

import pytest

from repro.ir import Module, verify_function
from repro.simt import run_kernel
from repro.transforms import hoist_loop_invariants

from tests.support import parse

LOOP = """
define void @k(i32 addrspace(1)* %p, i32 %n, i32 %scale) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %ni, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %inv = mul i32 %scale, 3
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  %v = load i32, i32 addrspace(1)* %g
  %s = add i32 %v, %inv
  store i32 %s, i32 addrspace(1)* %g
  %ni = add i32 %i, 1
  br label %h
exit:
  ret void
}
"""


class TestHoisting:
    def test_invariant_mul_and_gep_hoisted(self):
        f = parse(LOOP)
        assert hoist_loop_invariants(f)
        verify_function(f)
        entry = f.entry
        opcodes = [i.opcode for i in entry]
        assert "mul" in opcodes
        assert "getelementptr" in opcodes
        body = f.block_by_name("body")
        assert "mul" not in [i.opcode for i in body]

    def test_loads_stay_in_loop(self):
        f = parse(LOOP)
        hoist_loop_invariants(f)
        body = f.block_by_name("body")
        assert any(i.opcode == "load" for i in body)

    def test_variant_computation_stays(self):
        f = parse(LOOP)
        hoist_loop_invariants(f)
        body = f.block_by_name("body")
        # %s depends on the loaded value; %ni depends on the φ.
        assert sum(1 for i in body if i.opcode == "add") == 2

    def test_chained_invariants_hoist_together(self):
        f = parse("""
define void @k(i32 %x, i32 %n, i32 addrspace(1)* %p) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %ni, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %a = add i32 %x, 1
  %b = mul i32 %a, 5
  %d = xor i32 %b, 3
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 %i
  store i32 %d, i32 addrspace(1)* %g
  %ni = add i32 %i, 1
  br label %h
exit:
  ret void
}
""")
        assert hoist_loop_invariants(f)
        verify_function(f)
        body = f.block_by_name("body")
        body_ops = [i.opcode for i in body]
        assert "mul" not in body_ops and "xor" not in body_ops
        # The gep uses the induction variable: must stay.
        assert "getelementptr" in body_ops

    def test_no_preheader_no_hoist(self):
        f = parse("""
define void @k(i1 %c, i32 %x, i32 %n) {
entry:
  br i1 %c, label %pre1, label %pre2
pre1:
  br label %h
pre2:
  br label %h
h:
  %i = phi i32 [ 0, %pre1 ], [ 0, %pre2 ], [ %ni, %h ]
  %inv = mul i32 %x, 3
  %ni = add i32 %i, %inv
  %cc = icmp slt i32 %ni, %n
  br i1 %cc, label %h, label %exit
exit:
  ret void
}
""")
        # Two out-of-loop predecessors: no unique preheader to hoist into.
        assert not hoist_loop_invariants(f)

    def test_division_never_hoisted(self):
        f = parse("""
define void @k(i32 %x, i32 %y, i32 %n, i32 addrspace(1)* %p) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %ni, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %q = sdiv i32 %x, %y
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 %i
  store i32 %q, i32 addrspace(1)* %g
  %ni = add i32 %i, 1
  br label %h
exit:
  ret void
}
""")
        hoist_loop_invariants(f)
        # The sdiv may trap (y == 0) and the loop may run zero times:
        # hoisting it would introduce the trap.
        body = f.block_by_name("body")
        assert any(i.opcode == "sdiv" for i in body)

    def test_fptosi_guarded_by_the_loop_condition_stays(self):
        f = parse("""
define void @k(float %x, i32 %n, i32 addrspace(1)* %p) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %ni, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %q = fptosi float %x to i32
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 %i
  store i32 %q, i32 addrspace(1)* %g
  %ni = add i32 %i, 1
  br label %h
exit:
  ret void
}
""")
        hoist_loop_invariants(f)
        verify_function(f)
        # fptosi traps on a non-finite value and the loop may run zero
        # times: hoisted, `k(inf, 0, p)` would trap where it must not.
        assert any(i.opcode == "fptosi" for i in f.block_by_name("body"))
        out, _ = run_kernel(f.module, "k", 1, 1, buffers={"p": [5]},
                            scalars={"x": float("inf"), "n": 0})
        assert out["p"] == [5]

    def test_semantics_preserved(self):
        base = parse(LOOP)
        hoisted = parse(LOOP)
        hoist_loop_invariants(hoisted)
        verify_function(hoisted)
        args = dict(scalars={"n": 5, "scale": 7})
        out1, m1 = run_kernel(base.module, "k", 1, 4,
                              buffers={"p": [1, 2, 3, 4]}, **args)
        out2, m2 = run_kernel(hoisted.module, "k", 1, 4,
                              buffers={"p": [1, 2, 3, 4]}, **args)
        assert out1 == out2
        assert m2.cycles < m1.cycles  # per-iteration work went down

    def test_nested_loop_hoists_through_levels(self):
        f = parse("""
define void @k(i32 %x, i32 %n, i32 addrspace(1)* %p) {
entry:
  br label %oh
oh:
  %i = phi i32 [ 0, %entry ], [ %ni, %olatch ]
  %oc = icmp slt i32 %i, %n
  br i1 %oc, label %ipre, label %exit
ipre:
  br label %ih
ih:
  %j = phi i32 [ 0, %ipre ], [ %nj, %ibody ]
  %ic = icmp slt i32 %j, %n
  br i1 %ic, label %ibody, label %olatch
ibody:
  %inv = mul i32 %x, 9
  %idx = add i32 %i, %j
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 %idx
  store i32 %inv, i32 addrspace(1)* %g
  %nj = add i32 %j, 1
  br label %ih
olatch:
  %ni = add i32 %i, 1
  br label %oh
exit:
  ret void
}
""")
        assert hoist_loop_invariants(f)
        verify_function(f)
        # %inv is invariant w.r.t. both loops; after innermost-first LICM
        # it must reach a block outside the outer loop.
        inv = [i for i in f.instructions() if i.opcode == "mul"][0]
        from repro.analysis import compute_loop_info

        li = compute_loop_info(f)
        assert li.loop_for(inv.parent) is None
