"""Tests for trip-count computation and full loop unrolling."""

import pytest

from repro.analysis import compute_loop_info
from repro.ir import verify_function
from repro.transforms import (
    compute_trip_count,
    optimize,
    unroll_loop,
    unroll_loops,
)
from repro.transforms.unroll import MAX_TRIP_COUNT

from tests.support import parse


def simple_loop(bound: int, step: int = 1) -> str:
    return f"""
define void @k(i32 addrspace(1)* %p) {{
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %ni, %body ]
  %c = icmp slt i32 %i, {bound}
  br i1 %c, label %body, label %exit
body:
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 %i
  store i32 %i, i32 addrspace(1)* %g
  %ni = add i32 %i, {step}
  br label %h
exit:
  ret void
}}
"""


class TestTripCount:
    def test_counted_loop(self):
        f = parse(simple_loop(5))
        loop = compute_loop_info(f).loops[0]
        assert compute_trip_count(loop) == 5

    def test_strided_loop(self):
        f = parse(simple_loop(10, step=3))
        loop = compute_loop_info(f).loops[0]
        assert compute_trip_count(loop) == 4  # 0,3,6,9

    def test_zero_trip_loop(self):
        f = parse(simple_loop(0))
        loop = compute_loop_info(f).loops[0]
        assert compute_trip_count(loop) == 0

    def test_shift_update_loop(self):
        # The bitonic pattern: j = 8; while (j > 0) j >>= 1  -> 4 trips
        f = parse("""
define void @k() {
entry:
  br label %h
h:
  %j = phi i32 [ 8, %entry ], [ %nj, %body ]
  %c = icmp ugt i32 %j, 0
  br i1 %c, label %body, label %exit
body:
  %nj = lshr i32 %j, 1
  br label %h
exit:
  ret void
}
""")
        loop = compute_loop_info(f).loops[0]
        assert compute_trip_count(loop) == 4

    def test_runtime_bound_not_counted(self):
        f = parse("""
define void @k(i32 %n) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %ni, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %ni = add i32 %i, 1
  br label %h
exit:
  ret void
}
""")
        loop = compute_loop_info(f).loops[0]
        assert compute_trip_count(loop) is None

    def test_runtime_init_not_counted(self):
        f = parse("""
define void @k(i32 %start) {
entry:
  br label %h
h:
  %i = phi i32 [ %start, %entry ], [ %ni, %body ]
  %c = icmp slt i32 %i, 5
  br i1 %c, label %body, label %exit
body:
  %ni = add i32 %i, 1
  br label %h
exit:
  ret void
}
""")
        loop = compute_loop_info(f).loops[0]
        assert compute_trip_count(loop) is None

    def test_infinite_loop_hits_bound(self):
        f = parse("""
define void @k() {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i, %body ]
  %c = icmp slt i32 %i, 5
  br i1 %c, label %body, label %exit
body:
  br label %h
exit:
  ret void
}
""")
        loop = compute_loop_info(f).loops[0]
        assert compute_trip_count(loop) is None


class TestUnrollLoop:
    def test_full_unroll_removes_loop(self):
        f = parse(simple_loop(4))
        loop = compute_loop_info(f).loops[0]
        assert unroll_loop(f, loop)
        verify_function(f)
        assert not compute_loop_info(f).loops
        from repro.transforms import fold_constants

        fold_constants(f)
        stores = [i for i in f.instructions() if i.opcode == "store"]
        assert len(stores) == 4
        # Stored values fold to the constant IV values.
        assert sorted(s.value.value for s in stores) == [0, 1, 2, 3]

    def test_zero_trip_unroll(self):
        f = parse(simple_loop(0))
        loop = compute_loop_info(f).loops[0]
        assert unroll_loop(f, loop)
        verify_function(f)
        assert not any(i.opcode == "store" for i in f.instructions())

    def test_respects_trip_limit(self):
        # Exactly at the limit unrolls; one trip over stays a loop.
        for trips, unrolls in ((MAX_TRIP_COUNT, True),
                               (MAX_TRIP_COUNT + 1, False)):
            f = parse(simple_loop(trips))
            loop = compute_loop_info(f).loops[0]
            assert unroll_loop(f, loop) is unrolls

    def test_live_out_value(self):
        f = parse("""
define void @k(i32 addrspace(1)* %p) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %ni, %body ]
  %acc = phi i32 [ 0, %entry ], [ %nacc, %body ]
  %c = icmp slt i32 %i, 3
  br i1 %c, label %body, label %exit
body:
  %nacc = add i32 %acc, %i
  %ni = add i32 %i, 1
  br label %h
exit:
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 0
  store i32 %acc, i32 addrspace(1)* %g
  ret void
}
""")
        loop = compute_loop_info(f).loops[0]
        assert unroll_loop(f, loop)
        verify_function(f)
        from repro.transforms import fold_constants

        fold_constants(f)
        store = [i for i in f.instructions() if i.opcode == "store"][0]
        assert store.value.value == 0 + 1 + 2  # sum of 0..2


class TestUnrollLoops:
    def test_nested_loops_unroll_inside_out(self):
        f = parse("""
define void @k(i32 addrspace(1)* %p) {
entry:
  br label %oh
oh:
  %i = phi i32 [ 0, %entry ], [ %ni, %olatch ]
  %oc = icmp slt i32 %i, 2
  br i1 %oc, label %ih, label %exit
ih:
  %j = phi i32 [ 0, %oh ], [ %nj, %ibody ]
  %ic = icmp slt i32 %j, 2
  br i1 %ic, label %ibody, label %olatch
ibody:
  %idx = add i32 %i, %j
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 %idx
  store i32 %idx, i32 addrspace(1)* %g
  %nj = add i32 %j, 1
  br label %ih
olatch:
  %ni = add i32 %i, 1
  br label %oh
exit:
  ret void
}
""")
        assert unroll_loops(f)
        verify_function(f)
        assert not compute_loop_info(f).loops
        stores = [i for i in f.instructions() if i.opcode == "store"]
        assert len(stores) == 4

    def test_o3_executes_same_as_rolled(self):
        # Differential: simulate before and after unrolling.
        from repro.simt import run_kernel
        from repro.ir import Module

        text = simple_loop(6)
        rolled = parse(text)
        unrolled = parse(text)
        optimize(unrolled)
        verify_function(unrolled)

        m1, m2 = Module("m1"), Module("m2")
        m1.add_function(rolled)
        m2.add_function(unrolled)
        out1, _ = run_kernel(m1, "k", 1, 4, buffers={"p": [0] * 8})
        out2, _ = run_kernel(m2, "k", 1, 4, buffers={"p": [0] * 8})
        assert out1 == out2
