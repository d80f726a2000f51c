"""Tests for natural-loop detection."""

from repro.analysis import compute_loop_info

from tests.support import build_diamond, parse


SIMPLE_LOOP = """
define void @loop(i32 %n) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %ni, %latch ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  br label %latch
latch:
  %ni = add i32 %i, 1
  br label %h
exit:
  ret void
}
"""

NESTED_LOOPS = """
define void @nested(i32 %n) {
entry:
  br label %oh
oh:
  %i = phi i32 [ 0, %entry ], [ %ni, %olatch ]
  %oc = icmp slt i32 %i, %n
  br i1 %oc, label %ih, label %exit
ih:
  %j = phi i32 [ 0, %oh ], [ %nj, %ilatch ]
  %ic = icmp slt i32 %j, %n
  br i1 %ic, label %ilatch, label %olatch
ilatch:
  %nj = add i32 %j, 1
  br label %ih
olatch:
  %ni = add i32 %i, 1
  br label %oh
exit:
  ret void
}
"""


class TestSimpleLoop:
    def test_detects_one_loop(self):
        f = parse(SIMPLE_LOOP)
        li = compute_loop_info(f)
        assert len(li) == 1
        loop = li.loops[0]
        assert loop.header is f.block_by_name("h")

    def test_loop_blocks(self):
        f = parse(SIMPLE_LOOP)
        loop = compute_loop_info(f).loops[0]
        names = {b.name for b in loop.blocks}
        assert names == {"h", "body", "latch"}

    def test_latch_and_exits(self):
        f = parse(SIMPLE_LOOP)
        loop = compute_loop_info(f).loops[0]
        assert loop.single_latch is f.block_by_name("latch")
        assert loop.exit_blocks == [f.block_by_name("exit")]
        assert loop.exiting_blocks == [f.block_by_name("h")]

    def test_preheader(self):
        f = parse(SIMPLE_LOOP)
        loop = compute_loop_info(f).loops[0]
        assert loop.preheader is f.block_by_name("entry")

    def test_loop_for_lookup(self):
        f = parse(SIMPLE_LOOP)
        li = compute_loop_info(f)
        assert li.loop_for(f.block_by_name("body")) is li.loops[0]
        assert li.loop_for(f.block_by_name("exit")) is None


class TestNestedLoops:
    def test_two_loops_with_nesting(self):
        f = parse(NESTED_LOOPS)
        li = compute_loop_info(f)
        assert len(li) == 2
        outer = next(l for l in li if l.header.name == "oh")
        inner = next(l for l in li if l.header.name == "ih")
        assert inner.parent is outer
        assert inner in outer.children
        assert outer.parent is None

    def test_depths(self):
        f = parse(NESTED_LOOPS)
        li = compute_loop_info(f)
        outer = next(l for l in li if l.header.name == "oh")
        inner = next(l for l in li if l.header.name == "ih")
        assert outer.depth == 1
        assert inner.depth == 2

    def test_innermost_lookup_prefers_inner(self):
        f = parse(NESTED_LOOPS)
        li = compute_loop_info(f)
        inner = next(l for l in li if l.header.name == "ih")
        assert li.loop_for(f.block_by_name("ilatch")) is inner


class TestNoLoops:
    def test_diamond_has_no_loops(self):
        f = build_diamond()
        li = compute_loop_info(f)
        assert len(li) == 0
