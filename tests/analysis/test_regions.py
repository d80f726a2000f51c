"""Tests for region detection — the CFM pass depends on these shapes."""

from repro.analysis import (
    compute_postdominator_tree,
    is_region,
    region_blocks,
    smallest_region_containing,
)

from tests.support import build_diamond, parse


class TestIsRegion:
    def test_diamond_is_region(self):
        f = build_diamond()
        entry, then, els, merge = f.blocks
        region = is_region(entry, merge)
        assert region is not None
        assert region.blocks == {entry, then, els}
        assert region.exit is merge

    def test_single_arm_is_region(self):
        f = build_diamond()
        entry, then, els, merge = f.blocks
        region = is_region(then, merge)
        assert region is not None
        assert region.blocks == {then}

    def test_arm_pair_is_not_region(self):
        f = build_diamond()
        entry, then, els, merge = f.blocks
        # (then, els) — els is not reachable from then.
        assert is_region(then, els) is None

    def test_side_entry_rejected(self):
        f = parse("""
define void @side(i1 %c, i1 %d) {
entry:
  br i1 %c, label %a, label %b
a:
  br i1 %d, label %x, label %m
b:
  br label %x
x:
  br label %m
m:
  ret void
}
""")
        # (a, m) has a side entry: edge b -> x enters through x, not a.
        assert is_region(f.block_by_name("a"), f.block_by_name("m")) is None

    def test_side_exit_rejected(self):
        f = parse("""
define void @sidex(i1 %c, i1 %d) {
entry:
  br i1 %c, label %a, label %m
a:
  br i1 %d, label %b, label %out
b:
  br label %m
out:
  br label %m
m:
  ret void
}
""")
        # (a, b)? a also exits to %out which is not b.
        assert is_region(f.block_by_name("a"), f.block_by_name("b")) is None

    def test_loop_body_region(self):
        f = parse("""
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
""")
        # The whole loop (h, exit) is NOT a region (back edge latch->h is
        # an entry into h from inside).  Direction: edges into h from the
        # region are fine — is_region only rejects entries from *outside*.
        region = is_region(f.block_by_name("h"), f.block_by_name("exit"))
        assert region is not None
        assert f.block_by_name("latch") in region.blocks


class TestRegionBlocks:
    def test_blocks_exclude_exit(self):
        f = build_diamond()
        entry, then, els, merge = f.blocks
        blocks = region_blocks(entry, merge)
        assert merge not in blocks
        assert blocks == {entry, then, els}


class TestSmallestRegion:
    def test_divergent_branch_region_is_diamond(self):
        f = build_diamond()
        pdt = compute_postdominator_tree(f)
        entry, then, els, merge = f.blocks
        region = smallest_region_containing(entry, pdt)
        assert region is not None
        assert region.entry is entry
        assert region.exit is merge

    def test_nested_if_finds_inner_region_first(self):
        f = parse("""
define void @nested(i1 %c, i1 %d) {
entry:
  br i1 %c, label %inner, label %m
inner:
  br i1 %d, label %t, label %e
t:
  br label %im
e:
  br label %im
im:
  br label %m
m:
  ret void
}
""")
        pdt = compute_postdominator_tree(f)
        region = smallest_region_containing(f.block_by_name("inner"), pdt)
        assert region.exit is f.block_by_name("im")
        outer = smallest_region_containing(f.block_by_name("entry"), pdt)
        assert outer.exit is f.block_by_name("m")

    def test_no_region_for_ret_block(self):
        f = build_diamond()
        pdt = compute_postdominator_tree(f)
        merge = f.blocks[-1]
        assert smallest_region_containing(merge, pdt) is None

