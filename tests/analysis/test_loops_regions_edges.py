"""CFG edge cases for the loop and region analyses.

Shapes the melding pipeline can meet but the mainline tests don't
exercise: irreducible cycles (no natural loop at all), self-loop
headers (the loop body *is* the header), and SESE regions whose exit is
the function's own exit block.
"""

from repro.analysis import (
    SparseSolver,
    compute_dominator_tree,
    compute_loop_info,
    compute_postdominator_tree,
    is_region,
    region_blocks,
    smallest_region_containing,
)
from repro.ir.values import Constant

from tests.support import parse

IRREDUCIBLE = """
define void @irr(i1 %c, i1 %d) {
entry:
  br i1 %c, label %a, label %b
a:
  br i1 %d, label %b, label %x
b:
  br i1 %d, label %a, label %x
x:
  ret void
}
"""

SELF_LOOP = """
define void @selfloop(i32 %n) {
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


#: the same cycle, with a φ in each member carrying the other's value
IRREDUCIBLE_PHIS = """
define void @irr(i1 %c, i1 %d) {
entry:
  br i1 %c, label %a, label %b
a:
  %pa = phi i32 [ 1, %entry ], [ %pb, %b ]
  br i1 %d, label %b, label %x
b:
  %pb = phi i32 [ 2, %entry ], [ %pa, %a ]
  br i1 %d, label %a, label %x
x:
  ret void
}
"""


def _reaching_constants(phi, fact_of):
    """May-analysis: the constants a φ can carry (the solver visits
    non-void instructions only, which here are the two φs)."""
    facts = frozenset()
    for value, _ in phi.incoming:
        facts |= ({value.value} if isinstance(value, Constant)
                  else fact_of(value))
    return facts


class TestIrreducibleCFG:
    """a <-> b is a cycle with two entries: not a natural loop."""

    def test_no_natural_loops_detected(self):
        f = parse(IRREDUCIBLE)
        info = compute_loop_info(f)
        assert len(info) == 0
        assert info.loop_for(f.block_by_name("a")) is None
        assert info.loop_for(f.block_by_name("b")) is None

    def test_dominators_are_still_well_defined(self):
        f = parse(IRREDUCIBLE)
        dt = compute_dominator_tree(f)
        entry = f.block_by_name("entry")
        # Neither cycle member dominates the other: both idom to entry.
        assert dt.idom(f.block_by_name("a")) is entry
        assert dt.idom(f.block_by_name("b")) is entry

    def test_whole_body_is_still_a_region(self):
        f = parse(IRREDUCIBLE)
        # Entries from *inside* the candidate region are fine; only a
        # side entry from outside would disqualify (entry, x).
        region = is_region(f.block_by_name("entry"), f.block_by_name("x"))
        assert region is not None
        assert region.blocks == {f.block_by_name("entry"),
                                 f.block_by_name("a"), f.block_by_name("b")}

    def test_cycle_members_alone_are_not_a_region(self):
        f = parse(IRREDUCIBLE)
        # (a, x) has a side entry: entry -> b -> a bypasses a... and b is
        # inside the candidate via the a->b edge but reachable from
        # outside too.
        assert is_region(f.block_by_name("a"), f.block_by_name("x")) is None

    def test_dataflow_converges_on_the_cycle(self):
        f = parse(IRREDUCIBLE_PHIS)
        solver = SparseSolver(bottom=frozenset(), join=frozenset.union,
                              transfer=_reaching_constants)
        solver.solve(f)
        # Each φ carries the other's value around the cycle, so both
        # constants reach both cycle members.
        for block in ("a", "b"):
            assert solver.fact_of(f.block_by_name(block).phis[0]) == {1, 2}


class TestSelfLoopHeader:
    """A loop whose header is its own (only) latch."""

    def test_loop_is_exactly_the_header(self):
        f = parse(SELF_LOOP)
        info = compute_loop_info(f)
        assert len(info) == 1
        (loop,) = info
        h = f.block_by_name("h")
        assert loop.header is h
        assert loop.blocks == {h}
        assert loop.single_latch is h
        assert loop.exiting_blocks == [h]
        assert loop.exit_blocks == [f.block_by_name("x")]
        assert loop.depth == 1

    def test_preheader_is_the_entry(self):
        f = parse(SELF_LOOP)
        (loop,) = compute_loop_info(f)
        assert loop.preheader is f.block_by_name("entry")

    def test_header_region_spans_the_self_loop(self):
        f = parse(SELF_LOOP)
        region = is_region(f.block_by_name("h"), f.block_by_name("x"))
        assert region is not None
        assert region.blocks == {f.block_by_name("h")}


class TestRegionExitIsFunctionExit:
    """SESE regions whose exit block is the function's terminal block."""

    DIAMOND = """
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
"""

    def test_region_with_ret_block_exit(self):
        f = parse(self.DIAMOND)
        m = f.block_by_name("m")
        assert m.succs == []  # genuinely the function exit
        region = is_region(f.block_by_name("entry"), m)
        assert region is not None
        assert m not in region.blocks
        assert region.exit is m

    def test_region_blocks_exclude_the_function_exit(self):
        f = parse(self.DIAMOND)
        blocks = region_blocks(f.block_by_name("entry"), f.block_by_name("m"))
        assert blocks == {f.block_by_name("entry"), f.block_by_name("t"),
                          f.block_by_name("e")}

    def test_smallest_region_reaches_the_postdominator_root(self):
        f = parse(self.DIAMOND)
        pdt = compute_postdominator_tree(f)
        region = smallest_region_containing(f.block_by_name("entry"), pdt)
        assert region is not None
        assert region.exit is f.block_by_name("m")
