"""Tests for the FP_B / FP_S / FP_I profitability metrics (§IV-C)."""

from repro.analysis.latency import DEFAULT_LATENCY_MODEL, LatencyModel
from repro.core import (
    block_profitability,
    estimated_selects,
    instruction_profitability,
    instructions_match,
    meldable_instructions,
    subgraph_profitability,
)

from tests.support import parse


def blocks_of(text):
    f = parse(text)
    return f


class TestBlockProfitability:
    def test_identical_profile_scores_half(self):
        f = parse("""
define void @k(i32 %x, i32 %y) {
entry:
  br label %a
a:
  %a1 = add i32 %x, 1
  %a2 = mul i32 %a1, 2
  br label %b
b:
  %b1 = add i32 %y, 3
  %b2 = mul i32 %b1, 4
  br label %c
c:
  ret void
}
""")
        a, b = f.block_by_name("a"), f.block_by_name("b")
        # "two basic blocks with identical opcode frequency profile will
        # have a profitability value 0.5"
        assert block_profitability(a, b) == 0.5

    def test_disjoint_opcodes_score_zero(self):
        f = parse("""
define void @k(i32 %x, i32 %y) {
entry:
  br label %a
a:
  %a1 = add i32 %x, 1
  br label %b
b:
  %b1 = xor i32 %y, 3
  br label %c
c:
  ret void
}
""")
        a, b = f.block_by_name("a"), f.block_by_name("b")
        assert block_profitability(a, b) == 0.0

    def test_empty_blocks_score_zero(self):
        # Critical for Algorithm-1 termination: branch-only blocks must
        # never look profitable (the B_T'/B_F' fixpoint hazard).
        f = parse("""
define void @k() {
entry:
  br label %a
a:
  br label %b
b:
  br label %c
c:
  ret void
}
""")
        a, b = f.block_by_name("a"), f.block_by_name("b")
        assert block_profitability(a, b) == 0.0

    def test_memory_heavy_blocks_weighted_by_latency(self):
        f = parse("""
@sh = shared [64 x i32]

define void @k(i32 %x, i32 %y) {
entry:
  br label %a
a:
  %p1 = getelementptr i32, i32 addrspace(3)* @sh, i32 %x
  %v1 = load i32, i32 addrspace(3)* %p1
  %a1 = add i32 %v1, 1
  br label %b
b:
  %p2 = getelementptr i32, i32 addrspace(3)* @sh, i32 %y
  %v2 = load i32, i32 addrspace(3)* %p2
  %b1 = xor i32 %v2, 1
  br label %c
c:
  ret void
}
""")
        a, b = f.block_by_name("a"), f.block_by_name("b")
        # gep+load align, add/xor do not: profitability strictly between
        # 0 and 0.5, and dominated by the load latency.
        score = block_profitability(a, b)
        assert 0.3 < score < 0.5


class TestInstructionMatch:
    def test_same_opcode_matches(self):
        f = parse("""
define void @k(i32 %x) {
entry:
  %a = add i32 %x, 1
  %b = add i32 %x, 2
  %m = mul i32 %x, 3
  ret void
}
""")
        a, b, m = f.entry.instructions[:3]
        assert instructions_match(a, b)
        assert not instructions_match(a, m)
        assert not instructions_match(a, a)  # self-match is meaningless

    def test_estimated_selects_counts_differing_operands(self):
        f = parse("""
define void @k(i32 %x, i32 %y) {
entry:
  %a = add i32 %x, 1
  %b = add i32 %x, 2
  %c = add i32 %y, 1
  %d = add i32 %x, 1
  ret void
}
""")
        a, b, c, d = f.entry.instructions[:4]
        assert estimated_selects(a, b) == 1  # constants differ
        assert estimated_selects(a, c) == 1  # lhs differs
        assert estimated_selects(b, c) == 2
        assert estimated_selects(a, d) == 0  # equal constants, same value

    def test_estimated_selects_keeps_signed_zeros_apart(self):
        f = parse("""
define void @k(float %x) {
entry:
  %a = fsub float 0.0, %x
  %b = fsub float -0.0, %x
  %c = fsub float 0.0, %x
  ret void
}
""")
        a, b, c = f.entry.instructions[:3]
        assert estimated_selects(a, b) == 1  # melding needs a select
        assert estimated_selects(a, c) == 0


class TestInstructionProfitability:
    def test_unmatched_scores_zero(self):
        f = parse("""
define void @k(i32 %x) {
entry:
  %a = add i32 %x, 1
  %m = mul i32 %x, 3
  ret void
}
""")
        a, m = f.entry.instructions[:2]
        assert instruction_profitability(a, m) == 0.0

    def test_match_scores_latency_minus_selects(self):
        f = parse("""
define void @k(i32 %x, i32 %y) {
entry:
  %a = add i32 %x, 1
  %b = add i32 %y, 2
  ret void
}
""")
        a, b = f.entry.instructions[:2]
        lat = DEFAULT_LATENCY_MODEL
        expected = lat.latency(a) - 2 * lat.select_latency
        assert instruction_profitability(a, b) == expected

    def test_meldable_loads_score_high(self):
        f = parse("""
@sh = shared [64 x i32]

define void @k(i32 %x, i32 %y) {
entry:
  %p1 = getelementptr i32, i32 addrspace(3)* @sh, i32 %x
  %p2 = getelementptr i32, i32 addrspace(3)* @sh, i32 %y
  %v1 = load i32, i32 addrspace(3)* %p1
  %v2 = load i32, i32 addrspace(3)* %p2
  ret void
}
""")
        v1, v2 = f.entry.instructions[2:4]
        # §VI-D: melding LDS ops is the big win — one select vs 32 cycles.
        assert instruction_profitability(v1, v2) > \
            DEFAULT_LATENCY_MODEL.select_latency


class TestSubgraphProfitability:
    def test_weighted_average(self):
        f = parse("""
define void @k(i32 %x, i32 %y) {
entry:
  br label %a
a:
  %a1 = add i32 %x, 1
  br label %b
b:
  %b1 = add i32 %y, 3
  br label %c
c:
  %c1 = and i32 %x, 1
  br label %d
d:
  %d1 = xor i32 %y, 3
  br label %e
e:
  ret void
}
""")
        a, b = f.block_by_name("a"), f.block_by_name("b")
        c, d = f.block_by_name("c"), f.block_by_name("d")
        # (a,b) identical -> 0.5; (c,d) disjoint -> 0.0; equal latencies
        # -> mean 0.25.
        assert subgraph_profitability([(a, b), (c, d)]) == 0.25

    def test_empty_mapping(self):
        assert subgraph_profitability([]) == 0.0
