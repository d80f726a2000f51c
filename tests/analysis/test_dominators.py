"""Dominator/post-dominator tests, including a networkx cross-check on
randomly generated CFGs (hypothesis)."""

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    compute_dominator_tree,
    compute_postdominator_tree,
    dominance_frontier,
    immediate_postdominator,
    postdominance_frontier,
)
from repro.ir import Branch, Function, IRBuilder, Ret, const_bool

from tests.support import build_diamond, parse, straightline_function


class TestDominatorsBasic:
    def test_straightline_chain(self):
        f = straightline_function(4)
        dt = compute_dominator_tree(f)
        blocks = f.blocks
        for i in range(1, 4):
            assert dt.idom(blocks[i]) is blocks[i - 1]
        assert dt.idom(blocks[0]) is None
        assert dt.root is f.entry

    def test_diamond(self):
        f = build_diamond()
        dt = compute_dominator_tree(f)
        entry, then, els, merge = f.blocks
        assert dt.idom(then) is entry
        assert dt.idom(els) is entry
        assert dt.idom(merge) is entry
        assert dt.dominates(entry, merge)
        assert not dt.dominates(then, merge)

    def test_dominates_is_reflexive(self):
        f = build_diamond()
        dt = compute_dominator_tree(f)
        for block in f.blocks:
            assert dt.dominates(block, block)
            assert not dt.strictly_dominates(block, block)

    def test_nearest_common_dominator(self):
        f = build_diamond()
        dt = compute_dominator_tree(f)
        entry, then, els, merge = f.blocks
        assert dt.nearest_common_dominator(then, els) is entry
        assert dt.nearest_common_dominator(then, merge) is entry
        assert dt.nearest_common_dominator(then, then) is then


    def test_loop_header_dominates_body(self):
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
        dt = compute_dominator_tree(f)
        h = f.block_by_name("h")
        for name in ("body", "latch", "exit"):
            assert dt.dominates(h, f.block_by_name(name))


class TestPostDominators:
    def test_diamond_ipdom(self):
        f = build_diamond()
        pdt = compute_postdominator_tree(f)
        entry, then, els, merge = f.blocks
        assert immediate_postdominator(pdt, entry) is merge
        assert immediate_postdominator(pdt, then) is merge
        assert pdt.dominates(merge, entry)  # merge post-dominates entry

    def test_branch_arms_do_not_postdominate_each_other(self):
        f = build_diamond()
        pdt = compute_postdominator_tree(f)
        _, then, els, _ = f.blocks
        assert not pdt.dominates(then, els)
        assert not pdt.dominates(els, then)

    def test_multiple_returns_virtual_root(self):
        f = parse("""
define void @two_rets(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  ret void
b:
  ret void
}
""")
        pdt = compute_postdominator_tree(f)
        entry = f.block_by_name("entry")
        # Neither ret block post-dominates entry; the IPDOM is virtual.
        assert immediate_postdominator(pdt, entry) is None


class TestFrontiers:
    def test_dominance_frontier_of_diamond_arms(self):
        f = build_diamond()
        dt = compute_dominator_tree(f)
        df = dominance_frontier(f, dt)
        entry, then, els, merge = f.blocks
        assert df[then] == {merge}
        assert df[els] == {merge}
        assert df[merge] == set()

    def test_postdominance_frontier_marks_control_dependence(self):
        f = build_diamond()
        pdt = compute_postdominator_tree(f)
        pdf = postdominance_frontier(f, pdt)
        entry, then, els, merge = f.blocks
        # then/else execute depending on the branch in entry.
        assert entry in pdf[then]
        assert entry in pdf[els]
        assert pdf[merge] == set()


def _random_cfg(seed_edges, n_blocks):
    """Build a Function with n_blocks blocks and pseudo-random edges; every
    block gets either a conditional or unconditional branch, last block(s)
    may become rets.  Returns (function, nx.DiGraph of reachable part)."""
    f = Function("rand", [], [])
    blocks = [f.add_block(f"n{i}") for i in range(n_blocks)]
    builder = IRBuilder()
    for i, block in enumerate(blocks):
        builder.position_at_end(block)
        choices = seed_edges[i]
        if not choices:
            builder.ret()
        elif len(choices) == 1:
            builder.br(blocks[choices[0]])
        else:
            builder.cond_br(const_bool(True), blocks[choices[0]], blocks[choices[1]])
    g = nx.DiGraph()
    g.add_nodes_from(range(n_blocks))
    for i, block in enumerate(blocks):
        for succ in block.succs:
            g.add_edge(i, int(succ.name[1:]))
    return f, g


@st.composite
def cfg_shapes(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    edges = []
    for i in range(n):
        kind = draw(st.integers(min_value=0, max_value=3))
        if kind == 0:
            edges.append([])  # ret
        elif kind == 1:
            edges.append([draw(st.integers(min_value=0, max_value=n - 1))])
        else:
            edges.append([
                draw(st.integers(min_value=0, max_value=n - 1)),
                draw(st.integers(min_value=0, max_value=n - 1)),
            ])
    # Ensure at least one ret so postdom trees exist.
    edges[n - 1] = []
    return n, edges


@given(cfg_shapes())
@settings(max_examples=80, deadline=None)
def test_idoms_match_networkx(shape):
    n, edges = shape
    f, g = _random_cfg(edges, n)
    dt = compute_dominator_tree(f)
    reachable = nx.descendants(g, 0) | {0}
    expected = nx.immediate_dominators(g.subgraph(reachable), 0)
    for i in reachable:
        block = f.blocks[i]
        idom = dt.idom(block)
        if i == 0:
            assert idom is None
        else:
            assert idom is not None
            assert int(idom.name[1:]) == expected[i]


@given(cfg_shapes())
@settings(max_examples=80, deadline=None)
def test_dominates_agrees_with_path_enumeration(shape):
    """a dom b  <=>  removing a disconnects b from the entry."""
    n, edges = shape
    f, g = _random_cfg(edges, n)
    dt = compute_dominator_tree(f)
    reachable = nx.descendants(g, 0) | {0}
    for b in sorted(reachable):
        for a in sorted(reachable):
            dominated = dt.dominates(f.blocks[a], f.blocks[b])
            if a == b:
                assert dominated
                continue
            pruned = g.subgraph(reachable - {a})
            still_reachable = b in pruned and 0 in pruned and nx.has_path(pruned, 0, b)
            assert dominated == (not still_reachable)
