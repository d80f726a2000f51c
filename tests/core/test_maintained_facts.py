"""The CFG facts CFM keeps through its edits against a fresh build.

``CFMPass`` builds its post-dominator tree, loop forest, join sets and
dominator tree once per run and then updates them after every meld,
collector, unpredication split, forwarding-block removal and orphan
deletion.  Here the pass runs with its iteration and its §IV-F cleanup
wrapped, and at every step the maintained facts must equal
:func:`~repro.analysis.analyze_function` of the IR as it stands:

* before every Algorithm-1 iteration: idom and ipdom (with depth and
  children) of every block, loop headers with their blocks and exiting
  blocks, every cached join set, divergent values and divergent branch
  blocks;
* after every iteration, and after every cleanup call: the CFG facts;
* the post-meld sweep deletes exactly the blocks the meld disconnected;
* call for call, the IR after every cleanup call must equal that of a
  second run which rebuilds every analysis before each iteration, as
  the pass once did, and cleans up with the whole-function loop kept in
  :mod:`tests.transforms.reference_fixpoints`.

The corpus is every Fig. 7/8 kernel and generator seeds 0–199; the
hand-written CFGs cover edits the corpus may show rarely.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Tuple

import pytest

import repro.core.pass_ as pass_module
from repro import CFMPass, CFMStats
from repro.analysis import (
    FunctionAnalyses,
    analyze_function,
    reachable_blocks,
)
from repro.analysis.divergence import CFGFacts, _join_blocks
from repro.ir import BasicBlock, print_function, verify_function
from repro.transforms import optimize

from tests.support import parse
from tests.transforms import reference_fixpoints as reference
from tests.transforms.test_fixpoint_equivalence import _CASES, TIER1_SEEDS


def _tree(tree) -> Dict:
    """Every node's idom, depth and children, the virtual exit by name."""
    def key(node):
        return node if isinstance(node, BasicBlock) else "<virtual exit>"
    return {key(node): (key(tree.idom(node)) if tree.idom(node) else None,
                        tree.depth(node),
                        frozenset(key(c) for c in tree.children(node)))
            for node in tree.blocks()}


def _loops(loops) -> Dict:
    return {loop.header: (frozenset(loop.blocks),
                          frozenset(loop.exiting_blocks),
                          loop.parent.header if loop.parent else None)
            for loop in loops}


def _same_facts(function, facts: CFGFacts) -> FunctionAnalyses:
    """Assert ``facts`` describe ``function``'s CFG; returns a fresh
    analysis of it."""
    analyses = analyze_function(function)
    fresh = analyses.facts
    assert _tree(facts.postdominators) == _tree(fresh.postdominators)
    # Only what the pass has built is compared: reading a lazily built
    # fact here would change when the pass first builds it.
    if facts._dominators is not None:
        assert _tree(facts._dominators) == _tree(fresh.dominators)
    if facts._loops is not None:
        assert _loops(facts._loops) == _loops(fresh.loops)
    for branch, joins in facts._joins.items():
        assert branch.parent is function, "join set of a deleted block"
        assert joins == _join_blocks(branch, fresh.postdominators), branch.name
    return analyses


class Oracle:
    """Runs the pass twice on fresh copies of one function.

    The shipped run has its iteration, cleanup and orphan sweep wrapped
    with the checks above.  The reference run rebuilds every analysis
    before each iteration and cleans up with the whole-function loop.
    The function as printed after every cleanup call, and at the end
    with the decision log, must be the same in both."""

    def __init__(self, monkeypatch) -> None:
        self.monkeypatch = monkeypatch

    def run(self, build: Callable) -> Tuple[object, CFMStats]:
        function, stats, shipped = self._compile(build, self._checked())
        _, _, expected = self._compile(build, self._reference())
        for step, (got, want) in enumerate(zip(shipped, expected)):
            assert got == want, f"IR after cleanup call #{step} differs"
        assert len(shipped) == len(expected)
        return function, stats

    def _compile(self, build: Callable, patches: Dict[str, Callable]):
        snapshots: List[str] = []
        with self.monkeypatch.context() as patch:
            for name, wrap in patches.items():
                patch.setattr(pass_module, name, wrap(getattr(pass_module, name)))
            cleanup = pass_module._post_optimize

            def recording(function, facts):
                cleanup(function, facts)
                snapshots.append(print_function(function))
            patch.setattr(pass_module, "_post_optimize", recording)
            function = build()
            stats = CFMPass().run(function).stats
        verify_function(function)
        snapshots.append(print_function(function) + "\n" + json.dumps(
            [d.as_dict() for d in stats.decisions], sort_keys=True))
        return function, stats, snapshots

    @staticmethod
    def _checked() -> Dict[str, Callable]:
        def meld_one(real):
            def run(function, config, stats, analyses):
                fresh = _same_facts(function, analyses.facts)
                assert (analyses.divergence.divergent_values
                        == fresh.divergence.divergent_values)
                assert (analyses.divergence.divergent_branch_blocks
                        == fresh.divergence.divergent_branch_blocks)
                melded = real(function, config, stats, analyses)
                _same_facts(function, analyses.facts)
                return melded
            return run

        def post_optimize(real):
            def run(function, facts):
                real(function, facts)
                _same_facts(function, facts)
            return run

        def delete_blocks(real):
            def run(function, dead):
                reachable = reachable_blocks(function)
                assert set(dead) == {b for b in function.blocks
                                     if b not in reachable}
                real(function, dead)
            return run

        return {"_meld_one": meld_one, "_post_optimize": post_optimize,
                "delete_blocks": delete_blocks}

    @staticmethod
    def _reference() -> Dict[str, Callable]:
        def meld_one(real):
            def run(function, config, stats, analyses):
                return real(function, config, stats,
                            analyze_function(function))
            return run

        def post_optimize(real):
            return lambda function, facts: reference.post_optimize(function)

        return {"_meld_one": meld_one, "_post_optimize": post_optimize}


@pytest.fixture
def oracle(monkeypatch) -> Oracle:
    return Oracle(monkeypatch)


def _optimized(case_id: str) -> Callable:
    def build():
        function = _CASES[case_id]().function
        optimize(function)
        return function
    return build


@pytest.mark.parametrize("case_id", [
    pytest.param(cid, marks=pytest.mark.slow)
    if cid.startswith("seed/") and int(cid.split("/")[1]) >= TIER1_SEEDS
    else cid
    for cid in _CASES])
def test_maintained_facts_match_fresh_build(case_id, oracle):
    oracle.run(_optimized(case_id))


# ---- hand-written CFGs -------------------------------------------------------

#: two identical arms: after the meld %e ends in ``br %c, %m, %m``, is
#: folded to ``br %m`` and forwarded away
ENTRY_FORWARDED = """
define void @k(i32 addrspace(1)* %p) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %c = icmp slt i32 %tid, 16
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  br label %e
e:
  br i1 %c, label %t, label %f
t:
  %a = load i32, i32 addrspace(1)* %g
  %b = mul i32 %a, 3
  %x = add i32 %b, 7
  store i32 %x, i32 addrspace(1)* %g
  br label %j
f:
  %a2 = load i32, i32 addrspace(1)* %g
  %b2 = mul i32 %a2, 5
  %x2 = add i32 %b2, 9
  store i32 %x2, i32 addrspace(1)* %g
  br label %j
j:
  ret void
}
"""

#: the region's exit %j only forwards to %out; %e keeps a store
EXIT_FORWARDED = """
define void @k(i32 addrspace(1)* %p) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %c = icmp slt i32 %tid, 16
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  br label %e
e:
  store i32 0, i32 addrspace(1)* %g
  br i1 %c, label %t, label %f
t:
  %a = load i32, i32 addrspace(1)* %g
  %b = mul i32 %a, 3
  %x = add i32 %b, 7
  store i32 %x, i32 addrspace(1)* %g
  br label %j
f:
  %a2 = load i32, i32 addrspace(1)* %g
  %b2 = mul i32 %a2, 5
  %x2 = add i32 %b2, 9
  store i32 %x2, i32 addrspace(1)* %g
  br label %j
j:
  br label %out
out:
  ret void
}
"""

#: the divergent diamond sits inside a uniform loop
MELD_IN_LOOP = """
define void @k(i32 addrspace(1)* %p, i32 %n) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %c = icmp slt i32 %tid, 16
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %latch ]
  br i1 %c, label %t, label %f
t:
  %a = load i32, i32 addrspace(1)* %g
  %b = mul i32 %a, %i
  %x = add i32 %b, 7
  store i32 %x, i32 addrspace(1)* %g
  br label %latch
f:
  %a2 = load i32, i32 addrspace(1)* %g
  %b2 = mul i32 %a2, %n
  %x2 = add i32 %b2, 9
  store i32 %x2, i32 addrspace(1)* %g
  br label %latch
latch:
  %i2 = add i32 %i, 1
  %more = icmp slt i32 %i2, %n
  br i1 %more, label %h, label %out
out:
  ret void
}
"""

#: %r1's true path leaves through two edges, so ``Simplify`` gives it a
#: collector; its arms share no opcode, so it is rejected, and the meld
#: of %r2 below sweeps the collector away
REJECTED_COLLECTOR = """
define void @k(i32 addrspace(1)* %p, i32 %s) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %c = icmp slt i32 %tid, 16
  %d = icmp sgt i32 %tid, 4
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  br i1 %c, label %t1, label %f1
t1:
  %u = shl i32 %tid, 2
  store i32 %u, i32 addrspace(1)* %g
  br i1 %d, label %a1, label %r2
a1:
  %v = lshr i32 %tid, 1
  store i32 %v, i32 addrspace(1)* %g
  br label %r2
f1:
  %w = fdiv float 1.0, 3.0
  %z = fptosi float %w to i32
  br label %r2
r2:
  br i1 %d, label %t2, label %f2
t2:
  %a = load i32, i32 addrspace(1)* %g
  %b = mul i32 %a, 3
  %x = add i32 %b, 7
  store i32 %x, i32 addrspace(1)* %g
  br label %j2
f2:
  %a2 = load i32, i32 addrspace(1)* %g
  %b2 = mul i32 %a2, 5
  %x2 = add i32 %b2, 9
  store i32 %x2, i32 addrspace(1)* %g
  br label %j2
j2:
  ret void
}
"""

#: the melded block has a true-only and a false-only run, each split out
SPLIT_BOTH_SIDES = """
define void @k(i32 addrspace(1)* %p, i32 addrspace(1)* %q) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %c = icmp slt i32 %tid, 16
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  %h = getelementptr i32, i32 addrspace(1)* %q, i32 %tid
  br i1 %c, label %t, label %f
t:
  %a = load i32, i32 addrspace(1)* %g
  %b = mul i32 %a, 3
  store i32 %b, i32 addrspace(1)* %h
  %x = add i32 %a, 7
  %y = mul i32 %x, %a
  store i32 %y, i32 addrspace(1)* %g
  br label %j
f:
  %a2 = load i32, i32 addrspace(1)* %g
  %x2 = add i32 %a2, 9
  %y2 = mul i32 %x2, %a2
  %z2 = xor i32 %y2, 5
  store i32 %z2, i32 addrspace(1)* %h
  store i32 %y2, i32 addrspace(1)* %g
  br label %j
j:
  ret void
}
"""

#: both arms may spin forever, so after the meld a block of the region
#: cannot reach its exit and drops out of post-dominance
ENDLESS_LOOP = """
define void @k(i32 addrspace(1)* %p, i1 %d) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %c = icmp slt i32 %tid, 16
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  br i1 %c, label %t, label %f
t:
  %a = load i32, i32 addrspace(1)* %g
  %b = mul i32 %a, 3
  store i32 %b, i32 addrspace(1)* %g
  br i1 %d, label %spin, label %j
spin:
  br label %spin
f:
  %a2 = load i32, i32 addrspace(1)* %g
  %b2 = mul i32 %a2, 5
  store i32 %b2, i32 addrspace(1)* %g
  br i1 %d, label %spin2, label %j
spin2:
  br label %spin2
j:
  ret void
}
"""


def _names(function) -> List[str]:
    return [block.name for block in function.blocks]


def _run(oracle: Oracle, text: str):
    return oracle.run(lambda: parse(text))


def test_entry_forwarded_after_full_meld(oracle):
    function, stats = _run(oracle, ENTRY_FORWARDED)
    assert [d.region_entry for d in stats.melds] == ["e"]
    assert "e" not in _names(function)


def test_exit_forwarded(oracle):
    function, stats = _run(oracle, EXIT_FORWARDED)
    assert [d.region_entry for d in stats.melds] == ["e"]
    assert "e" in _names(function) and "j" not in _names(function)


def test_meld_inside_a_loop(oracle):
    function, stats = _run(oracle, MELD_IN_LOOP)
    assert [d.region_entry for d in stats.melds] == ["h"]
    fresh = analyze_function(function)
    assert [loop.header.name for loop in fresh.loops] == ["h"]


def test_collector_of_rejected_region_swept_by_next_meld(oracle, monkeypatch):
    collectors: List[str] = []
    simplify = pass_module.simplify_path_subgraphs

    def recording(function, subgraphs):
        simplified = simplify(function, subgraphs)
        collectors.extend(sub.exit.name for sub in simplified)
        return simplified

    monkeypatch.setattr(pass_module, "simplify_path_subgraphs", recording)
    function, stats = _run(oracle, REJECTED_COLLECTOR)
    actions = {d.region_entry: d.action for d in stats.decisions
               if d.iteration == 1}
    assert actions["entry"] != "melded" and actions["r2"] == "melded"
    # Each iteration that reaches %entry gives it a new collector.
    assert collectors[0] == "t1.exit"
    assert "t1.exit" not in _names(function)


def test_unpredication_splits_on_both_sides(oracle):
    function, stats = _run(oracle, SPLIT_BOTH_SIDES)
    assert stats.melds and stats.melds[0].unpredicated
    guards = [name for name in _names(function)
              if name.endswith(".true") or name.endswith(".false")]
    assert {name.rsplit(".", 1)[1] for name in guards} == {"true", "false"}


def test_endless_loop_inside_the_region(oracle):
    function, stats = _run(oracle, ENDLESS_LOOP)
    assert [d.region_entry for d in stats.melds] == ["entry"]
    assert "spin.m.spin2" in _names(function)


#: dropping the trivial %p1 makes %p2 trivial, in a block the φ sweep
#: has already passed: only the next round's sweep can see it
PHI_CHAIN = """
define void @k(i1 %c, i1 %d, i32 %x, i32 addrspace(1)* %out) {
entry:
  br i1 %c, label %l, label %r
m2:
  %p2 = phi i32 [ %x, %s ], [ %p1, %m1 ]
  store i32 %p2, i32 addrspace(1)* %out
  ret void
l:
  store i32 1, i32 addrspace(1)* %out
  br label %m1
r:
  store i32 2, i32 addrspace(1)* %out
  br label %m1
m1:
  %p1 = phi i32 [ %x, %l ], [ %x, %r ]
  br i1 %d, label %s, label %m2
s:
  store i32 3, i32 addrspace(1)* %out
  br label %m2
}
"""


def test_cleanup_revisits_a_phi_made_trivial_behind_the_sweep():
    function, expected = parse(PHI_CHAIN), parse(PHI_CHAIN)
    facts = analyze_function(function).facts
    pass_module._post_optimize(function, facts)
    reference.post_optimize(expected)
    assert print_function(function) == print_function(expected)
    assert not any(block.phis for block in function.blocks)
    _same_facts(function, facts)


def test_oracle_sees_every_kind_of_edit(monkeypatch):
    """Not vacuous: over the Fig. 8 set every update rule fires."""
    fired: Dict[str, int] = {}
    for rule in ("region_rewritten", "collector_inserted", "block_split",
                 "block_forwarded", "branch_folded"):
        real: Callable = getattr(CFGFacts, rule)

        def counting(self, *args, _rule=rule, _real=real):
            fired[_rule] = fired.get(_rule, 0) + 1
            return _real(self, *args)
        monkeypatch.setattr(CFGFacts, rule, counting)
    for case_id, build in _CASES.items():
        if case_id.startswith("fig8/"):
            built = build()
            optimize(built.function)
            CFMPass().run(built.function)
    assert set(fired) == {"region_rewritten", "collector_inserted",
                          "block_split", "block_forwarded", "branch_folded"}
