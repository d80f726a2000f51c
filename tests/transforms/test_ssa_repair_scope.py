"""Scoped SSA repair against whole-function repair.

The CFM pass hands ``repair_ssa`` the blocks whose definitions can have
lost dominance (the divergent region after a meld, the guarded blocks
after unpredication).  Here every such call made while melding the
benchmark kernels and 100 generated kernels is replayed on two re-parsed
copies of the IR as it stood — one repaired with the scope, one without
— and the two must print identically and verify.  The pass hands each
call the dominator tree it keeps through its edits; that tree must equal
a fresh one of the IR at the moment of the call.
"""

import pytest

import repro.core.pass_ as pass_module
import repro.core.unpredication as unpredication_module
from repro import CFMPass
from repro.analysis import compute_dominator_tree
from repro.difftest.generator import build_kernel, generate_spec
from repro.ir import print_module, verify_function
from repro.ir.parser import parse_module
from repro.kernels import ALL_BUILDERS
from repro.transforms import optimize, repair_ssa


def _idoms(tree):
    """Each block's immediate dominator and depth."""
    return {block: (tree.idom(block), tree.depth(block))
            for block in tree.blocks()}


@pytest.fixture
def replayed(monkeypatch):
    """Route the pass's scoped repairs through the comparison; yields
    the list of per-call "whole-function repair changed the IR" flags."""
    outcomes = []

    def checked_repair(function, scope, dominators):
        assert _idoms(dominators) == _idoms(compute_dominator_tree(function))
        text = print_module(function.module)
        whole = parse_module(text).function(function.name)
        scoped = parse_module(text).function(function.name)
        names = {block.name for block in scope}
        outcomes.append(repair_ssa(whole))
        repair_ssa(scoped, {b for b in scoped.blocks if b.name in names})
        assert print_module(scoped.module) == print_module(whole.module)
        verify_function(scoped)
        return repair_ssa(function, scope, dominators)

    monkeypatch.setattr(pass_module, "repair_ssa", checked_repair)
    monkeypatch.setattr(unpredication_module, "repair_ssa", checked_repair)
    return outcomes


@pytest.mark.parametrize("name", sorted(ALL_BUILDERS))
def test_kernel_scoped_repair_matches_whole_function(name, replayed):
    function = ALL_BUILDERS[name](32).function
    optimize(function)
    assert CFMPass().run(function).changed
    assert replayed, "the pass made no scoped repair call"


def test_generated_scoped_repair_matches_whole_function(replayed):
    for seed in range(100):
        function = build_kernel(generate_spec(seed)).function
        optimize(function)
        CFMPass().run(function)
    # Not vacuous: many of the replayed calls had violations to fix.
    assert sum(replayed) >= 50, (sum(replayed), len(replayed))
