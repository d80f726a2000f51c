"""The one-sweep straight-line merge and the resuming speculation scan
apply exactly the rewrites of the restarting fixpoints they replaced.

Every Fig. 7 and Fig. 8 kernel and generator seeds 0–199 are compiled
through ``optimize → CFMPass → late_pipeline`` twice: once with the
reference drivers of :mod:`tests.transforms.reference_fixpoints`
patched in wherever :mod:`repro` binds ``simplify_cfg`` or
``speculate_hammocks``, once with the shipped code.  The printed module
and the meld decision log must be byte-identical, after every driver
call and at the end.  Hand-written CFGs cover the two ways a flatten
reopens an earlier speculation head, which no kernel of the corpus
shows, and a complexity guard keeps the quadratic merge loop from
coming back unnoticed.
"""

from __future__ import annotations

import json
import sys
from typing import Callable, Dict, Iterator, List, Tuple

import pytest

from repro import CFMConfig, CFMPass
from repro.difftest.generator import build_kernel, generate_spec
from repro.evaluation import REAL_BLOCK_SIZES, SYNTHETIC_BLOCK_SIZES
from repro.ir import print_function, print_module, verify_function
from repro.kernels import REAL_WORLD_BUILDERS, SYNTHETIC_BUILDERS
from repro.transforms import (
    late_pipeline,
    merge_straightline_blocks,
    optimize,
    simplify_cfg,
    simplifycfg,
    speculate_hammocks,
    unroll,
)

from tests.support import parse, straightline_function
from tests.transforms import reference_fixpoints as reference

GENERATOR_SEEDS = 200
TIER1_SEEDS = 50


def _cases() -> Iterator[Tuple[str, Callable]]:
    """``(case id, thunk building (module, function))``."""
    for name, builder in REAL_WORLD_BUILDERS.items():
        for size in REAL_BLOCK_SIZES[name]:
            yield f"fig8/{name}@{size}", lambda b=builder, s=size: b(s)
    for name, builder in SYNTHETIC_BUILDERS.items():
        for size in SYNTHETIC_BLOCK_SIZES:
            yield f"fig7/{name}@{size}", lambda b=builder, s=size: b(s)
    for seed in range(GENERATOR_SEEDS):
        yield (f"seed/{seed}",
               lambda s=seed: build_kernel(generate_spec(s)))


_CASES: Dict[str, Callable] = dict(_cases())


def _compile(build: Callable, monkeypatch, simplify: Callable,
             speculate: Callable) -> List[str]:
    """The function as printed after every ``simplify_cfg`` and
    ``speculate_hammocks`` call, with what the call returned, then the
    module and the meld decision log; ``simplify`` and ``speculate`` are
    rebound wherever a ``repro`` module names the shipped drivers."""
    snapshots: List[str] = []

    def recording(driver: Callable) -> Callable:
        def run(function, *args):
            changed = driver(function, *args)
            snapshots.append(f"{driver.__name__} -> {changed}\n"
                             + print_function(function))
            return changed
        return run

    with monkeypatch.context() as patch:
        _rebind(patch, {simplify_cfg: recording(simplify),
                        speculate_hammocks: recording(speculate)})
        built = build()
        optimize(built.function)
        stats = CFMPass(CFMConfig()).run(built.function).stats
        late_pipeline().run(built.function)
    snapshots.append(print_module(built.module) + "\n"
                     + json.dumps([d.as_dict() for d in stats.decisions],
                                  sort_keys=True))
    return snapshots


def _rebind(monkeypatch, swaps: Dict[Callable, Callable]) -> int:
    """Point every ``repro`` module attribute bound to a key of ``swaps``
    at its value; returns how many bindings were replaced."""
    replaced = 0
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            for shipped, substitute in swaps.items():
                if value is shipped:
                    monkeypatch.setattr(module, name, substitute)
                    replaced += 1
    return replaced


def _same_rewrites(build: Callable, monkeypatch) -> None:
    shipped = _compile(build, monkeypatch, simplify_cfg, speculate_hammocks)
    expected = _compile(build, monkeypatch, reference.simplify_cfg,
                        reference.speculate_hammocks)
    for step, (got, want) in enumerate(zip(shipped, expected)):
        assert got == want, f"state after driver call #{step} differs"
    assert len(shipped) == len(expected)


@pytest.mark.parametrize("case_id", [
    pytest.param(cid, marks=pytest.mark.slow)
    if cid.startswith("seed/") and int(cid.split("/")[1]) >= TIER1_SEEDS
    else cid
    for cid in _CASES])
def test_same_rewrites_as_reference(case_id, monkeypatch):
    _same_rewrites(_CASES[case_id], monkeypatch)


def test_reference_is_patched_in(monkeypatch):
    """The oracle is not vacuous: the pipelines, the unroller and the
    package exports all reach the reference drivers, and on LUD the
    reference runs more SimplifyCFG rounds than the shipped sweep."""
    rounds = {"shipped": 0, "reference": 0}

    def counting(label, once):
        def count(function):
            rounds[label] += 1
            return once(function)
        return count

    monkeypatch.setattr(simplifycfg, "_simplify_once",
                        counting("shipped", simplifycfg._simplify_once))
    monkeypatch.setattr(reference, "_simplify_once",
                        counting("reference", reference._simplify_once))
    with monkeypatch.context() as patch:
        assert _rebind(patch, {simplify_cfg: reference.simplify_cfg}) >= 3
        assert unroll.simplify_cfg is reference.simplify_cfg
    _same_rewrites(_CASES["fig8/LUD@16"], monkeypatch)
    assert rounds["reference"] > rounds["shipped"] > 0


# ---- complexity guard ---------------------------------------------------------


def test_chain_collapses_in_one_merge_call():
    function = straightline_function(64)
    assert merge_straightline_blocks(function)
    assert len(function.blocks) == 1
    verify_function(function)


def test_simplify_cfg_on_chain_runs_at_most_three_rounds(monkeypatch):
    rounds = []
    once = simplifycfg._simplify_once
    monkeypatch.setattr(simplifycfg, "_simplify_once",
                        lambda function: rounds.append(1) or once(function))
    function = straightline_function(64)
    assert simplify_cfg(function)
    assert len(function.blocks) == 1
    assert len(rounds) <= 3


# ---- where the speculation scan resumes ---------------------------------------

#: flattening the triangle at %h makes %h an arm of %entry's triangle
PREDECESSOR_REOPENS = """
define void @k(i1 %c, i1 %d, i32 %x, i32 addrspace(1)* %out) {
entry:
  br i1 %c, label %h, label %j
h:
  br i1 %d, label %t, label %j
t:
  %a = add i32 %x, 1
  br label %j
j:
  %r = phi i32 [ 0, %entry ], [ %x, %h ], [ %a, %t ]
  store i32 %r, i32 addrspace(1)* %out
  ret void
}
"""

#: flattening the diamond at %h forwards %p to the literal 3, which makes
#: the shift in %a — an arm of %x, listed before %h's predecessor %g —
#: speculatable
LITERAL_REOPENS = """
define void @k(i1 %c, i1 %d, i32 %x, i32 addrspace(1)* %out) {
entry:
  br label %g
x:
  br i1 %d, label %a, label %xm
a:
  %s = shl i32 %x, %p
  br label %xm
xm:
  %q = phi i32 [ %s, %a ], [ 0, %x ]
  store i32 %q, i32 addrspace(1)* %out
  ret void
g:
  br label %h
h:
  br i1 %c, label %t, label %f
t:
  br label %m
f:
  br label %m
m:
  %p = phi i32 [ 3, %t ], [ 3, %f ]
  br label %x
}
"""


def _literal_reopens():
    function = parse(LITERAL_REOPENS)
    # One constant object on both edges, as a builder emits it: only then
    # is the φ forwarded rather than turned into a select.
    phi = function.block_by_name("m").phis[0]
    phi.set_incoming_for(function.block_by_name("f"), phi.incoming_values[0])
    verify_function(function)
    return function


@pytest.mark.parametrize("build, left", [
    (lambda: parse(PREDECESSOR_REOPENS), ["entry", "j"]),
    (_literal_reopens, ["entry", "x", "xm", "g", "h", "m"]),
], ids=["predecessor", "literal"])
def test_one_speculation_call_reaches_reopened_heads(build, left):
    shipped, expected = build(), build()
    assert speculate_hammocks(shipped)
    assert reference.speculate_hammocks(expected)
    verify_function(shipped)
    assert print_function(shipped) == print_function(expected)
    assert [block.name for block in shipped.blocks] == left
