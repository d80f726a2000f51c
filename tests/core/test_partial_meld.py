"""Tests for case-② melding: a simple region melded with a single basic
block (Definition 6 condition 2, Figure 2 case ②)."""

import pytest

from repro.core import (
    candidate_pair,
    find_meldable_region,
    path_subgraphs,
    region_block_mapping,
    run_cfm,
    simplify_path_subgraphs,
)
from repro.analysis import compute_divergence, compute_postdominator_tree
from repro.ir import Module, verify_function
from repro.simt import run_kernel

from tests.support import parse

#: true path: an if-then region; false path: one block whose computation
#: matches the region's guarded block (the paper's Figure 2 case ②).
CASE2 = """
define void @k(i32 addrspace(1)* %a, i32 addrspace(1)* %b, i32 %n) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %c = icmp slt i32 %tid, %n
  br i1 %c, label %t, label %f
t:
  %tp = getelementptr i32, i32 addrspace(1)* %a, i32 %tid
  %tv = load i32, i32 addrspace(1)* %tp
  %tc = icmp sgt i32 %tv, 10
  br i1 %tc, label %t.body, label %m
t.body:
  %tr = mul i32 %tv, 3
  store i32 %tr, i32 addrspace(1)* %tp
  br label %m
f:
  %fp = getelementptr i32, i32 addrspace(1)* %b, i32 %tid
  %fv = load i32, i32 addrspace(1)* %fp
  %fr = mul i32 %fv, 3
  store i32 %fr, i32 addrspace(1)* %fp
  br label %m
m:
  ret void
}
"""


def decomposed(f):
    divergence = compute_divergence(f)
    pdt = compute_postdominator_tree(f)
    region = find_meldable_region(f.entry, divergence, pdt)
    ts = path_subgraphs(region.true_first, region.exit, pdt)
    fs = path_subgraphs(region.false_first, region.exit, pdt)
    simplify_path_subgraphs(f, ts)
    simplify_path_subgraphs(f, fs)
    return region, ts, fs


class TestPartialMapping:
    def test_region_block_mapping_found(self):
        f = parse(CASE2)
        _, ts, fs = decomposed(f)
        partial = region_block_mapping(ts[0], fs[0], region_on_true_path=True)
        assert partial is not None
        # The single block pairs with the region block sharing its
        # instruction profile (mul/store live in t.body, loads in t).
        assert partial.chosen.name in ("t", "t.body")
        nones = [bt for bt, bf in partial.mapping if bf is None]
        assert len(nones) == len(partial.mapping) - 1

    def test_route_steers_through_chosen(self):
        f = parse(CASE2)
        _, ts, fs = decomposed(f)
        partial = region_block_mapping(ts[0], fs[0], region_on_true_path=True)
        # Conditional blocks on the entry->chosen->exit path get a
        # steering entry.
        for block, index in partial.route.items():
            assert block in ts[0].blocks
            assert index in (0, 1)

    def test_rejected_for_two_regions(self):
        f = parse(CASE2)
        _, ts, fs = decomposed(f)
        assert region_block_mapping(ts[0], ts[0], True) is None

    def test_candidate_pair_prefers_full_isomorphism(self):
        # When shapes match exactly, candidate_pair must return the full
        # mapping, not a partial one.
        from tests.support import build_diamond

        f = build_diamond()
        _, ts, fs = decomposed(f)
        pair = candidate_pair(ts[0], fs[0])
        assert pair is not None
        assert not pair.is_partial


class TestPartialMeldEndToEnd:
    def run_both(self):
        base = parse(CASE2)
        melded = parse(CASE2)
        stats = run_cfm(melded)
        verify_function(melded)

        buffers = {"a": [5, 20, 11, 3, 40, 9, 15, 2],
                   "b": [7, 1, 30, 12, 2, 25, 6, 18]}
        out_base, _ = run_kernel(base.module, "k", 1, 8,
                                 buffers={k: list(v) for k, v in buffers.items()},
                                 scalars={"n": 4})
        out_melded, _ = run_kernel(melded.module, "k", 1, 8,
                                   buffers={k: list(v) for k, v in buffers.items()},
                                   scalars={"n": 4})
        return stats, out_base, out_melded

    def test_partial_meld_happens_and_is_correct(self):
        stats, out_base, out_melded = self.run_both()
        assert any(m.partial for m in stats.melds)
        assert out_base == out_melded

    def test_region_on_false_path(self):
        # Mirror of CASE2: the region sits on the false path.
        text = CASE2.replace("br i1 %c, label %t, label %f",
                             "br i1 %c, label %f, label %t")
        base = parse(text)
        melded = parse(text)
        stats = run_cfm(melded)
        verify_function(melded)
        assert any(m.partial for m in stats.melds)
        buffers = {"a": [5, 20, 11, 3, 40, 9, 15, 2],
                   "b": [7, 1, 30, 12, 2, 25, 6, 18]}
        out_base, _ = run_kernel(base.module, "k", 1, 8,
                                 buffers={k: list(v) for k, v in buffers.items()},
                                 scalars={"n": 4})
        out_melded, _ = run_kernel(melded.module, "k", 1, 8,
                                   buffers={k: list(v) for k, v in buffers.items()},
                                   scalars={"n": 4})
        assert out_base == out_melded

    def test_partial_meld_reduces_memory_issues(self):
        base = parse(CASE2)
        melded = parse(CASE2)
        run_cfm(melded)
        buffers = {"a": [50] * 8, "b": [50] * 8}
        _, metrics_base = run_kernel(base.module, "k", 1, 8,
                                     buffers={k: list(v) for k, v in buffers.items()},
                                     scalars={"n": 4})
        _, metrics_melded = run_kernel(melded.module, "k", 1, 8,
                                       buffers={k: list(v) for k, v in buffers.items()},
                                       scalars={"n": 4})
        # The loads/stores of the two paths issue together now.
        assert metrics_melded.vector_memory_issues < \
            metrics_base.vector_memory_issues
