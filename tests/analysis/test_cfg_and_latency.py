"""Tests for CFG utilities and the static latency model."""

import pytest

from repro.analysis import (
    DEFAULT_LATENCY_MODEL,
    LatencyModel,
    reachable_blocks,
    reachable_from,
    reverse_postorder,
)
from repro.ir import (
    AddressSpace,
    IRBuilder,
    Load,
    Opcode,
    Store,
    Undef,
    I32,
    VerificationError,
    pointer,
    verify_function,
)

from tests.support import build_diamond, parse, straightline_function


class TestOrders:
    def test_rpo_starts_at_entry(self):
        f = build_diamond()
        rpo = reverse_postorder(f)
        assert rpo[0] is f.entry
        assert rpo[-1] is f.blocks[-1]

    def test_rpo_respects_edges_in_dag(self):
        f = build_diamond()
        rpo = reverse_postorder(f)
        position = {b: i for i, b in enumerate(rpo)}
        for block in f.blocks:
            for succ in block.succs:
                if position[succ] > position[block] or True:
                    # in a DAG every edge goes forward in RPO
                    assert position[block] < position[succ]

    def test_unreachable_excluded(self):
        f = straightline_function(2)
        dead = f.add_block("dead")
        IRBuilder(dead).ret()
        assert dead not in reachable_blocks(f)


class TestReachableFrom:
    def test_stop_block_excluded(self):
        f = build_diamond()
        entry, then, els, merge = f.blocks
        blocks = reachable_from(entry, stop=merge)
        assert blocks == {entry, then, els}

    def test_without_stop_reaches_all(self):
        f = build_diamond()
        assert reachable_from(f.entry) == set(f.blocks)


class TestSplitEdge:
    def test_preds_stay_consistent(self):
        # The diamond with its entry -> then edge split by hand: the
        # redirected branch keeps every cached predecessor list exact,
        # and a stale one is reported.
        f = build_diamond()
        entry, then, els, merge = f.blocks
        split = f.add_block("s", after=entry)
        entry.terminator.replace_successor(then, split)
        IRBuilder(split).br(then)
        verify_function(f)
        assert then.preds == [split] and split.preds == [entry]
        then._preds.append(entry)
        with pytest.raises(VerificationError, match="stale predecessor list"):
            verify_function(f)


class TestLatencyModel:
    def test_shared_cheaper_than_global(self):
        m = DEFAULT_LATENCY_MODEL
        shared_load = Load(Undef(pointer(I32, AddressSpace.SHARED)))
        global_load = Load(Undef(pointer(I32, AddressSpace.GLOBAL)))
        assert m.latency(shared_load) < m.latency(global_load)

    def test_shared_more_expensive_than_alu(self):
        # §VI-D: melding shared-memory instructions beats melding ALU ops
        # because LDS latency dominates ALU latency.
        from repro.ir import BinaryOp, const_int

        m = DEFAULT_LATENCY_MODEL
        alu = BinaryOp(Opcode.ADD, const_int(1, I32), const_int(2, I32))
        shared_load = Load(Undef(pointer(I32, AddressSpace.SHARED)))
        assert m.latency(shared_load) > m.latency(alu)

    def test_custom_model(self):
        m = LatencyModel()
        m.opcode_latency[Opcode.ADD] = 99
        from repro.ir import BinaryOp, const_int

        assert m.latency(BinaryOp(Opcode.ADD, const_int(1, I32), const_int(2, I32))) == 99
        # The default model is unaffected.
        assert DEFAULT_LATENCY_MODEL.opcode_latency[Opcode.ADD] != 99

    def test_select_and_branch_latencies_exposed(self):
        m = DEFAULT_LATENCY_MODEL
        assert m.select_latency > 0
        assert m.branch_latency > 0
