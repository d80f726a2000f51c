"""Tests for BasicBlock structure and mutation."""

import pytest

from repro.ir import (
    Branch,
    Function,
    I32,
    IRBuilder,
    Phi,
    Ret,
    const_bool,
    const_int,
)

from tests.support import straightline_function


def c(v):
    return const_int(v, I32)


class TestStructure:
    def test_terminator_detection(self):
        f = straightline_function(2)
        assert isinstance(f.blocks[0].terminator, Branch)
        assert isinstance(f.blocks[1].terminator, Ret)

    def test_no_double_terminator(self):
        f = Function("f", [], [])
        blk = f.add_block("a")
        blk.append(Ret())
        with pytest.raises(RuntimeError):
            blk.append(Ret())

    def test_phis_property_only_leading_run(self):
        f = Function("f", [], [])
        a = f.add_block("a")
        builder = IRBuilder(a)
        p1 = builder.phi(I32, "p1")
        p2 = builder.phi(I32, "p2")
        builder.add(c(1), c(2))
        assert a.phis == [p1, p2]
        assert len(a.non_phi_instructions) == 1  # just the add

    def test_insert_before_terminator(self):
        f = Function("f", [], [])
        a = f.add_block("a")
        builder = IRBuilder(a)
        builder.ret()
        from repro.ir import BinaryOp, Opcode

        instr = BinaryOp(Opcode.ADD, c(1), c(2))
        a.insert_before_terminator(instr)
        assert a.instructions[-1].opcode == "ret"
        assert a.instructions[-2] is instr

    def test_insert_after_phis_empty_block(self):
        f = Function("f", [], [])
        a = f.add_block("a")
        from repro.ir import BinaryOp, Opcode

        instr = BinaryOp(Opcode.ADD, c(1), c(2))
        a.insert_after_phis(instr)
        assert a.instructions == [instr]


class TestSuccsPreds:
    def test_single_succ_pred(self):
        f = straightline_function(3)
        b0, b1, b2 = f.blocks
        assert b0.single_succ is b1
        assert b1.single_pred is b0
        assert b2.single_succ is None

    def test_succs_deduplicated_for_same_target(self):
        f = Function("f", [], [])
        a, b = f.add_block("a"), f.add_block("b")
        a.append(Branch([b, b], const_bool(True)))
        assert a.succs == [b]
        assert b.preds == [a]

    def test_multiple_preds(self):
        f = Function("f", [], [])
        a, b, m = f.add_block("a"), f.add_block("b"), f.add_block("m")
        a.append(Branch([m]))
        b.append(Branch([m]))
        assert set(m.preds) == {a, b}


class TestReplaceTerminator:
    def test_replace_updates_edges(self):
        f = Function("f", [], [])
        a, b, d = f.add_block("a"), f.add_block("b"), f.add_block("d")
        a.append(Branch([b]))
        a.replace_terminator(Branch([d]))
        assert a not in b.preds
        assert a in d.preds


class TestEraseBlock:
    def test_erase_dead_block(self):
        f = Function("f", [], [])
        a = f.add_block("a")
        builder = IRBuilder(a)
        v = builder.add(c(1), c(2))
        builder.add(v, c(3))
        builder.ret()
        a.erase()
        assert a.parent is None
        assert not f.blocks

    def test_erase_unlinks_branch_edges(self):
        f = Function("f", [], [])
        a, b = f.add_block("a"), f.add_block("b")
        a.append(Branch([b]))
        a.erase()
        assert b.preds == []

    def test_erase_refuses_with_external_uses(self):
        f = Function("f", [], [])
        a, b = f.add_block("a"), f.add_block("b")
        builder = IRBuilder(a)
        v = builder.add(c(1), c(2))
        builder.br(b)
        builder.position_at_end(b)
        builder.add(v, c(3))
        builder.ret()
        with pytest.raises(RuntimeError):
            a.erase()


class TestFunctionNames:
    def test_unique_block_names(self):
        f = Function("f", [], [])
        a1 = f.add_block("x")
        a2 = f.add_block("x")
        assert a1.name == "x"
        assert a2.name != "x"

    def test_add_block_after(self):
        f = Function("f", [], [])
        a = f.add_block("a")
        b = f.add_block("b")
        mid = f.add_block("mid", after=a)
        assert f.blocks == [a, mid, b]

    def test_block_by_name(self):
        f = Function("f", [], [])
        a = f.add_block("a")
        assert f.block_by_name("a") is a
        with pytest.raises(KeyError):
            f.block_by_name("nope")
