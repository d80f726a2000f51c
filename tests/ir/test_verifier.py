"""Tests for the IR verifier: each invariant violation must be caught."""

import pytest

from repro.ir import (
    BinaryOp,
    Branch,
    Function,
    I32,
    IRBuilder,
    Opcode,
    Phi,
    Ret,
    VerificationError,
    const_bool,
    const_int,
    verify_function,
)

from tests.support import build_diamond, parse, straightline_function


def c(v):
    return const_int(v, I32)


class TestAccepts:
    def test_straightline(self):
        verify_function(straightline_function())

    def test_diamond(self):
        verify_function(build_diamond())

    def test_loop_with_phi(self):
        f = parse("""
define void @loop(i32 %n) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %next, %h ]
  %next = add i32 %i, 1
  %cmp = icmp slt i32 %next, %n
  br i1 %cmp, label %h, label %x
x:
  ret void
}
""")
        verify_function(f)


class TestRejects:
    def test_missing_terminator(self):
        f = Function("f", [], [])
        blk = f.add_block("a")
        IRBuilder(blk).add(c(1), c(2))
        with pytest.raises(VerificationError, match="terminator"):
            verify_function(f)

    def test_empty_block(self):
        f = Function("f", [], [])
        f.add_block("a")
        with pytest.raises(VerificationError, match="empty"):
            verify_function(f)

    def test_phi_after_non_phi(self):
        f = Function("f", [], [])
        a, b = f.add_block("a"), f.add_block("b")
        builder = IRBuilder(a)
        builder.br(b)
        builder.position_at_end(b)
        v = builder.add(c(1), c(2))
        phi = Phi(I32, "p")
        phi.parent = b
        b._instructions.append(phi)  # bypass insert_after_phis deliberately
        phi.add_incoming(c(0), a)
        builder.ret()
        with pytest.raises(VerificationError, match="phi after non-phi"):
            verify_function(f)

    def test_phi_incoming_mismatch(self):
        f = Function("f", [], [])
        a, b, m = f.add_block("a"), f.add_block("b"), f.add_block("m")
        builder = IRBuilder(a)
        builder.cond_br(const_bool(True), b, m)
        builder.position_at_end(b)
        builder.br(m)
        builder.position_at_end(m)
        phi = builder.phi(I32, "p")
        phi.add_incoming(c(1), a)  # missing entry for %b
        builder.ret()
        with pytest.raises(VerificationError, match="incoming"):
            verify_function(f)

    def test_use_does_not_dominate(self):
        f = Function("f", [], [])
        a, b, m = f.add_block("a"), f.add_block("b"), f.add_block("m")
        builder = IRBuilder(a)
        builder.cond_br(const_bool(True), b, m)
        builder.position_at_end(b)
        v = builder.add(c(1), c(2), "v")
        builder.br(m)
        builder.position_at_end(m)
        builder.add(v, c(3))  # %v does not dominate %m
        builder.ret()
        with pytest.raises(VerificationError, match="dominate"):
            verify_function(f)

    def test_use_before_def_same_block(self):
        f = Function("f", [], [])
        a = f.add_block("a")
        builder = IRBuilder(a)
        v1 = builder.add(c(1), c(2), "v1")
        v2 = builder.add(c(3), c(4), "v2")
        builder.ret()
        # Swap so v1's definition comes after its use by reordering operand.
        v1.set_operand(0, v2)
        a._instructions.remove(v2)
        a._instructions.insert(1, v2)  # now order: v1, v2, ret; v1 uses v2
        with pytest.raises(VerificationError, match="dominate"):
            verify_function(f)

    def test_phi_use_checked_at_incoming_edge(self):
        # A phi may use a value that only dominates the matching incoming
        # block, not the phi's own block — that must be accepted.
        f = parse("""
define void @ok(i1 %c) {
entry:
  br i1 %c, label %l, label %r
l:
  %x = add i32 1, 2
  br label %m
r:
  br label %m
m:
  %p = phi i32 [ %x, %l ], [ 0, %r ]
  ret void
}
""")
        verify_function(f)

    def test_entry_with_predecessor(self):
        f = Function("f", [], [])
        a, b = f.add_block("a"), f.add_block("b")
        builder = IRBuilder(a)
        builder.br(b)
        builder.position_at_end(b)
        builder.br(a)
        with pytest.raises(VerificationError, match="entry"):
            verify_function(f)

    def test_foreign_argument(self):
        other = Function("other", [I32], ["y"])
        f = Function("f", [], [])
        a = f.add_block("a")
        builder = IRBuilder(a)
        builder.add(other.args[0], c(1))
        builder.ret()
        with pytest.raises(VerificationError, match="argument"):
            verify_function(f)

    def test_barrier_with_uses(self):
        # BARRIER is void; giving its "result" a use must be rejected.
        f = Function("f", [], [])
        a = f.add_block("a")
        builder = IRBuilder(a)
        bar = builder.barrier()
        add = builder.add(c(1), c(2))
        builder.ret()
        add.set_operand(0, bar)  # bypass type discipline deliberately
        with pytest.raises(VerificationError, match="barrier.*void.*use"):
            verify_function(f)

    def test_barrier_without_uses_ok(self):
        f = Function("f", [], [])
        builder = IRBuilder(f.add_block("a"))
        builder.barrier()
        builder.ret()
        verify_function(f)

    def test_conditional_branch_on_non_i1(self):
        f = Function("f", [], [])
        a, b, m = f.add_block("a"), f.add_block("b"), f.add_block("m")
        builder = IRBuilder(a)
        cond = builder.add(c(1), c(2), "w")  # i32, not i1
        term = builder.cond_br(const_bool(True), b, m)
        for blk in (b, m):
            builder.position_at_end(blk)
            builder.ret()
        term.set_operand(0, cond)  # swap in the i32 behind the builder's back
        with pytest.raises(VerificationError, match="non-i1"):
            verify_function(f)
