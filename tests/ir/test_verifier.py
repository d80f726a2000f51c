"""Tests for the IR verifier: each invariant violation must be caught."""

import pytest

from repro.ir import (
    BinaryOp,
    Branch,
    Function,
    I32,
    ICmpPredicate,
    IRBuilder,
    Opcode,
    Phi,
    Ret,
    Value,
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


# ---- malformed functions the messages above never reach ------------------
#
# Each builder returns a function with exactly the problems listed next
# to it; tests/ir/test_verifier_reference.py runs them through the
# reference verifier as well.

def _stale_predecessors():
    f = Function("f", [], [])
    a, b = f.add_block("a"), f.add_block("b")
    builder = IRBuilder(a)
    builder.br(b)
    builder.position_at_end(b)
    builder.ret()
    b._preds.clear()  # the a -> b edge is no longer recorded
    return f


def _wrong_parent():
    f = Function("f", [], [])
    a, b = f.add_block("a"), f.add_block("b")
    builder = IRBuilder(a)
    builder.add(c(1), c(2), "v").parent = b
    builder.br(b)
    builder.position_at_end(b)
    builder.ret()
    return f


def _terminator_mid_block():
    f = Function("f", [], [])
    a = f.add_block("a")
    builder = IRBuilder(a)
    early = builder.ret()
    a._instructions.remove(early)
    builder.add(c(1), c(2), "v")
    builder.ret()
    a._instructions.insert(0, early)
    return f


def _missing_operand():
    # ``ret`` prints a None operand as ``ret void``; every other
    # instruction prints it as ``<missing>``.
    f = Function("f", [], [])
    IRBuilder(f.add_block("a")).ret()._operands.append(None)
    return f


def _missing_compare_operand():
    f = Function("f", [], [])
    builder = IRBuilder(f.add_block("a"))
    builder.icmp(ICmpPredicate.SLT, c(1), c(2), "lt")._operands[0] = None
    builder.ret()
    return f


def _operand_gone_from_block():
    f = Function("f", [], [])
    a = f.add_block("a")
    builder = IRBuilder(a)
    x = builder.add(c(1), c(2), "x")
    builder.add(x, c(3), "v")
    builder.ret()
    a._instructions.remove(x)  # ``x`` still names ``a`` as its parent
    return f


def _operand_gone_from_other_block():
    f = Function("f", [], [])
    a, b = f.add_block("a"), f.add_block("b")
    builder = IRBuilder(a)
    x = builder.add(c(1), c(2), "x")
    builder.br(b)
    builder.position_at_end(b)
    builder.add(x, c(3), "y")
    builder.ret()
    a._instructions.remove(x)  # ``x`` still names ``a`` as its parent
    return f


def _branch_out_of_function():
    other = Function("g", [], [])
    outside = other.add_block("out")
    IRBuilder(outside).ret()
    f = Function("f", [], [])
    IRBuilder(f.add_block("a")).br(outside)
    return f


def _phi_value_without_block():
    f = Function("f", [], [])
    a, m = f.add_block("a"), f.add_block("m")
    builder = IRBuilder(a)
    x = builder.add(c(1), c(2), "x")
    builder.br(m)
    builder.position_at_end(m)
    phi = builder.phi(I32, "p")
    phi.add_incoming(x, a)
    phi._operands.append(x)
    builder.ret()
    return f


def _detached_operand():
    f = Function("f", [], [])
    builder = IRBuilder(f.add_block("a"))
    builder.add(BinaryOp(Opcode.ADD, c(1), c(2), "loose"), c(3), "v")
    builder.ret()
    return f


def _foreign_operand():
    other = Function("g", [], [])
    theirs = IRBuilder(other.add_block("a")).add(c(1), c(2), "theirs")
    f = Function("f", [], [])
    builder = IRBuilder(f.add_block("a"))
    builder.add(theirs, c(3), "v")
    builder.ret()
    return f


def _use_from_unreachable_block():
    f = Function("f", [], [])
    entry, dead = f.add_block("entry"), f.add_block("dead")
    builder = IRBuilder(dead)
    x = builder.add(c(1), c(2), "x")
    builder.ret()
    builder.position_at_end(entry)
    builder.add(x, c(3), "y")
    builder.ret()
    return f


def _duplicate_phi_incoming():
    f = Function("f", [], [])
    a, m = f.add_block("a"), f.add_block("m")
    builder = IRBuilder(a)
    builder.br(m)
    builder.position_at_end(m)
    phi = builder.phi(I32, "p")
    phi.add_incoming(c(1), a)
    phi.add_incoming(c(2), a)
    builder.ret()
    return f


def _unexpected_operand_kind():
    f = Function("f", [], [])
    builder = IRBuilder(f.add_block("a"))
    v = builder.add(c(1), c(2), "v")
    builder.ret()
    v._operands[1] = Value(I32, "raw")  # neither constant nor definition
    return f


def _three_problems():
    # One problem from each of three checks; they are reported in check
    # order (predecessor lists, block structure, φ incoming sets), not in
    # the order of the blocks that hold them.
    f = Function("f", [], [])
    a, b, m = f.add_block("a"), f.add_block("b"), f.add_block("m")
    builder = IRBuilder(a)
    builder.cond_br(const_bool(True), b, m)
    builder.position_at_end(m)
    phi = builder.phi(I32, "p")
    phi.add_incoming(c(1), a)
    builder.ret()
    builder.position_at_end(b)
    builder.add(c(1), c(2), "v")  # no terminator
    m._preds.append(b)
    return f


MALFORMED = {
    "stale-predecessors": (_stale_predecessors, [
        "stale predecessor list on b: cached [] vs actual ['a']"]),
    "wrong-parent": (_wrong_parent, ["instruction v in %a has wrong parent"]),
    "terminator-mid-block": (_terminator_mid_block, [
        "block %a has a terminator mid-block"]),
    "missing-operand": (_missing_operand, [
        "ret void has a missing operand #0"]),
    "missing-compare-operand": (_missing_compare_operand, [
        "%lt = icmp slt <missing>, 2 has a missing operand #0"]),
    "operand-gone-from-block": (_operand_gone_from_block, [
        "%v = add i32 %x, 3 uses detached/foreign instruction %x"]),
    "operand-gone-from-other-block": (_operand_gone_from_other_block, [
        "%y = add i32 %x, 3 uses detached/foreign instruction %x"]),
    "branch-out-of-function": (_branch_out_of_function, [
        "block %a branches to %out outside the function"]),
    "phi-value-without-block": (_phi_value_without_block, [
        "phi %p in %m has 2 values for 1 incoming blocks"]),
    "detached-operand": (_detached_operand, [
        "%v = add i32 %loose, 3 uses detached/foreign instruction %loose"]),
    "foreign-operand": (_foreign_operand, [
        "%v = add i32 %theirs, 3 uses detached/foreign instruction %theirs"]),
    "unreachable-definition": (_use_from_unreachable_block, [
        "%y = add i32 %x, 3 uses %x defined in unreachable block"]),
    "duplicate-phi-incoming": (_duplicate_phi_incoming, [
        "phi %p in %m has duplicate incoming blocks"]),
    "unexpected-operand-kind": (_unexpected_operand_kind, [
        "%v = add i32 1, %raw has unexpected operand kind Value"]),
    "three-problems": (_three_problems, [
        "stale predecessor list on m: cached ['a', 'b'] vs actual ['a']",
        "block %b does not end in a terminator",
        "phi %p in %m incoming blocks ['a'] != preds ['a', 'b']"]),
}


class TestMessages:
    """The exact problem list, in order, for each malformed function."""

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_problems(self, name):
        build, expected = MALFORMED[name]
        with pytest.raises(VerificationError) as info:
            verify_function(build())
        assert info.value.problems == expected
