"""Tests for values, users, constants and use-list maintenance."""

import copy
import sys
import threading

import pytest

from repro.ir import (
    Argument,
    BasicBlock,
    BinaryOp,
    Constant,
    F32,
    F64,
    I1,
    I32,
    I64,
    Opcode,
    Phi,
    Select,
    Undef,
    const_bool,
    const_int,
)


def add(a, b):
    return BinaryOp(Opcode.ADD, a, b)


def args(n):
    return [Argument(I32, f"a{i}", i) for i in range(n)]


class TestConstants:
    def test_int_constant_value(self):
        c = const_int(42, I32)
        assert c.value == 42
        assert c.type is I32

    def test_int_constant_wraps_to_width(self):
        c = const_int(2**31, I32)  # wraps to INT32_MIN
        assert c.value == -(2**31)
        assert const_int(-1, I32).value == -1
        assert const_int(255, I32).value == 255

    def test_i1_constants(self):
        assert const_bool(True).value == 1
        assert const_bool(False).value == 0

    def test_constant_equality_by_type_and_value(self):
        assert const_int(5, I32) == const_int(5, I32)
        assert const_int(5, I32) != const_int(6, I32)
        assert hash(const_int(5, I32)) == hash(const_int(5, I32))

    def test_constants_are_interned(self):
        assert const_int(5, I32) is Constant(I32, 5) is Constant(I32, 2**32 + 5)
        assert const_int(5, I32) is not const_int(5, I64)
        assert Constant(F32, 0.5) is Constant(F32, 0.5)
        assert Constant(F32, 1.0) is not Constant(F64, 1.0)
        assert Constant(F64, float("nan")) is Constant(F64, float("nan"))

    def test_float_constants_keyed_by_bit_pattern(self):
        assert Constant(F32, 0.0) is not Constant(F32, -0.0)
        assert Constant(F32, 0.0) != Constant(F32, -0.0)
        assert Constant(F32, -0.0).ref() == "-0.0"

    def test_threads_interning_at_once_agree(self):
        # The job server builds IR on a dispatcher thread too: threads
        # racing to intern the same fresh literals must get one object.
        values = range(7_000_000, 7_002_000)
        seen = [None] * 8

        def intern(slot):
            seen[slot] = [Constant(I64, v) for v in values] + [
                Constant(F64, v + 0.5) for v in values]

        threads = [threading.Thread(target=intern, args=(slot,))
                   for slot in range(len(seen))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for literals in seen[1:]:
            assert all(a is b for a, b in zip(literals, seen[0]))
            assert len(literals) == len(seen[0])

    def test_literals_copy_as_themselves(self):
        for literal in (const_int(5, I32), Constant(F32, -0.0), Undef(I32)):
            assert copy.copy(literal) is literal
            assert copy.deepcopy([literal])[0] is literal

    def test_constant_rejects_bad_type(self):
        from repro.ir import pointer

        with pytest.raises(TypeError):
            Constant(pointer(I32), 0)


class TestUndef:
    def test_undef_equality(self):
        assert Undef(I32) is Undef(I32)
        assert Undef(I32) == Undef(I32)
        assert Undef(I32) != Undef(I1)
        assert Undef(I32) != const_int(0, I32)

    def test_undef_ref(self):
        assert Undef(I32).ref() == "undef"


class TestUseLists:
    # Literals keep no use list, so the tracked values are arguments.

    def test_use_registered_on_construction(self):
        a, b = args(2)
        instr = add(a, b)
        assert (instr, 0) in a.uses
        assert (instr, 1) in b.uses
        assert a.num_uses == 1

    def test_same_value_in_two_slots(self):
        (a,) = args(1)
        instr = add(a, a)
        assert a.num_uses == 2
        assert instr.operand(0) is a and instr.operand(1) is a

    def test_set_operand_moves_use(self):
        a, b, c = args(3)
        instr = add(a, b)
        instr.set_operand(0, c)
        assert a.num_uses == 0
        assert (instr, 0) in c.uses

    def test_replace_all_uses_with(self):
        a, b, c = args(3)
        i1 = add(a, b)
        i2 = add(a, a)
        a.replace_all_uses_with(c)
        assert a.num_uses == 0
        assert i1.operand(0) is c
        assert i2.operand(0) is c and i2.operand(1) is c

    def test_replace_all_uses_with_self_is_noop(self):
        a, b = args(2)
        instr = add(a, b)
        a.replace_all_uses_with(a)
        assert (instr, 0) in a.uses

    def test_drop_all_operands(self):
        a, b = args(2)
        instr = add(a, b)
        instr.drop_all_operands()
        assert a.num_uses == 0 and b.num_uses == 0
        assert instr.num_operands == 0

    def test_users_deduplicated(self):
        (a,) = args(1)
        instr = add(a, a)
        assert instr in a.users
        assert len(a.users) == 1

    def test_chained_rauw_through_select(self):
        cond = const_bool(True)
        a, b, c = args(3)
        sel = Select(cond, a, b)
        a.replace_all_uses_with(c)
        assert sel.true_value is c
        assert sel.false_value is b

    def test_literals_keep_no_uses(self):
        one, undef = const_int(1, I32), Undef(I32)
        instr = add(one, undef)
        instr.set_operand(0, undef)
        assert one.uses == undef.uses == [] and not undef.is_used
        undef.replace_all_uses_with(one)  # nothing to rewrite
        assert instr.operands == [undef, undef]

    def test_removing_a_phi_edge_next_to_literals(self):
        (a,) = args(1)
        left, mid, right = BasicBlock("l"), BasicBlock("m"), BasicBlock("r")
        phi = Phi(I32)
        for value, block in ((Undef(I32), left), (const_int(7, I32), mid),
                             (a, right)):
            phi.add_incoming(value, block)
        phi.remove_incoming(left)
        assert phi.incoming == [(const_int(7, I32), mid), (a, right)]
        assert a.uses == [(phi, 1)]
