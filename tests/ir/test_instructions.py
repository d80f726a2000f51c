"""Tests for the instruction classes: typing rules, CFG edge ownership,
cloning, and the melding-relevant classification flags."""

import pytest

from repro.ir import (
    AddressSpace,
    BasicBlock,
    BinaryOp,
    Branch,
    Call,
    Cast,
    F32,
    FCmp,
    Function,
    GetElementPtr,
    I1,
    I32,
    I64,
    ICmp,
    ICmpPredicate,
    IntrinsicName,
    IRBuilder,
    Load,
    Opcode,
    Phi,
    Ret,
    Select,
    Store,
    const_bool,
    const_int,
    pointer,
)


def c(v, t=I32):
    return const_int(v, t)


class TestTypingRules:
    def test_binop_requires_matching_types(self):
        with pytest.raises(TypeError):
            BinaryOp(Opcode.ADD, c(1, I32), c(1, I64))

    def test_binop_rejects_non_binary_opcode(self):
        with pytest.raises(ValueError):
            BinaryOp(Opcode.ICMP, c(1), c(2))

    def test_icmp_produces_i1(self):
        cmp = ICmp(ICmpPredicate.SLT, c(1), c(2))
        assert cmp.type is I1

    def test_icmp_rejects_bad_predicate(self):
        with pytest.raises(ValueError):
            ICmp("weird", c(1), c(2))

    def test_fcmp_rejects_int_predicate(self):
        from repro.ir import Constant

        with pytest.raises(ValueError):
            FCmp("slt", Constant(F32, 1.0), Constant(F32, 2.0))

    def test_select_requires_i1_condition(self):
        with pytest.raises(TypeError):
            Select(c(1, I32), c(1), c(2))

    def test_select_requires_matching_arms(self):
        with pytest.raises(TypeError):
            Select(const_bool(True), c(1, I32), c(1, I64))

    def test_load_requires_pointer(self):
        with pytest.raises(TypeError):
            Load(c(1))

    def test_store_requires_matching_pointee(self):
        from repro.ir import Undef

        ptr = Undef(pointer(I32, AddressSpace.GLOBAL))
        with pytest.raises(TypeError):
            Store(c(1, I64), ptr)

    def test_gep_result_type_matches_base(self):
        from repro.ir import Undef

        ptr = Undef(pointer(I32, AddressSpace.SHARED))
        gep = GetElementPtr(ptr, c(4))
        assert gep.type is pointer(I32, AddressSpace.SHARED)

    def test_casts_validate_widths(self):
        Cast(Opcode.ZEXT, c(1, I32), I64)
        with pytest.raises(TypeError):
            Cast(Opcode.ZEXT, c(1, I64), I32)
        with pytest.raises(TypeError):
            Cast(Opcode.TRUNC, c(1, I32), I64)


class TestClassification:
    def test_store_has_side_effects(self):
        from repro.ir import Undef

        ptr = Undef(pointer(I32, AddressSpace.GLOBAL))
        assert Store(c(1), ptr).has_side_effects
        assert not Store(c(1), ptr).is_speculatable

    def test_load_reads_memory_not_speculatable(self):
        from repro.ir import Undef

        ptr = Undef(pointer(I32, AddressSpace.GLOBAL))
        load = Load(ptr)
        assert load.may_read_memory
        assert not load.has_side_effects
        assert not load.is_speculatable

    def test_division_not_speculatable(self):
        assert not BinaryOp(Opcode.SDIV, c(1), c(2)).is_speculatable
        assert not BinaryOp(Opcode.UREM, c(1), c(2)).is_speculatable

    def test_division_by_a_nonzero_constant_is_policy_not_speculatable(self):
        x = Function("f", [I32], ["x"]).args[0]
        assert not BinaryOp(Opcode.SDIV, x, c(2)).is_speculatable

    def test_what_may_trap_is_not_speculatable(self):
        x, y = Function("f", [F32, I32], ["x", "y"]).args
        assert not Cast(Opcode.FPTOSI, x, I32).is_speculatable
        for opcode in (Opcode.SHL, Opcode.LSHR, Opcode.ASHR):
            assert not BinaryOp(opcode, y, c(32)).is_speculatable
            assert not BinaryOp(opcode, y, c(40)).is_speculatable
            assert not BinaryOp(opcode, y, c(-1)).is_speculatable
            assert not BinaryOp(opcode, y, y).is_speculatable

    def test_what_cannot_trap_still_is(self):
        x, y = Function("f", [F32, I32], ["x", "y"]).args
        assert Cast(Opcode.SITOFP, y, F32).is_speculatable
        assert Cast(Opcode.ZEXT, y, I64).is_speculatable
        assert Cast(Opcode.TRUNC, y, I1).is_speculatable
        assert BinaryOp(Opcode.FDIV, x, x).is_speculatable
        for opcode in (Opcode.SHL, Opcode.LSHR, Opcode.ASHR):
            assert BinaryOp(opcode, y, c(0)).is_speculatable
            assert BinaryOp(opcode, y, c(31)).is_speculatable

    def test_alu_is_speculatable(self):
        assert BinaryOp(Opcode.ADD, c(1), c(2)).is_speculatable
        assert ICmp(ICmpPredicate.EQ, c(1), c(2)).is_speculatable
        assert Select(const_bool(True), c(1), c(2)).is_speculatable

    def test_barrier_has_side_effects(self):
        from repro.ir import VOID

        barrier = Call(IntrinsicName.BARRIER, [], VOID)
        assert barrier.is_barrier
        assert barrier.has_side_effects
        assert not barrier.is_pure_intrinsic

    def test_tid_is_pure(self):
        tid = Call(IntrinsicName.TID_X, [], I32)
        assert tid.is_pure_intrinsic
        assert tid.is_speculatable


class TestOperandSignatures:
    """Signatures gate CFM's `match` criteria: only same-shaped
    instructions may meld."""

    def test_same_opcode_same_signature(self):
        a = BinaryOp(Opcode.ADD, c(1), c(2))
        b = BinaryOp(Opcode.ADD, c(3), c(4))
        assert a.operand_signature() == b.operand_signature()

    def test_predicate_distinguishes_compares(self):
        lt = ICmp(ICmpPredicate.SLT, c(1), c(2))
        gt = ICmp(ICmpPredicate.SGT, c(1), c(2))
        assert lt.operand_signature() != gt.operand_signature()

    def test_address_space_distinguishes_loads(self):
        from repro.ir import Undef

        g = Load(Undef(pointer(I32, AddressSpace.GLOBAL)))
        s = Load(Undef(pointer(I32, AddressSpace.SHARED)))
        assert g.operand_signature() != s.operand_signature()

    def test_load_never_matches_store(self):
        from repro.ir import Undef

        ptr = Undef(pointer(I32, AddressSpace.GLOBAL))
        assert Load(ptr).operand_signature() != Store(c(1), ptr).operand_signature()


class TestBranchEdges:
    def make_blocks(self):
        f = Function("f", [], [])
        return f, f.add_block("a"), f.add_block("b"), f.add_block("c")

    def test_append_links_preds(self):
        f, a, b, _ = self.make_blocks()
        a.append(Branch([b]))
        assert a in b.preds

    def test_cond_branch_links_both(self):
        f, a, b, cblk = self.make_blocks()
        a.append(Branch([b, cblk], const_bool(True)))
        assert a in b.preds and a in cblk.preds

    def test_erase_unlinks(self):
        f, a, b, _ = self.make_blocks()
        br = a.append(Branch([b]))
        br.erase_from_parent()
        assert a not in b.preds
        assert a.terminator is None

    def test_set_successor_relinks(self):
        f, a, b, cblk = self.make_blocks()
        br = a.append(Branch([b]))
        br.set_successor(0, cblk)
        assert a not in b.preds
        assert a in cblk.preds

    def test_replace_successor_both_edges(self):
        f, a, b, cblk = self.make_blocks()
        br = a.append(Branch([b, b], const_bool(True)))
        br.replace_successor(b, cblk)
        assert br.successors == [cblk, cblk]
        assert a not in b.preds and a in cblk.preds

    def test_unconditional_takes_one_successor(self):
        _, a, b, cblk = self.make_blocks()
        with pytest.raises(ValueError):
            Branch([b, cblk])

    def test_conditional_requires_i1(self):
        _, a, b, cblk = self.make_blocks()
        with pytest.raises(TypeError):
            Branch([b, cblk], c(1))


class TestPhi:
    def test_add_and_query_incoming(self):
        f = Function("f", [], [])
        a, b = f.add_block("a"), f.add_block("b")
        phi = Phi(I32)
        phi.add_incoming(c(1), a)
        phi.add_incoming(c(2), b)
        assert phi.incoming_for(a).value == 1
        assert phi.incoming_for(b).value == 2

    def test_remove_incoming_shifts_uses(self):
        f = Function("f", [], [])
        a, b = f.add_block("a"), f.add_block("b")
        v1, v2 = BinaryOp(Opcode.ADD, c(1), c(2)), BinaryOp(Opcode.ADD, c(3), c(4))
        phi = Phi(I32)
        phi.add_incoming(v1, a)
        phi.add_incoming(v2, b)
        phi.remove_incoming(a)
        assert phi.incoming == [(v2, b)]
        assert (phi, 0) in v2.uses
        assert v1.num_uses == 0

    def test_set_incoming_for(self):
        f = Function("f", [], [])
        a = f.add_block("a")
        phi = Phi(I32)
        phi.add_incoming(c(1), a)
        phi.set_incoming_for(a, c(9))
        assert phi.incoming_for(a).value == 9

    def test_type_mismatch_rejected(self):
        f = Function("f", [], [])
        a = f.add_block("a")
        phi = Phi(I32)
        with pytest.raises(TypeError):
            phi.add_incoming(c(1, I64), a)

    def test_replace_incoming_block(self):
        f = Function("f", [], [])
        a, b = f.add_block("a"), f.add_block("b")
        phi = Phi(I32)
        phi.add_incoming(c(1), a)
        phi.replace_incoming_block(a, b)
        assert phi.incoming_blocks == [b]


class TestCloning:
    def test_clone_shares_operands_not_identity(self):
        a = BinaryOp(Opcode.ADD, c(1), c(2), "x")
        copy = a.clone()
        assert copy is not a
        assert copy.opcode == a.opcode
        assert copy.operand(0) is a.operand(0)

    def test_clone_registers_uses(self):
        lhs = BinaryOp(Opcode.ADD, c(1), c(2))
        a = BinaryOp(Opcode.MUL, lhs, c(3))
        copy = a.clone()
        assert (copy, 0) in lhs.uses

    def test_clone_phi(self):
        f = Function("f", [], [])
        blk = f.add_block("a")
        phi = Phi(I32, "p")
        phi.add_incoming(c(1), blk)
        copy = phi.clone()
        assert copy.incoming == [(phi.incoming_values[0], blk)]

    def test_clone_branch(self):
        f = Function("f", [], [])
        a, b, d = f.add_block("a"), f.add_block("b"), f.add_block("d")
        br = Branch([b, d], const_bool(True))
        copy = br.clone()
        assert copy.successors == [b, d]
        assert copy.is_conditional


class TestErase:
    def test_erase_with_uses_raises(self):
        f = Function("f", [], [])
        blk = f.add_block("a")
        builder = IRBuilder(blk)
        v = builder.add(c(1), c(2))
        builder.add(v, c(3))
        with pytest.raises(RuntimeError):
            v.erase_from_parent()

    def test_erase_removes_from_block(self):
        f = Function("f", [], [])
        blk = f.add_block("a")
        builder = IRBuilder(blk)
        v = builder.add(c(1), c(2))
        v.erase_from_parent()
        assert len(blk) == 0
        assert v.parent is None
