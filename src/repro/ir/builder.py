"""Low-level IR construction helper.

:class:`IRBuilder` appends instructions to a current insertion block, in
the style of ``llvm::IRBuilder``.  The structured kernel DSL
(:mod:`repro.kernels.dsl`) sits on top of this and adds control flow with
automatic φ placement.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .types import Type, I32, VOID
from .values import Constant, Undef, Value
from .block import BasicBlock
from .function import Function
from .instructions import (
    BinaryOp,
    Branch,
    Call,
    Cast,
    FCmp,
    GetElementPtr,
    ICmp,
    Instruction,
    IntrinsicName,
    Load,
    Opcode,
    Phi,
    Ret,
    Select,
    Store,
    UnaryOp,
)


class IRBuilder:
    """Appends instructions at the end of a designated basic block."""

    def __init__(self, block: Optional[BasicBlock] = None) -> None:
        self.block = block

    def position_at_end(self, block: BasicBlock) -> None:
        self.block = block

    @property
    def function(self) -> Function:
        return self.block.parent

    def _insert(self, instr: Instruction) -> Instruction:
        if self.block is None:
            raise RuntimeError("builder has no insertion block")
        return self.block.append(instr)

    # ---- constants -----------------------------------------------------------

    def const(self, value, type_: Type = I32) -> Constant:
        return Constant(type_, value)

    def undef(self, type_: Type) -> Undef:
        return Undef(type_)

    # ---- arithmetic ------------------------------------------------------------

    def binop(self, opcode: str, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self._insert(BinaryOp(opcode, lhs, rhs, name))

    def add(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop(Opcode.ADD, lhs, rhs, name)

    def sub(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop(Opcode.SUB, lhs, rhs, name)

    def mul(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop(Opcode.MUL, lhs, rhs, name)

    def sdiv(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop(Opcode.SDIV, lhs, rhs, name)

    def udiv(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop(Opcode.UDIV, lhs, rhs, name)

    def srem(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop(Opcode.SREM, lhs, rhs, name)

    def urem(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop(Opcode.UREM, lhs, rhs, name)

    def and_(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop(Opcode.AND, lhs, rhs, name)

    def or_(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop(Opcode.OR, lhs, rhs, name)

    def xor(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop(Opcode.XOR, lhs, rhs, name)

    def shl(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop(Opcode.SHL, lhs, rhs, name)

    def lshr(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop(Opcode.LSHR, lhs, rhs, name)

    def ashr(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop(Opcode.ASHR, lhs, rhs, name)

    def fadd(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop(Opcode.FADD, lhs, rhs, name)

    def fsub(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop(Opcode.FSUB, lhs, rhs, name)

    def fmul(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop(Opcode.FMUL, lhs, rhs, name)

    def fdiv(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self.binop(Opcode.FDIV, lhs, rhs, name)

    def fneg(self, value: Value, name: str = "") -> UnaryOp:
        return self._insert(UnaryOp(Opcode.FNEG, value, name))

    # ---- comparisons -----------------------------------------------------------

    def icmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> ICmp:
        return self._insert(ICmp(predicate, lhs, rhs, name))

    def fcmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> FCmp:
        return self._insert(FCmp(predicate, lhs, rhs, name))

    # ---- data movement -----------------------------------------------------------

    def select(self, cond: Value, true_value: Value, false_value: Value, name: str = "") -> Select:
        return self._insert(Select(cond, true_value, false_value, name))

    def phi(self, type_: Type, name: str = "") -> Phi:
        """φ nodes are inserted at the start of the block."""
        node = Phi(type_, name)
        self.block.insert_after_phis(node)
        return node

    # ---- memory --------------------------------------------------------------------

    def load(self, ptr: Value, name: str = "") -> Load:
        return self._insert(Load(ptr, name))

    def store(self, value: Value, ptr: Value) -> Store:
        return self._insert(Store(value, ptr))

    def gep(self, base: Value, index: Value, name: str = "") -> GetElementPtr:
        return self._insert(GetElementPtr(base, index, name))

    # ---- casts ----------------------------------------------------------------------

    def cast(self, opcode: str, value: Value, to_type: Type, name: str = "") -> Cast:
        return self._insert(Cast(opcode, value, to_type, name))

    def zext(self, value: Value, to_type: Type, name: str = "") -> Cast:
        return self.cast(Opcode.ZEXT, value, to_type, name)

    def sext(self, value: Value, to_type: Type, name: str = "") -> Cast:
        return self.cast(Opcode.SEXT, value, to_type, name)

    def trunc(self, value: Value, to_type: Type, name: str = "") -> Cast:
        return self.cast(Opcode.TRUNC, value, to_type, name)

    # ---- control flow --------------------------------------------------------------

    def br(self, dest: BasicBlock) -> Branch:
        return self._insert(Branch([dest]))

    def cond_br(self, cond: Value, true_dest: BasicBlock, false_dest: BasicBlock) -> Branch:
        return self._insert(Branch([true_dest, false_dest], cond))

    def ret(self, value: Optional[Value] = None) -> Ret:
        return self._insert(Ret(value))

    # ---- calls & intrinsics ---------------------------------------------------------

    def call(self, callee: str, args: Sequence[Value], return_type: Type, name: str = "") -> Call:
        return self._insert(Call(callee, args, return_type, name))

    def thread_id(self, name: str = "tid") -> Call:
        return self.call(IntrinsicName.TID_X, [], I32, name)

    def block_dim(self, name: str = "ntid") -> Call:
        return self.call(IntrinsicName.NTID_X, [], I32, name)

    def block_id(self, name: str = "ctaid") -> Call:
        return self.call(IntrinsicName.CTAID_X, [], I32, name)

    def grid_dim(self, name: str = "nctaid") -> Call:
        return self.call(IntrinsicName.NCTAID_X, [], I32, name)

    def barrier(self) -> Call:
        return self.call(IntrinsicName.BARRIER, [], VOID)

    def smin(self, lhs: Value, rhs: Value, name: str = "") -> Call:
        return self.call(IntrinsicName.MIN, [lhs, rhs], lhs.type, name)

    def smax(self, lhs: Value, rhs: Value, name: str = "") -> Call:
        return self.call(IntrinsicName.MAX, [lhs, rhs], lhs.type, name)
