"""Instruction set of the SSA IR.

The opcode inventory covers everything the paper's kernels and the CFM
transformation need: integer/float ALU ops, comparisons, ``select``,
memory operations with address spaces, ``getelementptr``, φ nodes,
branches, calls (used for GPU intrinsics such as ``tid`` and ``barrier``),
casts and ``ret``.

Instructions are :class:`~repro.ir.values.User` objects living inside a
:class:`~repro.ir.block.BasicBlock`.  CFG edges are owned by terminator
instructions; predecessor lists on blocks are maintained by the terminator
mutation methods here, so analyses can trust ``block.preds``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

from .types import (
    Type,
    IntType,
    FloatType,
    PointerType,
    VOID,
    I1,
)
from .values import User, Value

if TYPE_CHECKING:  # pragma: no cover
    from .block import BasicBlock


class Opcode:
    """String opcode constants, grouped by family."""

    # Integer arithmetic / bitwise.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    SDIV = "sdiv"
    UDIV = "udiv"
    SREM = "srem"
    UREM = "urem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    LSHR = "lshr"
    ASHR = "ashr"
    # Float arithmetic.
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FNEG = "fneg"
    # Comparisons.
    ICMP = "icmp"
    FCMP = "fcmp"
    # Data movement / selection.
    SELECT = "select"
    PHI = "phi"
    # Memory.
    LOAD = "load"
    STORE = "store"
    GEP = "getelementptr"
    # Control flow.
    BR = "br"
    RET = "ret"
    # Calls & intrinsics.
    CALL = "call"
    # Casts.
    ZEXT = "zext"
    SEXT = "sext"
    TRUNC = "trunc"
    SITOFP = "sitofp"
    FPTOSI = "fptosi"
    BITCAST = "bitcast"

    INT_BINARY = frozenset(
        {ADD, SUB, MUL, SDIV, UDIV, SREM, UREM, AND, OR, XOR, SHL, LSHR, ASHR}
    )
    FLOAT_BINARY = frozenset({FADD, FSUB, FMUL, FDIV})
    BINARY = INT_BINARY | FLOAT_BINARY
    CASTS = frozenset({ZEXT, SEXT, TRUNC, SITOFP, FPTOSI, BITCAST})
    TERMINATORS = frozenset({BR, RET})


class IntrinsicName:
    """Well-known intrinsic callee names understood by the simulator."""

    TID_X = "llvm.gpu.tid.x"        # threadIdx.x
    NTID_X = "llvm.gpu.ntid.x"      # blockDim.x
    CTAID_X = "llvm.gpu.ctaid.x"    # blockIdx.x
    NCTAID_X = "llvm.gpu.nctaid.x"  # gridDim.x
    BARRIER = "llvm.gpu.barrier"    # __syncthreads()
    MIN = "llvm.smin"
    MAX = "llvm.smax"

    ALL = frozenset({TID_X, NTID_X, CTAID_X, NCTAID_X, BARRIER, MIN, MAX})
    THREAD_ID_SOURCES = frozenset({TID_X})


class Instruction(User):
    """Base class for all instructions."""

    opcode: str = "<abstract>"

    def __init__(self, type_: Type, name: str = "") -> None:
        super().__init__(type_, name)
        self.parent: Optional["BasicBlock"] = None

    # ---- classification --------------------------------------------------

    @property
    def is_terminator(self) -> bool:
        return self.opcode in Opcode.TERMINATORS

    @property
    def may_read_memory(self) -> bool:
        return isinstance(self, Load)

    @property
    def may_write_memory(self) -> bool:
        return isinstance(self, Store)

    @property
    def has_side_effects(self) -> bool:
        """True if removing or speculating this instruction can change
        observable behaviour."""
        if isinstance(self, Store):
            return True
        if isinstance(self, Call):
            return not self.is_pure_intrinsic
        return self.is_terminator

    @property
    def is_speculatable(self) -> bool:
        """True if the instruction may run with a wider mask than its
        original path without changing behaviour (pure, non-trapping).

        Whether an op can trap is a *fact* read off the semantics table
        (:func:`repro.ir.scalars.trap_operand`): a shift by a
        non-constant or out-of-range amount and an ``fptosi`` may — LLVM
        calls that silent poison, this repository's simulator traps.
        That a division is never speculated, even by a nonzero constant,
        is *policy* (DESIGN.md §5 has the measurement behind it)."""
        if self.opcode in (Opcode.SDIV, Opcode.UDIV, Opcode.SREM, Opcode.UREM):
            return False
        if isinstance(self, (Load, Store, Phi, Branch, Ret)):
            return False
        if isinstance(self, Call):
            return self.is_pure_intrinsic
        return scalars.trap_operand(self) is None

    # ---- placement --------------------------------------------------------

    @property
    def function(self):
        return self.parent.parent if self.parent is not None else None

    def erase_from_parent(self) -> None:
        """Unlink from the containing block and drop all operands."""
        if self.is_used:
            raise RuntimeError(f"erasing {self!r} which still has uses")
        if isinstance(self, Branch):
            self._unlink_successors()
        if self.parent is not None:
            self.parent._remove_instruction(self)
            self.parent = None
        self.drop_all_operands()

    # ---- misc --------------------------------------------------------------

    def clone(self) -> "Instruction":
        """Create a detached copy referencing the same operand values."""
        raise NotImplementedError

    def operand_signature(self) -> Tuple:
        """A tuple identifying the *shape* of the instruction (opcode plus
        any immutable attributes such as comparison predicates).  Two
        instructions are candidates for melding only if their signatures
        match (§IV-C, `match` criteria of Rocha et al.)."""
        return (self.opcode, self.type, self.num_operands)

    def __repr__(self) -> str:
        from .printer import format_instruction

        return format_instruction(self)


class BinaryOp(Instruction):
    """Two-operand arithmetic/bitwise operation."""

    def __init__(self, opcode: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if opcode not in Opcode.BINARY:
            raise ValueError(f"not a binary opcode: {opcode}")
        if lhs.type is not rhs.type:
            raise TypeError(f"binary op operand types differ: {lhs.type!r} vs {rhs.type!r}")
        super().__init__(lhs.type, name)
        self.opcode = opcode
        self._append_operand(lhs)
        self._append_operand(rhs)

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)

    def clone(self) -> "BinaryOp":
        return BinaryOp(self.opcode, self.lhs, self.rhs, self.name)


class UnaryOp(Instruction):
    """One-operand operation (currently only ``fneg``)."""

    def __init__(self, opcode: str, value: Value, name: str = "") -> None:
        if opcode != Opcode.FNEG:
            raise ValueError(f"not a unary opcode: {opcode}")
        super().__init__(value.type, name)
        self.opcode = opcode
        self._append_operand(value)

    def clone(self) -> "UnaryOp":
        return UnaryOp(self.opcode, self.operand(0), self.name)


class ICmpPredicate:
    EQ = "eq"
    NE = "ne"
    SLT = "slt"
    SLE = "sle"
    SGT = "sgt"
    SGE = "sge"
    ULT = "ult"
    ULE = "ule"
    UGT = "ugt"
    UGE = "uge"

    ALL = frozenset({EQ, NE, SLT, SLE, SGT, SGE, ULT, ULE, UGT, UGE})


class FCmpPredicate:
    OEQ = "oeq"
    ONE = "one"
    OLT = "olt"
    OLE = "ole"
    OGT = "ogt"
    OGE = "oge"

    ALL = frozenset({OEQ, ONE, OLT, OLE, OGT, OGE})


class ICmp(Instruction):
    """Integer comparison producing an ``i1``."""

    opcode = Opcode.ICMP

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if predicate not in ICmpPredicate.ALL:
            raise ValueError(f"bad icmp predicate: {predicate}")
        if lhs.type is not rhs.type:
            raise TypeError(f"icmp operand types differ: {lhs.type!r} vs {rhs.type!r}")
        super().__init__(I1, name)
        self.predicate = predicate
        self._append_operand(lhs)
        self._append_operand(rhs)

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)

    def operand_signature(self) -> Tuple:
        return (self.opcode, self.predicate, self.lhs.type)

    def clone(self) -> "ICmp":
        return ICmp(self.predicate, self.lhs, self.rhs, self.name)


class FCmp(Instruction):
    """Float comparison producing an ``i1`` (ordered predicates only)."""

    opcode = Opcode.FCMP

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if predicate not in FCmpPredicate.ALL:
            raise ValueError(f"bad fcmp predicate: {predicate}")
        if lhs.type is not rhs.type:
            raise TypeError(f"fcmp operand types differ: {lhs.type!r} vs {rhs.type!r}")
        super().__init__(I1, name)
        self.predicate = predicate
        self._append_operand(lhs)
        self._append_operand(rhs)

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)

    def operand_signature(self) -> Tuple:
        return (self.opcode, self.predicate, self.lhs.type)

    def clone(self) -> "FCmp":
        return FCmp(self.predicate, self.lhs, self.rhs, self.name)


class Select(Instruction):
    """``select i1 %c, T %a, T %b`` — the workhorse of CFM's operand
    reconciliation (§IV-D)."""

    opcode = Opcode.SELECT

    def __init__(self, cond: Value, true_value: Value, false_value: Value, name: str = "") -> None:
        if cond.type is not I1:
            raise TypeError("select condition must be i1")
        if true_value.type is not false_value.type:
            raise TypeError(
                f"select arms have different types: {true_value.type!r} vs {false_value.type!r}"
            )
        super().__init__(true_value.type, name)
        self._append_operand(cond)
        self._append_operand(true_value)
        self._append_operand(false_value)

    @property
    def condition(self) -> Value:
        return self.operand(0)

    @property
    def true_value(self) -> Value:
        return self.operand(1)

    @property
    def false_value(self) -> Value:
        return self.operand(2)

    def clone(self) -> "Select":
        return Select(self.condition, self.true_value, self.false_value, self.name)


class Load(Instruction):
    """Memory load through a typed pointer."""

    opcode = Opcode.LOAD

    def __init__(self, ptr: Value, name: str = "") -> None:
        if not isinstance(ptr.type, PointerType):
            raise TypeError(f"load pointer operand must be a pointer, got {ptr.type!r}")
        super().__init__(ptr.type.pointee, name)
        self._append_operand(ptr)

    @property
    def pointer(self) -> Value:
        return self.operand(0)

    @property
    def address_space(self) -> int:
        return self.pointer.type.space

    def operand_signature(self) -> Tuple:
        return (self.opcode, self.type, self.address_space)

    def clone(self) -> "Load":
        return Load(self.pointer, self.name)


class Store(Instruction):
    """Memory store through a typed pointer.  Produces no value."""

    opcode = Opcode.STORE

    def __init__(self, value: Value, ptr: Value) -> None:
        if not isinstance(ptr.type, PointerType):
            raise TypeError(f"store pointer operand must be a pointer, got {ptr.type!r}")
        if ptr.type.pointee is not value.type:
            raise TypeError(
                f"store value type {value.type!r} does not match pointee {ptr.type.pointee!r}"
            )
        super().__init__(VOID)
        self._append_operand(value)
        self._append_operand(ptr)

    @property
    def value(self) -> Value:
        return self.operand(0)

    @property
    def pointer(self) -> Value:
        return self.operand(1)

    @property
    def address_space(self) -> int:
        return self.pointer.type.space

    def operand_signature(self) -> Tuple:
        return (self.opcode, self.value.type, self.address_space)

    def clone(self) -> "Store":
        return Store(self.value, self.pointer)


class GetElementPtr(Instruction):
    """Simplified ``getelementptr``: pointer plus an element index.

    ``result = base + index * sizeof(pointee)`` — enough for the flat
    arrays all the paper's kernels use.
    """

    opcode = Opcode.GEP

    def __init__(self, base: Value, index: Value, name: str = "") -> None:
        if not isinstance(base.type, PointerType):
            raise TypeError(f"gep base must be a pointer, got {base.type!r}")
        if not isinstance(index.type, IntType):
            raise TypeError(f"gep index must be an integer, got {index.type!r}")
        super().__init__(base.type, name)
        self._append_operand(base)
        self._append_operand(index)

    @property
    def base(self) -> Value:
        return self.operand(0)

    @property
    def index(self) -> Value:
        return self.operand(1)

    def operand_signature(self) -> Tuple:
        return (self.opcode, self.type)

    def clone(self) -> "GetElementPtr":
        return GetElementPtr(self.base, self.index, self.name)


class Cast(Instruction):
    """Width/representation conversions."""

    def __init__(self, opcode: str, value: Value, to_type: Type, name: str = "") -> None:
        if opcode not in Opcode.CASTS:
            raise ValueError(f"not a cast opcode: {opcode}")
        _check_cast(opcode, value.type, to_type)
        super().__init__(to_type, name)
        self.opcode = opcode
        self._append_operand(value)

    @property
    def value(self) -> Value:
        return self.operand(0)

    def operand_signature(self) -> Tuple:
        return (self.opcode, self.value.type, self.type)

    def clone(self) -> "Cast":
        return Cast(self.opcode, self.value, self.type, self.name)


def _check_cast(opcode: str, from_type: Type, to_type: Type) -> None:
    if opcode in (Opcode.ZEXT, Opcode.SEXT):
        ok = (
            isinstance(from_type, IntType)
            and isinstance(to_type, IntType)
            and to_type.bits > from_type.bits
        )
    elif opcode == Opcode.TRUNC:
        ok = (
            isinstance(from_type, IntType)
            and isinstance(to_type, IntType)
            and to_type.bits < from_type.bits
        )
    elif opcode == Opcode.SITOFP:
        ok = isinstance(from_type, IntType) and isinstance(to_type, FloatType)
    elif opcode == Opcode.FPTOSI:
        ok = isinstance(from_type, FloatType) and isinstance(to_type, IntType)
    else:  # bitcast: only pointer-to-pointer supported
        ok = isinstance(from_type, PointerType) and isinstance(to_type, PointerType)
    if not ok:
        raise TypeError(f"invalid {opcode} from {from_type!r} to {to_type!r}")


class Call(Instruction):
    """Call of a named callee.  Used for GPU intrinsics (thread id,
    barrier) — the simulator dispatches on the callee name."""

    opcode = Opcode.CALL

    def __init__(self, callee: str, args: Sequence[Value], return_type: Type, name: str = "") -> None:
        super().__init__(return_type, name)
        self.callee = callee
        for arg in args:
            self._append_operand(arg)

    @property
    def args(self) -> List[Value]:
        return self.operands

    @property
    def is_barrier(self) -> bool:
        return self.callee == IntrinsicName.BARRIER

    @property
    def is_pure_intrinsic(self) -> bool:
        """Pure intrinsics produce a value with no side effects."""
        return self.callee in IntrinsicName.ALL and not self.is_barrier

    def operand_signature(self) -> Tuple:
        return (self.opcode, self.callee, self.type, self.num_operands)

    def clone(self) -> "Call":
        return Call(self.callee, self.operands, self.type, self.name)


class Phi(Instruction):
    """SSA φ node.  Incoming values are operands; incoming blocks are kept
    in a parallel list and edited through the methods here."""

    opcode = Opcode.PHI

    def __init__(self, type_: Type, name: str = "") -> None:
        super().__init__(type_, name)
        self._incoming_blocks: List["BasicBlock"] = []

    @property
    def incoming(self) -> List[Tuple[Value, "BasicBlock"]]:
        return list(zip(self._operands, self._incoming_blocks))

    @property
    def incoming_blocks(self) -> List["BasicBlock"]:
        return list(self._incoming_blocks)

    @property
    def incoming_values(self) -> List[Value]:
        return self.operands

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        if value.type is not self.type:
            raise TypeError(
                f"phi incoming type {value.type!r} does not match phi type {self.type!r}"
            )
        self._append_operand(value)
        self._incoming_blocks.append(block)

    def incoming_for(self, block: "BasicBlock") -> Value:
        for value, pred in self.incoming:
            if pred is block:
                return value
        raise KeyError(f"no incoming value for block {block.name}")

    def set_incoming_for(self, block: "BasicBlock", value: Value) -> None:
        for i, pred in enumerate(self._incoming_blocks):
            if pred is block:
                self.set_operand(i, value)
                return
        raise KeyError(f"no incoming value for block {block.name}")

    def remove_incoming(self, block: "BasicBlock") -> Value:
        """Remove the incoming entry for ``block``; returns the old value."""
        for i, pred in enumerate(self._incoming_blocks):
            if pred is block:
                old = self.operand(i)
                self._remove_operand(i)
                del self._incoming_blocks[i]
                return old
        raise KeyError(f"no incoming value for block {block.name}")

    def replace_incoming_block(self, old: "BasicBlock", new: "BasicBlock") -> None:
        for i, pred in enumerate(self._incoming_blocks):
            if pred is old:
                self._incoming_blocks[i] = new

    def clone(self) -> "Phi":
        copy = Phi(self.type, self.name)
        for value, block in self.incoming:
            copy.add_incoming(value, block)
        return copy


class Branch(Instruction):
    """Conditional or unconditional branch.

    Successor edges are owned here; creating/erasing/redirecting a branch
    keeps the predecessor lists of the involved blocks up to date.
    """

    opcode = Opcode.BR

    def __init__(
        self,
        successors: Sequence["BasicBlock"],
        condition: Optional[Value] = None,
    ) -> None:
        super().__init__(VOID)
        if condition is None:
            if len(successors) != 1:
                raise ValueError("unconditional branch takes exactly one successor")
        else:
            if condition.type is not I1:
                raise TypeError("branch condition must be i1")
            if len(successors) != 2:
                raise ValueError("conditional branch takes exactly two successors")
            self._append_operand(condition)
        self._successors: List["BasicBlock"] = list(successors)
        self._linked = False

    @property
    def is_conditional(self) -> bool:
        return self.num_operands == 1

    @property
    def condition(self) -> Value:
        if not self.is_conditional:
            raise ValueError("unconditional branch has no condition")
        return self.operand(0)

    @property
    def successors(self) -> List["BasicBlock"]:
        return list(self._successors)

    @property
    def true_successor(self) -> "BasicBlock":
        return self._successors[0]

    @property
    def false_successor(self) -> "BasicBlock":
        if not self.is_conditional:
            raise ValueError("unconditional branch has a single successor")
        return self._successors[1]

    def set_successor(self, index: int, block: "BasicBlock") -> None:
        old = self._successors[index]
        if old is block:
            return
        self._successors[index] = block
        if self._linked:
            if old not in self._successors:
                old._preds.remove(self.parent)
            if self.parent not in block._preds:
                block._preds.append(self.parent)

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        for i, succ in enumerate(self._successors):
            if succ is old:
                self.set_successor(i, new)

    def _link_successors(self) -> None:
        assert not self._linked
        self._linked = True
        for succ in self._successors:
            if self.parent not in succ._preds:
                succ._preds.append(self.parent)

    def _unlink_successors(self) -> None:
        if not self._linked:
            return
        self._linked = False
        seen = []
        for succ in self._successors:
            if succ not in seen:
                seen.append(succ)
                if self.parent in succ._preds:
                    succ._preds.remove(self.parent)

    def clone(self) -> "Branch":
        cond = self.condition if self.is_conditional else None
        return Branch(self._successors, cond)

    def operand_signature(self) -> Tuple:
        return (self.opcode, self.is_conditional)


class Ret(Instruction):
    """Function return; kernels return void."""

    opcode = Opcode.RET

    def __init__(self, value: Optional[Value] = None) -> None:
        super().__init__(VOID)
        if value is not None:
            self._append_operand(value)

    @property
    def value(self) -> Optional[Value]:
        return self.operand(0) if self.num_operands else None

    def clone(self) -> "Ret":
        return Ret(self.value)

    def operand_signature(self) -> Tuple:
        return (self.opcode, self.num_operands)


# At the bottom because the semantics table names the classes above.
from . import scalars  # noqa: E402
