"""The instruction-semantics table: what a pure instruction computes and
when it traps, spelled once.

Integer ops use two's-complement wraparound at the type's width; division
semantics are C-style (truncation toward zero); shifts of >= width,
division by zero and ``fptosi`` of NaN/±inf raise :class:`EvalError`
(LLVM poison/UB made loud).

:func:`eval_strict` is the value of a *strict* pure instruction (one
whose result is undefined as soon as any operand is) and
:func:`trap_operand` the operand its trap hangs on.  The reference warp
executor, constant folding, the unroller's trip-count evaluator and the
meld validator all evaluate through the first; ``is_speculatable`` and
the validator's trap recording read the second.  ``select`` (lazy in
its arms), ``getelementptr`` (memory model) and the thread-geometry
intrinsics (machine state) are not strict ops and stay with their
consumers.  :mod:`repro.simt.lowering` deliberately inlines the same
semantics into generated source: it is the independent second spelling
the fast/reference differential checks against this table.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Sequence

from .instructions import (
    BinaryOp,
    Call,
    Cast,
    FCmp,
    ICmp,
    Instruction,
    IntrinsicName,
    Opcode,
    UnaryOp,
)
from .types import FloatType, IntType, Type
from .values import Constant, Value


class EvalError(Exception):
    """Undefined-behaviour trap during scalar evaluation."""


def wrap(value: int, type_: IntType) -> int:
    """Wrap to the signed range of the integer type."""
    mask = (1 << type_.bits) - 1
    value &= mask
    if type_.bits > 1 and value >= (1 << (type_.bits - 1)):
        value -= 1 << type_.bits
    return value


def unsigned(value: int, type_: IntType) -> int:
    return value & ((1 << type_.bits) - 1)


def eval_binary(opcode: str, lhs, rhs, type_: Type):
    """Evaluate a binary opcode on Python scalars."""
    if isinstance(type_, FloatType):
        if opcode == Opcode.FADD:
            return lhs + rhs
        if opcode == Opcode.FSUB:
            return lhs - rhs
        if opcode == Opcode.FMUL:
            return lhs * rhs
        if opcode == Opcode.FDIV:
            if rhs == 0.0:
                if lhs == 0.0:
                    return float("nan")
                return float("inf") if lhs > 0 else float("-inf")
            return lhs / rhs
        raise EvalError(f"bad float opcode {opcode}")

    bits = type_.bits
    if opcode == Opcode.ADD:
        return wrap(lhs + rhs, type_)
    if opcode == Opcode.SUB:
        return wrap(lhs - rhs, type_)
    if opcode == Opcode.MUL:
        return wrap(lhs * rhs, type_)
    if opcode in (Opcode.SDIV, Opcode.SREM):
        if rhs == 0:
            raise EvalError("integer division by zero")
        quotient = abs(lhs) // abs(rhs)
        if (lhs < 0) != (rhs < 0):
            quotient = -quotient
        if opcode == Opcode.SDIV:
            return wrap(quotient, type_)
        return wrap(lhs - quotient * rhs, type_)
    if opcode in (Opcode.UDIV, Opcode.UREM):
        ul, ur = unsigned(lhs, type_), unsigned(rhs, type_)
        if ur == 0:
            raise EvalError("integer division by zero")
        return wrap(ul // ur if opcode == Opcode.UDIV else ul % ur, type_)
    if opcode == Opcode.AND:
        return wrap(lhs & rhs, type_)
    if opcode == Opcode.OR:
        return wrap(lhs | rhs, type_)
    if opcode == Opcode.XOR:
        return wrap(lhs ^ rhs, type_)
    if opcode in (Opcode.SHL, Opcode.LSHR, Opcode.ASHR):
        shift = unsigned(rhs, type_)
        if shift >= bits:
            raise EvalError(f"shift amount {shift} >= width {bits}")
        if opcode == Opcode.SHL:
            return wrap(lhs << shift, type_)
        if opcode == Opcode.LSHR:
            return wrap(unsigned(lhs, type_) >> shift, type_)
        return wrap(lhs >> shift, type_)
    raise EvalError(f"bad integer opcode {opcode}")


_SIGNED_ICMP: Dict[str, Callable[[int, int], bool]] = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "slt": lambda a, b: a < b,
    "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b,
    "sge": lambda a, b: a >= b,
}


def eval_icmp(predicate: str, lhs: int, rhs: int, type_: IntType) -> int:
    if predicate in _SIGNED_ICMP:
        return 1 if _SIGNED_ICMP[predicate](lhs, rhs) else 0
    ul, ur = unsigned(lhs, type_), unsigned(rhs, type_)
    result = {
        "ult": ul < ur,
        "ule": ul <= ur,
        "ugt": ul > ur,
        "uge": ul >= ur,
    }[predicate]
    return 1 if result else 0


def eval_fcmp(predicate: str, lhs: float, rhs: float) -> int:
    result = {
        "oeq": lhs == rhs,
        "one": lhs != rhs,
        "olt": lhs < rhs,
        "ole": lhs <= rhs,
        "ogt": lhs > rhs,
        "oge": lhs >= rhs,
    }[predicate]
    return 1 if result else 0


def eval_cast(opcode: str, value, from_type: Type, to_type: Type):
    if opcode == Opcode.ZEXT:
        return unsigned(value, from_type)
    if opcode == Opcode.SEXT:
        return value
    if opcode == Opcode.TRUNC:
        return wrap(value, to_type)
    if opcode == Opcode.SITOFP:
        return float(value)
    if opcode == Opcode.FPTOSI:
        if not math.isfinite(value):  # fdiv by zero yields nan/inf by design
            raise EvalError(f"fptosi of non-finite value {value!r}")
        return wrap(int(value), to_type)
    if opcode == Opcode.BITCAST:
        return value
    raise EvalError(f"bad cast {opcode}")


_MINMAX = {IntrinsicName.MIN: min, IntrinsicName.MAX: max}

#: instruction class -> value from the operands' values, in operand order
_STRICT: Dict[type, Callable] = {
    BinaryOp: lambda i, a, b: eval_binary(i.opcode, a, b, i.type),
    UnaryOp: lambda i, a: -a,
    ICmp: lambda i, a, b: eval_icmp(i.predicate, a, b, i.operand(0).type),
    FCmp: lambda i, a, b: eval_fcmp(i.predicate, a, b),
    Cast: lambda i, a: eval_cast(i.opcode, a, i.operand(0).type, i.type),
    Call: lambda i, a, b: _MINMAX[i.callee](a, b),
}


def is_strict(value: Value) -> bool:
    """Is ``value`` an instruction :func:`eval_strict` defines?"""
    kind = type(value)
    return kind in _STRICT and (kind is not Call or value.callee in _MINMAX)


def eval_strict(instr: Instruction, values: Sequence):
    """The value of strict pure ``instr`` given its operands' concrete
    (defined) values in operand order; :class:`EvalError` where it traps."""
    return _STRICT[type(instr)](instr, *values)


#: trap-capable opcode -> index of the operand whose value decides the trap
_DECIDER = {**dict.fromkeys((Opcode.SDIV, Opcode.UDIV, Opcode.SREM,
                             Opcode.UREM, Opcode.SHL, Opcode.LSHR,
                             Opcode.ASHR), 1),
            Opcode.FPTOSI: 0}


def _literal(operand: Value):
    return operand.value if isinstance(operand, Constant) else None


def trap_operand(instr: Instruction,
                 known: Callable[[Value], object] = _literal
                 ) -> Optional[Value]:
    """The operand whose run-time value decides whether ``instr`` traps,
    or ``None`` when it cannot: every op but div/rem/shift/``fptosi``,
    and those whose deciding operand is known to be safe (a nonzero
    divisor, an in-range shift amount, a finite float).

    ``known(operand)`` is the operand's value where it is statically
    known, else ``None`` — IR literals by default; the meld validator
    passes its symbolic environment."""
    index = _DECIDER.get(instr.opcode)
    if index is None:
        return None
    operand = instr.operand(index)
    value = known(operand)
    if value is None:
        return operand
    # The trap condition itself stays in eval_binary/eval_cast: ask them,
    # with a benign stand-in for the operand that never decides.
    values = [0] * instr.num_operands
    values[index] = value
    try:
        eval_strict(instr, values)
    except EvalError:
        return operand
    return None
