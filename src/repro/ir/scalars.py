"""Scalar evaluation semantics shared by the simulator and constant folding.

Integer ops use two's-complement wraparound at the type's width; division
semantics are C-style (truncation toward zero); shifts of >= width,
division by zero and ``fptosi`` of NaN/±inf raise :class:`EvalError`
(LLVM poison/UB made loud).
"""

from __future__ import annotations

import math
from typing import Callable, Dict

from .instructions import Opcode
from .types import FloatType, IntType, Type


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
