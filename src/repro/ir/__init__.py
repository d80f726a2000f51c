"""SSA intermediate representation.

This subpackage is a self-contained, LLVM-like SSA IR: types, values with
use lists, instructions, basic blocks, functions/modules, a builder, a
printer/parser pair, and a verifier.  It is the substrate on which the
CFM control-flow melding transformation (:mod:`repro.core`) operates.
"""

from .types import (
    Type,
    VoidType,
    LabelType,
    IntType,
    FloatType,
    PointerType,
    AddressSpace,
    VOID,
    LABEL,
    I1,
    I8,
    I32,
    I64,
    F32,
    F64,
    pointer,
)
from .values import Value, User, Constant, Undef, Argument, const_int, const_bool
from .instructions import (
    Opcode,
    IntrinsicName,
    Instruction,
    BinaryOp,
    UnaryOp,
    ICmp,
    FCmp,
    ICmpPredicate,
    FCmpPredicate,
    Select,
    Load,
    Store,
    GetElementPtr,
    Cast,
    Call,
    Phi,
    Branch,
    Ret,
)
from .block import BasicBlock
from .function import Function, Module, GlobalVariable, retire_memos
from .builder import IRBuilder
from .printer import print_function, print_module, format_instruction
from .parser import parse_function, parse_module
from .verifier import VerificationError, verify_function

__all__ = [
    "Type", "VoidType", "LabelType", "IntType", "FloatType", "PointerType",
    "AddressSpace", "VOID", "LABEL", "I1", "I8", "I32", "I64", "F32",
    "F64", "pointer",
    "Value", "User", "Constant", "Undef", "Argument", "const_int", "const_bool",
    "Opcode", "IntrinsicName", "Instruction", "BinaryOp", "UnaryOp", "ICmp",
    "FCmp", "ICmpPredicate", "FCmpPredicate", "Select", "Load", "Store",
    "GetElementPtr", "Cast", "Call", "Phi", "Branch", "Ret",
    "BasicBlock", "Function", "Module", "GlobalVariable", "retire_memos",
    "IRBuilder",
    "print_function", "print_module", "format_instruction",
    "parse_function", "parse_module",
    "VerificationError", "verify_function",
]
