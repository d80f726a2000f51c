"""LLVM-style textual printer for modules, functions and instructions.

The printed form round-trips through :mod:`repro.ir.parser`, which the
tests rely on.  Example output::

    define void @kernel(i32 addrspace(1)* %data, i32 %n) {
    entry:
      %tid = call i32 @llvm.gpu.tid.x()
      %cmp = icmp slt i32 %tid, %n
      br i1 %cmp, label %then, label %merge
    ...
"""

from __future__ import annotations

from typing import List

from .values import Constant, Undef, Value
from .block import BasicBlock
from .function import Function, GlobalVariable, Module
from .instructions import (
    BinaryOp,
    Branch,
    Call,
    Cast,
    FCmp,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    UnaryOp,
)


def _value_ref(value: Value) -> str:
    """Typed reference to a value as an operand, e.g. ``i32 %x``."""
    if value is None:
        return _name_ref(value)
    return f"{value.type!r} {_name_ref(value)}"


def _name_ref(value: Value) -> str:
    if value is None:  # only malformed IR: the verifier names it
        return "<missing>"
    if isinstance(value, Undef):
        return "undef"
    if isinstance(value, Constant):
        return repr(value.value) if isinstance(value.value, float) else str(value.value)
    if isinstance(value, GlobalVariable):
        return f"@{value.name}"
    if isinstance(value, BasicBlock):
        return f"%{value.name}"
    return f"%{value.name}" if value.name else "%<anon>"


def format_instruction(instr: Instruction) -> str:
    """Render one instruction, without indentation."""
    lhs = f"%{instr.name} = " if not instr.type.is_void and instr.name else (
        "" if instr.type.is_void else "%<anon> = "
    )
    if isinstance(instr, BinaryOp):
        return f"{lhs}{instr.opcode} {instr.type!r} {_name_ref(instr.lhs)}, {_name_ref(instr.rhs)}"
    if isinstance(instr, UnaryOp):
        return f"{lhs}{instr.opcode} {instr.type!r} {_name_ref(instr.operand(0))}"
    if isinstance(instr, ICmp):
        return (
            f"{lhs}icmp {instr.predicate} {_value_ref(instr.lhs)}, "
            f"{_name_ref(instr.rhs)}"
        )
    if isinstance(instr, FCmp):
        return (
            f"{lhs}fcmp {instr.predicate} {_value_ref(instr.lhs)}, "
            f"{_name_ref(instr.rhs)}"
        )
    if isinstance(instr, Select):
        return (
            f"{lhs}select i1 {_name_ref(instr.condition)}, "
            f"{_value_ref(instr.true_value)}, {_value_ref(instr.false_value)}"
        )
    if isinstance(instr, Load):
        return f"{lhs}load {instr.type!r}, {_value_ref(instr.pointer)}"
    if isinstance(instr, Store):
        return f"store {_value_ref(instr.value)}, {_value_ref(instr.pointer)}"
    if isinstance(instr, GetElementPtr):
        return (
            f"{lhs}getelementptr {instr.type.pointee!r}, "
            f"{_value_ref(instr.base)}, {_value_ref(instr.index)}"
        )
    if isinstance(instr, Cast):
        return f"{lhs}{instr.opcode} {_value_ref(instr.value)} to {instr.type!r}"
    if isinstance(instr, Call):
        args = ", ".join(_value_ref(a) for a in instr.args)
        return f"{lhs}call {instr.type!r} @{instr.callee}({args})"
    if isinstance(instr, Phi):
        pairs = ", ".join(
            f"[ {_name_ref(v)}, %{b.name} ]" for v, b in instr.incoming
        )
        return f"{lhs}phi {instr.type!r} {pairs}"
    if isinstance(instr, Branch):
        if instr.is_conditional:
            return (
                f"br i1 {_name_ref(instr.condition)}, "
                f"label %{instr.true_successor.name}, label %{instr.false_successor.name}"
            )
        return f"br label %{instr.true_successor.name}"
    if isinstance(instr, Ret):
        if instr.value is None:
            return "ret void"
        return f"ret {_value_ref(instr.value)}"
    return f"{lhs}<unknown {type(instr).__name__}>"


def print_function(function: Function) -> str:
    function.assign_names()
    args = ", ".join(f"{a.type!r} %{a.name}" for a in function.args)
    lines: List[str] = [f"define void @{function.name}({args}) {{"]
    for block in function.blocks:
        # Sorted so the comment (and thus whole-function printing) is
        # deterministic regardless of edge-creation order.
        preds = ", ".join(f"%{p.name}" for p in sorted(block.preds,
                                                       key=lambda b: b.name))
        suffix = f"  ; preds = {preds}" if preds else ""
        lines.append(f"{block.name}:{suffix}")
        for instr in block:
            lines.append(f"  {format_instruction(instr)}")
    lines.append("}")
    return "\n".join(lines)


def print_module(module: Module) -> str:
    lines: List[str] = [f"; module {module.name}"]
    for var in module.globals.values():
        kind = "shared" if var.is_shared else "global"
        lines.append(
            f"@{var.name} = {kind} [{var.element_count} x {var.type.pointee!r}]"
        )
    for function in module.functions.values():
        lines.append("")
        lines.append(print_function(function))
    return "\n".join(lines)
