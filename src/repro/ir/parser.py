"""Parser for the textual IR emitted by :mod:`repro.ir.printer`.

The parser accepts the exact grammar the printer produces (an LLVM-flavoured
subset) and reconstructs a :class:`~repro.ir.function.Module`.  It exists so
tests can express CFGs compactly and so printed IR round-trips:

    parse_module(print_module(m))  ==  m   (structurally)

Forward references (loop φs, branch targets) are resolved with placeholder
values that are patched once the whole function has been read.
"""

from __future__ import annotations

import re
from functools import lru_cache, partial
from typing import Dict, List, Optional, Tuple

from .types import (
    AddressSpace,
    FloatType,
    IntType,
    PointerType,
    Type,
    VOID,
    F32,
    F64,
    I1,
)
from .values import Constant, Undef, Value
from .block import BasicBlock
from .builder import IRBuilder
from .function import Function, GlobalVariable, Module
from .instructions import Opcode


class ParseError(Exception):
    """Raised on malformed textual IR, with a line number."""

    def __init__(self, message: str, line_no: int, line: str) -> None:
        super().__init__(f"line {line_no}: {message}: {line.strip()!r}")
        self.line_no = line_no


class _ForwardRef(Value):
    """Placeholder for a not-yet-defined SSA name."""

    def __init__(self, type_: Type, name: str) -> None:
        super().__init__(type_, name)


_TYPE_RE = re.compile(
    r"(?P<base>i\d+|float|double)"
    r"(?P<ptr>(?:\s+addrspace\(\d+\))?\*)?"
)
_GLOBAL_RE = re.compile(
    r"@(?P<name>[\w.]+)\s*=\s*(?P<kind>shared|global)\s*"
    r"\[(?P<count>\d+)\s*x\s*(?P<elem>i\d+|float|double)\]"
)
_DEFINE_RE = re.compile(r"define\s+void\s+@(?P<name>[\w.]+)\((?P<args>.*)\)\s*\{")
_LABEL_RE = re.compile(r"(?P<name>[\w.\-]+):(?:\s*;.*)?$")
_ADDRSPACE_RE = re.compile(r"addrspace\((\d+)\)")
_ASSIGN_RE = re.compile(r"%(?P<name>[\w.\-]+)\s*=\s*(?P<body>.*)")
_CALL_RE = re.compile(r"(?P<type>.+?)\s+@(?P<callee>[\w.]+)\((?P<args>.*)\)")
_INCOMING_RE = re.compile(r"\[\s*(?P<val>[^,\]]+),\s*%(?P<block>[\w.\-]+)\s*\]")
_BR_LABEL_RE = re.compile(r"label\s+%([\w.\-]+)")
_MODULE_NAME_RE = re.compile(r";\s*module\s+(\S+)\s*$")


@lru_cache(maxsize=256)  # exact: types are interned (ir/types.py)
def _parse_type(text: str) -> Type:
    text = text.strip()
    match = _TYPE_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"cannot parse type {text!r}")
    base = match.group("base")
    if base == "float":
        base_type: Type = F32
    elif base == "double":
        base_type = F64
    else:
        base_type = IntType(int(base[1:]))
    ptr = match.group("ptr")
    if ptr:
        space_match = _ADDRSPACE_RE.search(ptr)
        space = int(space_match.group(1)) if space_match else AddressSpace.FLAT
        return PointerType(base_type, space)
    return base_type


class _FunctionParser:
    """Parses one ``define ... { ... }`` body."""

    def __init__(self, module: Module, function: Function) -> None:
        self.module = module
        self.function = function
        self.values: Dict[str, Value] = {f"%{a.name}": a for a in function.args}
        self.blocks: Dict[str, BasicBlock] = {}
        self.forwards: Dict[Tuple[str, Type], _ForwardRef] = {}
        self.builder = IRBuilder()

    # ---- operand handling ------------------------------------------------

    def block_ref(self, name: str) -> BasicBlock:
        if name not in self.blocks:
            block = self.function.add_block(name)
            if block.name != name:  # name uniquing must not rename labels
                raise ValueError(f"duplicate block label %{name}")
            self.blocks[name] = block
        return self.blocks[name]

    def operand(self, text: str, type_: Type) -> Value:
        text = text.strip()
        if text == "undef":
            return Undef(type_)
        if text.startswith("%"):
            value = self.values.get(text)
            if value is not None:
                return value
            key = (text, type_)
            if key not in self.forwards:
                self.forwards[key] = _ForwardRef(type_, text[1:])
            return self.forwards[key]
        if text.startswith("@"):
            var = self.module.globals.get(text[1:])
            if var is None:
                raise ValueError(f"unknown global {text}")
            return var
        # Constant literal.
        if isinstance(type_, FloatType):
            return Constant(type_, float(text))
        if isinstance(type_, IntType):
            return Constant(type_, int(text))
        raise ValueError(f"cannot parse operand {text!r} of type {type_!r}")

    def typed_operand(self, text: str) -> Value:
        """Parse ``<type> <ref>``."""
        text = text.strip()
        parts = text.rsplit(None, 1)
        if len(parts) != 2:
            raise ValueError(f"expected typed operand, got {text!r}")
        return self.operand(parts[1], _parse_type(parts[0]))

    def define(self, name: Optional[str], value: Value) -> None:
        if name is None:
            return
        key = f"%{name}"
        if key in self.values:
            raise ValueError(f"redefinition of {key}")
        value.name = name
        self.values[key] = value

    def resolve_forwards(self) -> None:
        for (ref, _type), placeholder in self.forwards.items():
            real = self.values.get(ref)
            if real is None:
                raise ValueError(f"undefined value {ref}")
            placeholder.replace_all_uses_with(real)

    # ---- instruction parsing ----------------------------------------------

    def parse_instruction(self, line: str) -> None:
        line = line.split(";")[0].strip()
        name: Optional[str] = None
        body = line
        assign = _ASSIGN_RE.match(line)
        if assign:
            name = assign.group("name")
            body = assign.group("body")

        opcode = body.split(None, 1)[0]
        rest = body[len(opcode):].strip()

        if opcode in Opcode.BINARY:
            type_, lhs, rhs = self._split_type_two(rest)
            self.define(name, self.builder.binop(opcode, self.operand(lhs, type_),
                                                 self.operand(rhs, type_)))
        elif opcode == Opcode.FNEG:
            parts = rest.split(None, 1)
            type_ = _parse_type(parts[0])
            self.define(name, self.builder.fneg(self.operand(parts[1], type_)))
        elif opcode == Opcode.ICMP:
            pred, tail = rest.split(None, 1)
            type_, lhs, rhs = self._split_type_two(tail)
            self.define(name, self.builder.icmp(pred, self.operand(lhs, type_),
                                                self.operand(rhs, type_)))
        elif opcode == Opcode.FCMP:
            pred, tail = rest.split(None, 1)
            type_, lhs, rhs = self._split_type_two(tail)
            self.define(name, self.builder.fcmp(pred, self.operand(lhs, type_),
                                                self.operand(rhs, type_)))
        elif opcode == Opcode.SELECT:
            cond_text, true_text, false_text = self._split_commas(rest, 3)
            cond = self.operand(cond_text.split()[-1], I1)
            self.define(name, self.builder.select(
                cond, self.typed_operand(true_text), self.typed_operand(false_text)))
        elif opcode == Opcode.LOAD:
            _result_type, ptr_text = self._split_commas(rest, 2)
            self.define(name, self.builder.load(self.typed_operand(ptr_text)))
        elif opcode == Opcode.STORE:
            value_text, ptr_text = self._split_commas(rest, 2)
            self.builder.store(self.typed_operand(value_text), self.typed_operand(ptr_text))
        elif opcode == Opcode.GEP:
            _pointee, base_text, index_text = self._split_commas(rest, 3)
            self.define(name, self.builder.gep(self.typed_operand(base_text),
                                               self.typed_operand(index_text)))
        elif opcode in Opcode.CASTS:
            value_text, to_text = rest.rsplit(" to ", 1)
            self.define(name, self.builder.cast(opcode, self.typed_operand(value_text),
                                                _parse_type(to_text)))
        elif opcode == Opcode.CALL:
            match = _CALL_RE.match(rest)
            if match is None:
                raise ValueError(f"cannot parse call {rest!r}")
            type_text = match.group("type").strip()
            return_type = VOID if type_text == "void" else _parse_type(type_text)
            args_text = match.group("args").strip()
            args = [self.typed_operand(a) for a in self._split_commas(args_text)] \
                if args_text else []
            self.define(name, self.builder.call(match.group("callee"), args, return_type))
        elif opcode == Opcode.PHI:
            # The type may contain spaces (pointer address spaces): it is
            # everything before the first incoming-pair bracket.
            bracket = rest.index("[")
            type_ = _parse_type(rest[:bracket].strip())
            phi = self.builder.phi(type_)
            for pair in _INCOMING_RE.finditer(rest[bracket:]):
                phi.add_incoming(self.operand(pair.group("val").strip(), type_),
                                 self.block_ref(pair.group("block")))
            self.define(name, phi)
        elif opcode == Opcode.BR:
            labels = _BR_LABEL_RE.findall(rest)
            if rest.startswith("label"):
                self.builder.br(self.block_ref(labels[0]))
            else:
                cond_text = rest.split(",")[0].split()[-1]
                cond = self.operand(cond_text, I1)
                self.builder.cond_br(cond, self.block_ref(labels[0]),
                                     self.block_ref(labels[1]))
        elif opcode == Opcode.RET:
            if rest == "void":
                self.builder.ret()
            else:
                self.builder.ret(self.typed_operand(rest))
        else:
            raise ValueError(f"unknown opcode {opcode!r}")

    @staticmethod
    def _split_commas(text: str, expect: Optional[int] = None) -> List[str]:
        parts = [p.strip() for p in text.split(",")]
        if expect is not None and len(parts) != expect:
            raise ValueError(f"expected {expect} comma-separated parts in {text!r}")
        return parts

    def _split_type_two(self, text: str) -> Tuple[Type, str, str]:
        """Parse ``<type> <a>, <b>``."""
        lhs_text, rhs_text = self._split_commas(text, 2)
        type_text, lhs_ref = lhs_text.rsplit(None, 1)
        return _parse_type(type_text), lhs_ref, rhs_text


def parse_module(text: str) -> Module:
    """Parse a full module (globals + functions)."""
    return _parse_module(text, defer=False)


def parse_module_deferred(text: str) -> Module:
    """:func:`parse_module` for text **known to parse** (the compile cache
    checks a digest first): globals and ``define`` headers are parsed now,
    each body — and its errors — wait for the first read of its function's
    blocks (:meth:`Function.defer_body`)."""
    return _parse_module(text, defer=True)


def _parse_module(text: str, defer: bool) -> Module:
    module = Module()
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        stripped = lines[i].strip()
        if stripped.startswith(";"):
            # The printer emits the module name as a leading comment;
            # recover it so print -> parse -> print is a true fixpoint.
            header = _MODULE_NAME_RE.match(stripped)
            if header:
                module.name = header.group(1)
            line = ""
        else:
            line = stripped.split(";")[0].strip()
        if not line:
            i += 1
            continue
        gmatch = _GLOBAL_RE.match(line)
        if gmatch:
            space = AddressSpace.SHARED if gmatch.group("kind") == "shared" \
                else AddressSpace.GLOBAL
            elem = _parse_type(gmatch.group("elem"))
            module.add_global(GlobalVariable(gmatch.group("name"),
                                             PointerType(elem, space),
                                             int(gmatch.group("count"))))
            i += 1
            continue
        dmatch = _DEFINE_RE.match(line)
        if dmatch:
            function = _parse_function_header(module, dmatch)
            end = next((j for j in range(i + 1, len(lines)) if "}" in lines[j]
                        and _code(lines[j]).strip() == "}"), None)
            if end is None:
                raise ParseError("unterminated function body", len(lines), "")
            body = partial(_parse_function_body, module, lines, i + 1, end)
            if defer:
                function.defer_body(body)
            else:
                body(function)
            i = end + 1
            continue
        raise ParseError("unexpected top-level line", i + 1, lines[i])
    return module


def _code(raw: str) -> str:
    """``raw`` without its trailing comment (a comment line is empty)."""
    return "" if raw.lstrip().startswith(";") else raw.split(";")[0].rstrip()


def _parse_function_header(module: Module, dmatch) -> Function:
    arg_types: List[Type] = []
    arg_names: List[str] = []
    args_text = dmatch.group("args").strip()
    if args_text:
        for arg in args_text.split(","):
            type_text, name_text = arg.strip().rsplit(None, 1)
            arg_types.append(_parse_type(type_text))
            arg_names.append(name_text.lstrip("%"))
    return module.add_function(
        Function(dmatch.group("name"), arg_types, arg_names))


def _parse_function_body(module: Module, lines: List[str], start: int,
                         end: int, function: Function) -> None:
    """Parse ``lines[start:end]``, the text between ``function``'s
    ``define`` line and its closing brace, into it."""
    parser = _FunctionParser(module, function)
    current: Optional[BasicBlock] = None
    label_order: List[BasicBlock] = []
    for i in range(start, end):
        raw = lines[i]
        stripped = _code(raw).strip()
        if not stripped:
            continue
        label = _LABEL_RE.match(stripped)
        if label and not raw.startswith("  "):
            current = parser.block_ref(label.group("name"))
            label_order.append(current)
            parser.builder.position_at_end(current)
            continue
        if current is None:
            raise ParseError("instruction before first label", i + 1, raw)
        try:
            parser.parse_instruction(stripped)
        except ValueError as exc:
            raise ParseError(str(exc), i + 1, raw) from exc
    try:
        parser.resolve_forwards()
    except ValueError as exc:
        raise ParseError(str(exc), end + 1, lines[end]) from exc
    # Blocks may have been created out of order by forward branch
    # references; restore textual (label) order so the entry block
    # is first and printing round-trips.
    function._blocks.sort(key=label_order.index)


def parse_function(text: str) -> Function:
    """Parse a module containing a single function and return it."""
    module = parse_module(text)
    if len(module.functions) != 1:
        raise ValueError("expected exactly one function")
    return next(iter(module.functions.values()))
