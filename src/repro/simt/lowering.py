"""Lowering: one-time translation of an :class:`ir.Function` into a flat
µop program for the fast-path warp executor.

The tree-walking interpreter in :mod:`repro.simt.warp` re-discovers the
same facts for every instruction, every lane, every launch: which Python
class the instruction is, where its operands live, what its latency is,
where its branch reconverges.  Lowering hoists all of that to launch
time:

* **dense virtual registers** — every SSA value (instruction results,
  arguments, constants, globals, ``undef``) gets one slot in a flat
  register file; operand access is a list index instead of a dict lookup
  through a :class:`~repro.ir.values.Value` key;
* **per-opcode dispatch** — each instruction becomes one µop tuple whose
  head is a small-int kind, with a *pre-specialized* per-lane evaluation
  closure (wraparound masks, comparison predicates, GEP scale factors
  all baked in at lowering time);
* **precomputed control flow** — branch targets, φ transfer plans per
  CFG edge (parallel read-then-write pairs), and IPDOM reconvergence
  points are resolved to block indices once.

Programs are cached on the function itself (``Function.memo``, so they
are freed with it) behind the same memo pattern as
:func:`repro.analysis.cached_divergence`, with two refinements: the
cache key is the machine's **program token**
(:meth:`repro.simt.MachineConfig.program_token` — latency model plus
reconvergence policy, since latencies are baked into the µops and
per-policy lowering state must never alias) and the structural
fingerprint covers **operand identity**
(ids of operands, successors and φ incoming blocks), so in-place operand
rewrites miss the cache instead of silently replaying stale code.

Semantics are bit-identical to the reference interpreter by
construction: the per-lane closures reuse (or inline exactly) the scalar
semantics of :mod:`repro.ir.scalars`, undef propagation matches
:class:`~repro.simt.warp.Warp` observation points, and trap messages
embed the printed form of the bound function's own instruction
(re-derived at materialization, so the symbolic form stays independent
of SSA value naming and survives print/parse bit-identically).

Lowering is split into two stages so programs can persist across
processes (the compile cache stores them next to the optimized IR):

* :func:`lower_symbolic` walks the IR once and produces a **symbolic
  program** — a pure-data (JSON-serializable) µop listing in which every
  per-lane closure is a *descriptor* (e.g. ``["int2", "add", 32]``) and
  arguments/globals are referenced by name;
* :func:`materialize_program` turns a symbolic program back into a
  runnable :class:`LoweredProgram` against a concrete function: closure
  descriptors become the specialized closures, names resolve to the
  function's live :class:`~repro.ir.values.Argument` /
  :class:`~repro.ir.function.GlobalVariable` objects.

:func:`lower_function` is the composition of the two, so a program that
went through ``json.dumps``/``json.loads`` between the stages is
structurally identical to one lowered fresh — the round-trip tests in
``tests/simt/test_program_serialize.py`` assert this bit-for-bit across
all five difftest oracle arms.
"""

from __future__ import annotations

import json
import operator
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.dominators import (
    compute_postdominator_tree,
    immediate_postdominator,
)
from repro.analysis.latency import (
    LatencyModel,
    latency_token,
    latency_token_key,
)
from repro.ir.block import BasicBlock
from repro.ir.function import Function, GlobalVariable
from repro.ir.instructions import (
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
from repro.ir.scalars import EvalError, eval_binary, eval_icmp, unsigned, wrap
from repro.ir.types import FloatType, IntType
from repro.ir.values import Argument, Constant, Undef, Value

from .memory import sizeof
from .warp import SimulationError, UNDEF

# ---------------------------------------------------------------------------
# µop encoding
#
# Each non-φ, non-terminator instruction lowers to one tuple whose first
# element is a kind tag; the executor dispatches on it with an if/elif
# chain ordered by dynamic frequency.  Shapes:
#
#   (OP_COMPUTE2, dest, src_a, src_b, loop_fn, latency)
#   (OP_LOAD,     dest, src_ptr, address_space, latency, repr)
#   (OP_STORE,    src_val, src_ptr, address_space, latency, repr)
#   (OP_SELECT,   dest, src_cond, src_true, src_false, latency)
#   (OP_COMPUTE1, dest, src_a, loop_fn, latency)
#   (OP_SREG,     dest, sreg_tag, latency)
#   (OP_BARRIER,  latency)
#   (OP_TRAP,     message)
#
# ``loop_fn(rd, ra[, rb], lanes)`` evaluates the whole active mask in one
# call, so dispatch cost is paid per µop execution, not per lane.

OP_COMPUTE2 = 0
OP_LOAD = 1
OP_STORE = 2
OP_SELECT = 3
OP_COMPUTE1 = 4
OP_SREG = 5
OP_BARRIER = 6
OP_TRAP = 7

#: OP_SREG tags (index into the warp's special-register bank)
SREG_TID, SREG_NTID, SREG_CTAID, SREG_NCTAID = 0, 1, 2, 3

# Terminator shapes:
#   (TERM_RET,)
#   (TERM_BR,  succ_index, transfer_pairs)
#   (TERM_CBR, src_cond, true_index, false_index, rpc_index,
#              true_pairs, false_pairs, repr)
# ``rpc_index`` is -1 when the branch has no immediate post-dominator
# (both sides run to completion and never merge).  ``*_pairs`` are
# tuples of ``(dest_slot, src_slot)`` implementing the successor's φs
# for that edge with parallel read-then-write semantics.
# ``TERM_NONE`` marks a block without a terminator: the reference
# interpreter re-executes such a block until the step guard trips, and
# the fast path mirrors that (the verifier rejects this shape anyway).

TERM_RET = 0
TERM_BR = 1
TERM_CBR = 2
TERM_NONE = 3


class LoweredBlock:
    """One basic block, lowered: ``(name, µops, terminator)``."""

    __slots__ = ("name", "ops", "term")

    def __init__(self, name: str, ops: Tuple[tuple, ...], term: tuple) -> None:
        self.name = name
        self.ops = ops
        self.term = term


class LoweredProgram:
    """A whole function, lowered once per (function, latency model)."""

    __slots__ = ("function_name", "blocks", "entry_index", "num_slots",
                 "const_slots", "arg_slots", "global_slots", "branch_latency")

    def __init__(self, function_name: str, blocks: List[LoweredBlock],
                 entry_index: int, num_slots: int,
                 const_slots: List[Tuple[int, object]],
                 arg_slots: List[Tuple[int, Argument]],
                 global_slots: List[Tuple[int, GlobalVariable]],
                 branch_latency: int) -> None:
        self.function_name = function_name
        self.blocks = blocks
        self.entry_index = entry_index
        self.num_slots = num_slots
        self.const_slots = const_slots
        self.arg_slots = arg_slots
        self.global_slots = global_slots
        self.branch_latency = branch_latency


# ---------------------------------------------------------------------------
# per-lane evaluation closures
#
# Each maker returns ``run(rd, ra[, rb], lanes)`` evaluating every active
# lane.  Undef handling matches the reference interpreter exactly: any
# undef input yields an undef output for pure ops; traps re-raise as
# SimulationError with the instruction's printed form.

_INT_OPERATORS = {
    Opcode.ADD: operator.add, Opcode.SUB: operator.sub,
    Opcode.MUL: operator.mul, Opcode.AND: operator.and_,
    Opcode.OR: operator.or_, Opcode.XOR: operator.xor,
}
_FLOAT_OPERATORS = {
    Opcode.FADD: operator.add, Opcode.FSUB: operator.sub,
    Opcode.FMUL: operator.mul,
}
_SIGNED_CMP_OPERATORS = {
    "eq": operator.eq, "ne": operator.ne,
    "slt": operator.lt, "sle": operator.le,
    "sgt": operator.gt, "sge": operator.ge,
}


def _make_int2(pyop: Callable, type_: IntType) -> Callable:
    """Wraparound integer binary op — inlines :func:`scalars.wrap`."""
    mask_v = (1 << type_.bits) - 1
    if type_.bits > 1:
        sign = 1 << (type_.bits - 1)
        mod = 1 << type_.bits

        def run(rd, ra, rb, lanes):
            for i in lanes:
                a = ra[i]
                b = rb[i]
                if a is UNDEF or b is UNDEF:
                    rd[i] = UNDEF
                else:
                    v = pyop(a, b) & mask_v
                    rd[i] = v - mod if v >= sign else v
    else:
        def run(rd, ra, rb, lanes):
            for i in lanes:
                a = ra[i]
                b = rb[i]
                rd[i] = UNDEF if (a is UNDEF or b is UNDEF) else pyop(a, b) & mask_v
    return run


def _make_float2(pyop: Callable) -> Callable:
    def run(rd, ra, rb, lanes):
        for i in lanes:
            a = ra[i]
            b = rb[i]
            rd[i] = UNDEF if (a is UNDEF or b is UNDEF) else pyop(a, b)
    return run


def _make_generic2(opcode: str, type_, instr_repr: str) -> Callable:
    """Cold binary ops (div/rem/shift/fdiv): defer to ``eval_binary``."""
    def run(rd, ra, rb, lanes):
        for i in lanes:
            a = ra[i]
            b = rb[i]
            if a is UNDEF or b is UNDEF:
                rd[i] = UNDEF
                continue
            try:
                rd[i] = eval_binary(opcode, a, b, type_)
            except EvalError as exc:
                raise SimulationError(f"{exc}: {instr_repr}") from exc
    return run


def _make_icmp(predicate: str, type_: IntType) -> Callable:
    pyop = _SIGNED_CMP_OPERATORS.get(predicate)
    if pyop is not None:
        def run(rd, ra, rb, lanes):
            for i in lanes:
                a = ra[i]
                b = rb[i]
                if a is UNDEF or b is UNDEF:
                    rd[i] = UNDEF
                else:
                    rd[i] = 1 if pyop(a, b) else 0
    else:  # unsigned predicates need the width-aware reinterpretation
        def run(rd, ra, rb, lanes):
            for i in lanes:
                a = ra[i]
                b = rb[i]
                if a is UNDEF or b is UNDEF:
                    rd[i] = UNDEF
                else:
                    rd[i] = eval_icmp(predicate, a, b, type_)
    return run


def _make_fcmp(predicate: str) -> Callable:
    pyop = {"oeq": operator.eq, "one": operator.ne,
            "olt": operator.lt, "ole": operator.le,
            "ogt": operator.gt, "oge": operator.ge}[predicate]

    def run(rd, ra, rb, lanes):
        for i in lanes:
            a = ra[i]
            b = rb[i]
            if a is UNDEF or b is UNDEF:
                rd[i] = UNDEF
            else:
                rd[i] = 1 if pyop(a, b) else 0
    return run


def _make_gep(element_size: int) -> Callable:
    def run(rd, ra, rb, lanes):
        for i in lanes:
            a = ra[i]
            b = rb[i]
            rd[i] = UNDEF if (a is UNDEF or b is UNDEF) else a + b * element_size
    return run


def _make_minmax(fn: Callable) -> Callable:
    def run(rd, ra, rb, lanes):
        for i in lanes:
            a = ra[i]
            b = rb[i]
            rd[i] = UNDEF if (a is UNDEF or b is UNDEF) else fn(a, b)
    return run


def _make_fneg() -> Callable:
    def run(rd, ra, lanes):
        for i in lanes:
            v = ra[i]
            rd[i] = UNDEF if v is UNDEF else -v
    return run


def _make_cast(opcode: str, from_type, to_type) -> Callable:
    """Casts never trap; inline the :func:`scalars.eval_cast` arms."""
    if opcode == Opcode.ZEXT:
        convert = lambda v: unsigned(v, from_type)
    elif opcode == Opcode.SEXT:
        convert = lambda v: v
    elif opcode == Opcode.TRUNC:
        convert = lambda v: wrap(v, to_type)
    elif opcode == Opcode.SITOFP:
        convert = float
    elif opcode == Opcode.FPTOSI:
        convert = lambda v: wrap(int(v), to_type)
    else:  # bitcast: pointer reinterpretation, value unchanged
        convert = lambda v: v

    def run(rd, ra, lanes):
        for i in lanes:
            v = ra[i]
            rd[i] = UNDEF if v is UNDEF else convert(v)
    return run


# ---------------------------------------------------------------------------
# closure descriptors
#
# The symbolic program form replaces every per-lane closure with a small
# pure-data descriptor (a list, so it survives JSON unchanged); the first
# element names the maker, the rest are its arguments.  Types embed as
# ``["i", bits]`` / ``["f", bits]``; types a maker never reads (the
# pointer sides of a bitcast) embed as ``["p"]``.

PROGRAM_SCHEMA = "repro.simt.lowered-program/1"


class ProgramDecodeError(Exception):
    """A symbolic program could not be materialized (wrong schema,
    unknown descriptor, or a name that does not resolve against the
    target function)."""


def _encode_type(type_) -> list:
    if isinstance(type_, IntType):
        return ["i", type_.bits]
    if isinstance(type_, FloatType):
        return ["f", type_.bits]
    return ["p"]


def _decode_type(tref):
    kind = tref[0]
    if kind == "i":
        return IntType(tref[1])
    if kind == "f":
        return FloatType(tref[1])
    if kind == "p":
        return None  # only legal where the maker ignores the type
    raise ProgramDecodeError(f"unknown type reference {tref!r}")


def _binary_desc(instr: BinaryOp) -> list:
    # The trap-message repr slot is None in the symbolic form (value
    # names are not stable across print/parse); materialization fills it
    # from the bound function's own instruction.
    opcode = instr.opcode
    if isinstance(instr.type, FloatType):
        if opcode in _FLOAT_OPERATORS:
            return ["float2", opcode]
        return ["generic2", opcode, _encode_type(instr.type), None]
    if opcode in _INT_OPERATORS:
        return ["int2", opcode, _encode_type(instr.type)]
    return ["generic2", opcode, _encode_type(instr.type), None]


def _closure_from_desc(desc, instr: Optional[Instruction] = None) -> Callable:
    kind = desc[0]
    try:
        if kind == "int2":
            return _make_int2(_INT_OPERATORS[desc[1]], _decode_type(desc[2]))
        if kind == "float2":
            return _make_float2(_FLOAT_OPERATORS[desc[1]])
        if kind == "generic2":
            instr_repr = desc[3] if desc[3] is not None else repr(instr)
            return _make_generic2(desc[1], _decode_type(desc[2]), instr_repr)
        if kind == "icmp":
            return _make_icmp(desc[1], _decode_type(desc[2]))
        if kind == "fcmp":
            return _make_fcmp(desc[1])
        if kind == "gep":
            return _make_gep(desc[1])
        if kind == "minmax":
            return _make_minmax(min if desc[1] == "min" else max)
        if kind == "cast":
            return _make_cast(desc[1], _decode_type(desc[2]),
                              _decode_type(desc[3]))
        if kind == "fneg":
            return _make_fneg()
    except ProgramDecodeError:
        raise
    except Exception as exc:
        raise ProgramDecodeError(
            f"bad closure descriptor {desc!r}: {exc}") from exc
    raise ProgramDecodeError(f"unknown closure descriptor {desc!r}")


# ---------------------------------------------------------------------------
# the lowerer (IR → symbolic program)


class _Lowerer:
    def __init__(self, function: Function, latency: LatencyModel) -> None:
        self.function = function
        self.latency = latency
        self._slots: Dict[object, int] = {}
        self._next_slot = 0
        self.const_slots: List[list] = []
        self.arg_slots: List[list] = []
        self.global_slots: List[list] = []

    def slot(self, value: Value) -> int:
        # All undefs share one slot: the register file is UNDEF-initialized,
        # so the shared slot never needs writing.
        key = "__undef__" if isinstance(value, Undef) else value
        index = self._slots.get(key)
        if index is None:
            index = self._next_slot
            self._next_slot += 1
            self._slots[key] = index
            if isinstance(value, Constant):
                self.const_slots.append([index, value.value])
            elif isinstance(value, Argument):
                self.arg_slots.append([index, value.name])
            elif isinstance(value, GlobalVariable):
                self.global_slots.append([index, value.name])
        return index

    def lower(self) -> dict:
        function = self.function
        blocks = function.blocks
        block_index = {id(block): i for i, block in enumerate(blocks)}
        pdt = compute_postdominator_tree(function)

        lowered: List[dict] = []
        for block in blocks:
            ops: List[list] = []
            term: list = [TERM_NONE]
            for instr in block.instructions:
                if isinstance(instr, Phi):
                    continue  # applied on edge transfer
                if isinstance(instr, Branch):
                    term = self._lower_branch(instr, block, block_index, pdt)
                    break
                if isinstance(instr, Ret):
                    term = [TERM_RET]
                    break
                ops.append(self._lower_simple(instr))
            lowered.append({"name": block.name, "ops": ops, "term": term})

        return {
            "schema": PROGRAM_SCHEMA,
            "function": function.name,
            "blocks": lowered,
            "entry_index": block_index[id(function.entry)],
            "num_slots": self._next_slot,
            "const_slots": self.const_slots,
            "arg_slots": self.arg_slots,
            "global_slots": self.global_slots,
            "branch_latency": self.latency.branch_latency,
        }

    # ---- straight-line instructions ---------------------------------------

    def _lower_simple(self, instr: Instruction) -> list:
        latency = self.latency.latency(instr)
        if isinstance(instr, BinaryOp):
            return [OP_COMPUTE2, self.slot(instr), self.slot(instr.lhs),
                    self.slot(instr.rhs), _binary_desc(instr), latency]
        if isinstance(instr, ICmp):
            return [OP_COMPUTE2, self.slot(instr), self.slot(instr.lhs),
                    self.slot(instr.rhs),
                    ["icmp", instr.predicate, _encode_type(instr.lhs.type)],
                    latency]
        if isinstance(instr, FCmp):
            return [OP_COMPUTE2, self.slot(instr), self.slot(instr.lhs),
                    self.slot(instr.rhs), ["fcmp", instr.predicate], latency]
        if isinstance(instr, Select):
            return [OP_SELECT, self.slot(instr), self.slot(instr.condition),
                    self.slot(instr.true_value), self.slot(instr.false_value),
                    latency]
        if isinstance(instr, GetElementPtr):
            return [OP_COMPUTE2, self.slot(instr), self.slot(instr.base),
                    self.slot(instr.index),
                    ["gep", sizeof(instr.base.type.pointee)], latency]
        if isinstance(instr, Load):
            return [OP_LOAD, self.slot(instr), self.slot(instr.pointer),
                    instr.address_space, latency, None]
        if isinstance(instr, Store):
            return [OP_STORE, self.slot(instr.value), self.slot(instr.pointer),
                    instr.address_space, latency, None]
        if isinstance(instr, Cast):
            return [OP_COMPUTE1, self.slot(instr), self.slot(instr.value),
                    ["cast", instr.opcode, _encode_type(instr.value.type),
                     _encode_type(instr.type)], latency]
        if isinstance(instr, UnaryOp):
            return [OP_COMPUTE1, self.slot(instr), self.slot(instr.operand(0)),
                    ["fneg"], latency]
        if isinstance(instr, Call):
            return self._lower_call(instr, latency)
        # The reference interpreter traps when asked to evaluate an
        # unknown instruction; lower it to the same trap, fired lazily so
        # unreachable code does not poison the whole program.  (None →
        # materialization renders the message from the bound instruction.)
        return [OP_TRAP, None]

    def _lower_call(self, call: Call, latency: int) -> list:
        name = call.callee
        if call.is_barrier:
            return [OP_BARRIER, self.latency.barrier_latency]
        if name == IntrinsicName.TID_X:
            return [OP_SREG, self.slot(call), SREG_TID, latency]
        if name == IntrinsicName.NTID_X:
            return [OP_SREG, self.slot(call), SREG_NTID, latency]
        if name == IntrinsicName.CTAID_X:
            return [OP_SREG, self.slot(call), SREG_CTAID, latency]
        if name == IntrinsicName.NCTAID_X:
            return [OP_SREG, self.slot(call), SREG_NCTAID, latency]
        if name in (IntrinsicName.MIN, IntrinsicName.MAX):
            which = "min" if name == IntrinsicName.MIN else "max"
            return [OP_COMPUTE2, self.slot(call), self.slot(call.args[0]),
                    self.slot(call.args[1]), ["minmax", which], latency]
        return [OP_TRAP, f"unknown intrinsic @{name}"]

    # ---- control flow ------------------------------------------------------

    def _transfer_pairs(self, pred: BasicBlock, succ: BasicBlock) -> List[list]:
        return [[self.slot(phi), self.slot(phi.incoming_for(pred))]
                for phi in succ.phis]

    def _lower_branch(self, branch: Branch, block: BasicBlock,
                      block_index: Dict[int, int], pdt) -> list:
        if not branch.is_conditional:
            succ = branch.true_successor
            return [TERM_BR, block_index[id(succ)],
                    self._transfer_pairs(block, succ)]
        true_succ = branch.true_successor
        false_succ = branch.false_successor
        rpc = immediate_postdominator(pdt, block)
        return [TERM_CBR, self.slot(branch.condition),
                block_index[id(true_succ)], block_index[id(false_succ)],
                -1 if rpc is None else block_index[id(rpc)],
                self._transfer_pairs(block, true_succ),
                self._transfer_pairs(block, false_succ),
                None]


def lower_symbolic(function: Function, latency: LatencyModel) -> dict:
    """Lower ``function`` to the pure-data symbolic program form.

    The result contains only JSON-native values (dicts with string keys,
    lists, strings, ints, floats), so ``json.loads(json.dumps(p)) == p``
    holds exactly and the form can be persisted by the compile cache.
    Latencies from ``latency`` are baked into the µops — persisted
    programs must be keyed by :func:`latency_token` as well as by IR.
    """
    return _Lowerer(function, latency).lower()


# ---------------------------------------------------------------------------
# materialization (symbolic program → runnable program)


def _materialize_op(op, instr: Optional[Instruction]) -> tuple:
    kind = op[0]
    if kind == OP_COMPUTE2:
        return (OP_COMPUTE2, op[1], op[2], op[3],
                _closure_from_desc(op[4], instr), op[5])
    if kind == OP_COMPUTE1:
        return (OP_COMPUTE1, op[1], op[2],
                _closure_from_desc(op[3], instr), op[4])
    if kind in (OP_LOAD, OP_STORE):
        return tuple(op[:5]) + (op[5] if op[5] is not None else repr(instr),)
    if kind == OP_TRAP:
        message = op[1] if op[1] is not None else f"cannot evaluate {instr!r}"
        return (OP_TRAP, message)
    if kind in (OP_SELECT, OP_SREG, OP_BARRIER):
        return tuple(op)
    raise ProgramDecodeError(f"unknown µop kind {kind!r}")


def _materialize_term(term, branch: Optional[Instruction]) -> tuple:
    kind = term[0]
    if kind in (TERM_RET, TERM_NONE):
        return (kind,)
    if kind == TERM_BR:
        return (TERM_BR, term[1], tuple(tuple(p) for p in term[2]))
    if kind == TERM_CBR:
        branch_repr = term[7] if term[7] is not None else repr(branch)
        return (TERM_CBR, term[1], term[2], term[3], term[4],
                tuple(tuple(p) for p in term[5]),
                tuple(tuple(p) for p in term[6]), branch_repr)
    raise ProgramDecodeError(f"unknown terminator kind {kind!r}")


def _block_schedule(block: BasicBlock):
    """The (simple instructions, terminator) a lowering of ``block``
    visits — the lockstep counterpart of :meth:`_Lowerer.lower`, used by
    materialization to rebind trap-message reprs to the live IR."""
    simple: List[Instruction] = []
    terminator: Optional[Instruction] = None
    for instr in block.instructions:
        if isinstance(instr, Phi):
            continue
        if isinstance(instr, (Branch, Ret)):
            terminator = instr
            break
        simple.append(instr)
    return simple, terminator


def materialize_program(data: dict, function: Function) -> LoweredProgram:
    """Turn a symbolic program (fresh or deserialized) into a runnable
    :class:`LoweredProgram` bound to ``function``.

    Argument and global slots resolve **by name** against ``function``
    (and its module), so a program cached in one process binds to the
    re-parsed IR of another.  Raises :class:`ProgramDecodeError` when the
    schema, a descriptor, or a name does not line up.
    """
    try:
        if data["schema"] != PROGRAM_SCHEMA:
            raise ProgramDecodeError(
                f"program schema {data['schema']!r} != {PROGRAM_SCHEMA!r}")
        if len(data["blocks"]) != len(function.blocks):
            raise ProgramDecodeError(
                f"program has {len(data['blocks'])} blocks, "
                f"@{function.name} has {len(function.blocks)}")
        blocks = []
        for encoded, live in zip(data["blocks"], function.blocks):
            if encoded["name"] != live.name:
                raise ProgramDecodeError(
                    f"program block {encoded['name']!r} != live block "
                    f"{live.name!r} in @{function.name}")
            simple, terminator = _block_schedule(live)
            if len(simple) != len(encoded["ops"]):
                raise ProgramDecodeError(
                    f"block {live.name!r}: program has {len(encoded['ops'])} "
                    f"µops, live block lowers {len(simple)}")
            blocks.append(LoweredBlock(
                encoded["name"],
                tuple(_materialize_op(op, instr)
                      for op, instr in zip(encoded["ops"], simple)),
                _materialize_term(encoded["term"], terminator)))
        arg_by_name = {arg.name: arg for arg in function.args}
        arg_slots: List[Tuple[int, Argument]] = []
        for index, name in data["arg_slots"]:
            if name not in arg_by_name:
                raise ProgramDecodeError(
                    f"program argument {name!r} not in @{function.name}")
            arg_slots.append((index, arg_by_name[name]))
        global_slots: List[Tuple[int, GlobalVariable]] = []
        for index, name in data["global_slots"]:
            var = function.module.globals.get(name) \
                if function.module is not None else None
            if var is None:
                raise ProgramDecodeError(
                    f"program global @{name} not in module of @{function.name}")
            global_slots.append((index, var))
        return LoweredProgram(
            function_name=data["function"],
            blocks=blocks,
            entry_index=data["entry_index"],
            num_slots=data["num_slots"],
            const_slots=[(index, value)
                         for index, value in data["const_slots"]],
            arg_slots=arg_slots,
            global_slots=global_slots,
            branch_latency=data["branch_latency"],
        )
    except ProgramDecodeError:
        raise
    except Exception as exc:  # malformed shapes: KeyError, IndexError, ...
        raise ProgramDecodeError(f"malformed symbolic program: {exc}") from exc


def lower_function(function: Function, latency: LatencyModel) -> LoweredProgram:
    """Lower ``function`` to a µop program (uncached; see :func:`get_program`)."""
    return materialize_program(lower_symbolic(function, latency), function)


# ---------------------------------------------------------------------------
# memoization — same shape as analysis.function_analyses (the entries
# live on the Function, in ``Function.memo``, so they are freed with it:
# µop closures reference their function, and a module-level table, even
# a weak-keyed one, would keep every launched function alive), but keyed
# on MachineConfig.program_token() (latencies are baked into µops, and
# the reconvergence policy keys defensively so per-policy lowering state
# can never alias) and fingerprinted down to operand identity (operand
# rewrites must miss).  latency_token/latency_token_key now live in
# repro.analysis.latency and are re-imported above for compatibility.

_MEMO_KEY = "lowering"

#: bumped by :func:`clear_lowering_memo`; every entry is stamped with the
#: epoch it was stored in and misses once the epoch has moved on
_memo_epoch = 0


def _programs(function: Function) -> Dict[tuple, Tuple[tuple, LoweredProgram]]:
    """``function``'s program-token → (fingerprint, program) table of the
    current epoch (a table left over from an earlier epoch is dropped)."""
    entry = function.memo.get(_MEMO_KEY)
    if entry is None or entry[0] != _memo_epoch:
        entry = function.memo[_MEMO_KEY] = (_memo_epoch, {})
    return entry[1]


def function_fingerprint(function: Function) -> tuple:
    """Structural + operand-identity fingerprint of a function.

    Unlike :func:`analysis.divergence._fingerprint`, this sees in-place
    operand rewrites, successor retargeting and φ incoming edits, so
    callers never need an explicit invalidation between compile and
    launch.  Cost is O(instructions) per launch — noise next to the
    execution it guards.
    """
    parts = []
    for block in function.blocks:
        row: List[int] = [id(block)]
        append = row.append
        for instr in block.instructions:
            append(id(instr))
            for op in instr._operands:
                append(id(op))
            if isinstance(instr, Branch):
                for succ in instr._successors:
                    append(id(succ))
            elif isinstance(instr, Phi):
                for pred in instr._incoming_blocks:
                    append(id(pred))
        parts.append(tuple(row))
    return tuple(parts)


def get_program(function: Function, machine) -> LoweredProgram:
    """Memoized :func:`lower_function` (the launch-time entry point).

    ``machine`` is a :class:`repro.simt.MachineConfig`; the memo is keyed
    by its :meth:`~repro.simt.MachineConfig.program_token`, so machines
    that differ only in fields µop programs cannot observe (warp size,
    coalescing) share entries while latency-model or policy changes
    always miss.
    """
    token = machine.program_token()
    fingerprint = function_fingerprint(function)
    programs = _programs(function)
    hit = programs.get(token)
    if hit is not None and hit[0] == fingerprint:
        return hit[1]
    program = lower_function(function, machine.latency)
    programs[token] = (fingerprint, program)
    return program


def seed_program(function: Function, machine,
                 program: LoweredProgram) -> None:
    """Pre-populate the launch memo with an already-materialized program.

    The compile cache calls this after a warm hit: the cached symbolic
    program is materialized against the freshly parsed ``function`` and
    seeded here, so the first launch skips :func:`lower_function`
    entirely.  The entry is guarded by the same fingerprint as a memoized
    lowering — if the function mutates before launch, the seed simply
    misses and lowering runs normally.
    """
    _programs(function)[machine.program_token()] = (
        function_fingerprint(function), program)


def invalidate_lowering(function: Function) -> None:
    """Drop cached programs for ``function`` (operand-identity
    fingerprinting makes this rarely necessary; provided for symmetry
    with :func:`repro.analysis.invalidate_divergence`)."""
    function.memo.pop(_MEMO_KEY, None)


def clear_lowering_memo() -> None:
    """Drop every memoized program in this process.

    The quarantine hook for long-lived worker processes: a task that
    crashed mid-lowering (or mid-:func:`seed_program`) may have left a
    partially-built or deliberately corrupted entry behind for a
    function object that outlives the task, and the fingerprint —
    being keyed on object identities, not content — cannot tell a
    poisoned entry from a legitimate one.  ``repro.scheduler`` workers
    call this after any task failure so the retry (in this worker or a
    replacement) always re-lowers from the IR instead of trusting
    whatever the crashed attempt left in the memo.  The memo lives on
    the functions themselves, so "drop" is an epoch bump: every entry
    stored before it misses from now on.
    """
    global _memo_epoch
    _memo_epoch += 1
