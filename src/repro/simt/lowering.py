"""Lowering: one-time translation of an :class:`ir.Function` into a flat
µop program for the fast-path warp executor.

The tree-walking interpreter in :mod:`repro.simt.reference` re-discovers
the same facts for every instruction, every lane, every launch: which
Python class the instruction is, where its operands live, what its
latency is, where its branch reconverges.  Lowering hoists all of that to launch
time:

* **dense virtual registers** — every SSA value (instruction results,
  arguments, constants, globals, ``undef``) gets one slot in a flat
  register file; operand access is a list index instead of a dict lookup
  through a :class:`~repro.ir.values.Value` key;
* **one lane loop per run** — every maximal run of pure instructions
  becomes one µop whose generated function evaluates the whole run for
  the whole active mask (wraparound masks, comparison predicates, GEP
  scale factors inlined; see "run functions" below);
* **precomputed control flow** — branch targets, φ transfer plans per
  CFG edge (parallel read-then-write pairs), and IPDOM reconvergence
  points are resolved to block indices once.

Programs are cached on the function itself (``Function.memo``, so they
are freed with it) through the same ``repro.ir.memo_lookup`` /
``memo_store`` pair as :func:`repro.analysis.cached_divergence`, keyed
by the machine's **latency model**
(:func:`~repro.analysis.latency.latency_token` — latencies are baked
into the µops, and nothing else of the machine is: one program serves
every reconvergence policy).  The pair's fingerprint covers operand
identity (ids of operands, successors and φ incoming blocks), so
in-place operand rewrites miss the cache instead of silently replaying
stale code.

Semantics are bit-identical to the reference interpreter by
construction: the run functions inline exactly the scalar semantics of
:mod:`repro.ir.scalars` (``tests/simt/test_run_functions.py`` is the
oracle), undef propagation matches the reference evaluator's
observation points, and trap messages embed the printed form of the
bound function's own instruction (re-derived at materialization, so the
symbolic form stays independent of SSA value naming and survives
print/parse bit-identically).

Lowering is split into two stages so programs can persist across
processes (the compile cache stores them next to the optimized IR):

* :func:`lower_symbolic` walks the IR once and produces a **symbolic
  program** — a pure-data (JSON-serializable) µop listing in which every
  computation is a *descriptor* (e.g. ``["int2", "add", ["i", 32]]``)
  and arguments/globals are referenced by name;
* :func:`materialize_program` turns a symbolic program back into a
  runnable :class:`LoweredProgram` against a concrete function: pure
  µops fuse into runs (one shared function per run *shape*), names
  resolve to the function's live :class:`~repro.ir.values.Argument` /
  :class:`~repro.ir.function.GlobalVariable` objects.

:func:`lower_function` is the composition of the two, so a program that
went through ``json.dumps``/``json.loads`` between the stages is
structurally identical to one lowered fresh — the round-trip tests in
``tests/simt/test_program_serialize.py`` assert this bit-for-bit across
all five difftest oracle arms.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.analysis.dominators import (
    compute_postdominator_tree,
    immediate_postdominator,
)
from repro.analysis.latency import LatencyModel, latency_token
from repro.ir.block import BasicBlock
from repro.ir.function import Function, GlobalVariable, memo_lookup, memo_store
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
from repro.ir.scalars import EvalError
from repro.ir.types import FloatType, IntType
from repro.ir.values import Argument, Constant, Undef, Value

from .memory import sizeof
from .warp import SimulationError, UNDEF
from .warp import TERM_BR, TERM_CBR, TERM_NONE, TERM_RET

# ---------------------------------------------------------------------------
# µop encoding
#
# In the symbolic program each non-φ, non-terminator instruction is one
# list whose first element is a kind tag:
#
#   [OP_COMPUTE2, dest, src_a, src_b, descriptor, latency]
#   [OP_LOAD,     dest, src_ptr, address_space, latency, repr]
#   [OP_STORE,    src_val, src_ptr, address_space, latency, repr]
#   [OP_SELECT,   dest, src_cond, src_true, src_false, latency]
#   [OP_COMPUTE1, dest, src_a, descriptor, latency]
#   [OP_SREG,     dest, sreg_tag, latency]
#   [OP_BARRIER,  latency]
#   [OP_TRAP,     message]
#
# Materialization keeps the memory, barrier and trap µops as tuples of
# the same shape and fuses every maximal run of the four pure kinds into
#
#   (OP_RUN, run_fn, slots, consts, n_ops, latency_sum)
#
# (see "run functions" below), so dispatch cost is paid per run, not per
# µop or per lane.  The executor dispatches on the kind with an if/elif
# chain ordered by dynamic frequency.

OP_COMPUTE2 = 0
OP_LOAD = 1
OP_STORE = 2
OP_SELECT = 3
OP_COMPUTE1 = 4
OP_SREG = 5
OP_BARRIER = 6
OP_TRAP = 7
OP_RUN = 8  # materialized programs only

#: OP_SREG tags (index into the warp's special-register bank)
SREG_TID, SREG_NTID, SREG_CTAID, SREG_NCTAID = 0, 1, 2, 3

# Terminator records use the layout the warp driver reads (documented in
# :mod:`repro.simt.warp`): ``cond`` is the condition's register slot and
# an edge is a tuple of ``(dest_slot, src_slot)`` pairs implementing the
# successor's φs for that edge with parallel read-then-write semantics.


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
                 "const_slots", "arg_slots", "global_slots")

    def __init__(self, function_name: str, blocks: List[LoweredBlock],
                 entry_index: int, num_slots: int,
                 const_slots: List[Tuple[int, object]],
                 arg_slots: List[Tuple[int, Argument]],
                 global_slots: List[Tuple[int, GlobalVariable]]) -> None:
        self.function_name = function_name
        self.blocks = blocks
        self.entry_index = entry_index
        self.num_slots = num_slots
        self.const_slots = const_slots
        self.arg_slots = arg_slots
        self.global_slots = global_slots


PROGRAM_SCHEMA = "repro.simt.lowered-program/1"


class ProgramDecodeError(Exception):
    """A symbolic program could not be materialized (wrong schema,
    unknown descriptor, or a name that does not resolve against the
    target function)."""


# ---------------------------------------------------------------------------
# run functions
#
# Materialization splits each block's µops into maximal **runs** of pure
# µops (a load, store, barrier or trap µop ends a run); each run becomes
# one ``OP_RUN`` whose function executes it in a single ``for i in mask:``
# loop, intermediate values in locals.  The function is generated Python
# source and a pure function of the run's **shape** — per µop its
# statement template (descriptor and may-trap bit folded in), its operand
# pattern (in-run value ``v`` / outside register ``r`` / constant ``c``,
# in first-use numbering) and the index of its trap message — compiled
# once per process and shared by every run of that shape; slot numbers,
# constant values and trap-message reprs arrive as run-time arguments.
# Descriptors come from the on-disk cache, so nothing read from one is
# interpolated into source: opcodes and predicates index the closed
# tables below, widths and element sizes must be ints in range.
#
# Fusing is exact because pure µops are lane-local and a run holds **at
# most one** µop that can trap, so the first error a fused loop raises is
# the one lockstep execution raises.  Any undef input of a pure op yields
# undef (``select`` looks only at its condition), as in the reference;
# the test is dropped for operands statically known defined (constants,
# special registers, results computed from those).

_INT2 = {Opcode.ADD: "+", Opcode.SUB: "-", Opcode.MUL: "*",
         Opcode.AND: "&", Opcode.OR: "|", Opcode.XOR: "^"}
_FLOAT2 = {Opcode.FADD: "+", Opcode.FSUB: "-", Opcode.FMUL: "*"}
_SHIFTS = {Opcode.SHL: "%(a)s << {s}", Opcode.LSHR: "(%(a)s & {m}) >> {s}",
           Opcode.ASHR: "%(a)s >> {s}"}
_SIGNED_DIVS = {Opcode.SDIV: "q", Opcode.SREM: "%(a)s - q * %(b)s"}
_UNSIGNED_DIVS = {Opcode.UDIV: "//", Opcode.UREM: "%%"}
#: the ``u`` predicates compare the width-aware unsigned reinterpretation
_ICMP = {"eq": "==", "ne": "!=", "slt": "<", "sle": "<=", "sgt": ">",
         "sge": ">=", "ult": "<", "ule": "<=", "ugt": ">", "uge": ">="}
_FCMP = {"oeq": "==", "one": "!=", "olt": "<", "ole": "<=", "ogt": ">",
         "oge": ">="}
_SELECT = "%(d)s = %(b)s if %(a)s else %(c)s"
_DIV_TRAP = 'trap("integer division by zero", %(t)s)'

#: shape -> run function, process-wide.  An entry is a pure function of
#: its key, stored only after ``compile`` succeeded: nothing to invalidate.
_RUN_MEMO: Dict[tuple, Callable] = {}


def _trap(message: str, instr_repr: str):
    raise SimulationError(f"{message}: {instr_repr}") from EvalError(message)


def _bits(tref, kind: str = "i") -> int:
    if (type(tref) is not list or len(tref) != 2 or tref[0] != kind
            or type(tref[1]) is not int or not 1 <= tref[1] <= 64):
        raise ProgramDecodeError(f"bad type reference {tref!r}")
    return tref[1]


def _wrapped(expr: str, bits: int) -> str:
    """Statements assigning ``scalars.wrap(expr, i<bits>)`` to ``%(d)s``."""
    if bits == 1:
        return f"%(d)s = ({expr}) & 1"
    return (f"%(d)s = ({expr}) & {(1 << bits) - 1}\n"
            f"if %(d)s >= {1 << (bits - 1)}: %(d)s -= {1 << bits}")


def _template(desc, rhs) -> Tuple[str, bool]:
    """``(statements, may_trap)`` for one descriptor: the inlined
    :mod:`repro.ir.scalars` semantics over operands ``%(a)s``/``%(b)s``,
    result in ``%(d)s``, trap-message repr in ``%(t)s``.  ``rhs`` is the
    right operand's value when it is a constant (else ``None``): a shift
    amount or divisor that provably cannot trap drops its check."""
    kind = desc[0]
    if kind == "int2":
        return _wrapped(f"%(a)s {_INT2[desc[1]]} %(b)s", _bits(desc[2])), False
    if kind == "float2":
        return f"%(d)s = %(a)s {_FLOAT2[desc[1]]} %(b)s", False
    if kind == "icmp":
        pyop = _ICMP[desc[1]]
        mask = (1 << _bits(desc[2])) - 1
        a, b = "%(a)s", "%(b)s"
        if desc[1].startswith("u"):
            a, b = f"({a} & {mask})", f"({b} & {mask})"
        return f"%(d)s = 1 if {a} {pyop} {b} else 0", False
    if kind == "fcmp":
        return f"%(d)s = 1 if %(a)s {_FCMP[desc[1]]} %(b)s else 0", False
    if kind == "gep":
        if type(desc[1]) is not int or not 1 <= desc[1] <= 8:
            raise ProgramDecodeError(f"bad element size {desc[1]!r}")
        return f"%(d)s = %(a)s + %(b)s * {desc[1]}", False
    if kind == "minmax":
        pyop = {"min": "<", "max": ">"}[desc[1]]
        return f"%(d)s = %(b)s if %(b)s {pyop} %(a)s else %(a)s", False
    if kind == "fneg":
        return "%(d)s = -%(a)s", False
    if kind == "cast":
        return _cast_template(desc[1], desc[2], desc[3])
    if kind == "generic2":
        return _generic2_template(desc[1], desc[2], rhs)
    raise ProgramDecodeError(f"unknown descriptor {desc!r}")


def _cast_template(opcode, from_tref, to_tref) -> Tuple[str, bool]:
    if opcode == Opcode.ZEXT:
        return f"%(d)s = %(a)s & {(1 << _bits(from_tref)) - 1}", False
    if opcode == Opcode.TRUNC:
        return _wrapped("%(a)s", _bits(to_tref)), False
    if opcode == Opcode.SITOFP:
        return "%(d)s = float(%(a)s)", False
    if opcode == Opcode.FPTOSI:
        return ("if not isfinite(%(a)s): "
                'trap(f"fptosi of non-finite value {%(a)s!r}", %(t)s)\n'
                + _wrapped("int(%(a)s)", _bits(to_tref))), True
    if opcode in (Opcode.SEXT, Opcode.BITCAST):
        return "%(d)s = %(a)s", False
    raise ProgramDecodeError(f"unknown cast opcode {opcode!r}")


def _generic2_template(opcode, tref, rhs) -> Tuple[str, bool]:
    if opcode not in Opcode.BINARY:
        raise ProgramDecodeError(f"unknown binary opcode {opcode!r}")
    if tref[0] == "f":
        _bits(tref, "f")
        if opcode == Opcode.FDIV:
            return ("%(d)s = %(a)s / %(b)s if %(b)s != 0.0 else "
                    "(NAN if %(a)s == 0.0 else INF if %(a)s > 0 else -INF)",
                    False)
        return f'trap("bad float opcode {opcode}", %(t)s)', True
    bits = _bits(tref)
    mask = (1 << bits) - 1
    rhs_int = type(rhs) is int
    if opcode in _SHIFTS:
        if rhs_int and 0 <= rhs < bits:
            return _wrapped(_SHIFTS[opcode].format(s="%(b)s", m=mask),
                            bits), False
        return (f"s = %(b)s & {mask}\nif s >= {bits}: "
                f'trap(f"shift amount {{s}} >= width {bits}", %(t)s)\n'
                + _wrapped(_SHIFTS[opcode].format(s="s", m=mask), bits)), True
    if opcode in _SIGNED_DIVS:
        safe = rhs_int and rhs != 0
        return (("" if safe else f"if %(b)s == 0: {_DIV_TRAP}\n")
                + "q = abs(%(a)s) // abs(%(b)s)\n"
                "if (%(a)s < 0) != (%(b)s < 0): q = -q\n"
                + _wrapped(_SIGNED_DIVS[opcode], bits)), not safe
    if opcode in _UNSIGNED_DIVS:
        safe = rhs_int and rhs & mask != 0
        return (f"ub = %(b)s & {mask}\n"
                + ("" if safe else f"if ub == 0: {_DIV_TRAP}\n")
                + _wrapped(f"(%(a)s & {mask}) {_UNSIGNED_DIVS[opcode]} ub",
                           bits)), not safe
    return f'trap("bad integer opcode {opcode}", %(t)s)', True


def _compile_run(shape: tuple) -> Callable:
    """Generate and compile ``run(regs, sregs, mask, slots, consts)`` for
    one shape: per µop ``(template, operand refs, trap const index)``, a
    ref being ``("v", k)`` (result of the run's k-th µop), ``("r", n)``
    (``regs[slots[n]]``), ``("c", n)`` (``consts[n]``) or ``("s", tag)``
    (special register); destination registers follow the outside ones in
    ``slots``.  The source stays on the function as ``.source``."""
    body: List[str] = []
    loaded = set()          # outside registers already read this lane
    defined: List[bool] = []  # per µop: result statically not UNDEF
    n_regs = n_consts = 0
    sreg_tags = set()
    for k, (template, refs, trap) in enumerate(shape):
        names: List[str] = []
        guards: List[str] = []
        known = True
        for position, (kind, index) in enumerate(refs):
            name = f"{kind}{index}"
            if kind == "c":
                n_consts = max(n_consts, index + 1)
            elif kind == "s":
                sreg_tags.add(index)
                name += "[i]"
            elif kind == "r":
                n_regs = max(n_regs, index + 1)
                name = f"a{index}"
                if index not in loaded:
                    loaded.add(index)
                    body.append(f"{name} = r{index}[i]")
            if kind == "r" or (kind == "v" and not defined[index]):
                known = False
                # `select undef, a, b` is the only undef a select propagates
                if name not in guards and (position == 0
                                           or template != _SELECT):
                    guards.append(name)
            names.append(name)
        operands = dict(zip("abc", names), d=f"v{k}")
        if trap is not None:
            n_consts = max(n_consts, trap + 1)
            operands["t"] = f"c{trap}"
        lines = (template % operands).split("\n")
        if guards:
            test = " or ".join(f"{name} is U" for name in guards)
            body += [f"if {test}: v{k} = U", "else:"]
            lines = ["    " + line for line in lines]
        body += lines
        body.append(f"d{k}[i] = v{k}")
        defined.append(known)
    registers = [f"r{n}" for n in range(n_regs)] \
        + [f"d{k}" for k in range(len(shape))]
    prelude = [f"{', '.join(registers)}, = map(regs.__getitem__, slots)"]
    if n_consts:
        prelude.append(
            f"{', '.join(f'c{n}' for n in range(n_consts))}, = consts")
    prelude += [f"s{tag} = sregs[{tag}]" for tag in sorted(sreg_tags)]
    source = "\n".join(
        ["def run(regs, sregs, mask, slots, consts, U=U):"]
        + ["    " + line for line in prelude + ["for i in mask:"]]
        + ["        " + line for line in body]) + "\n"
    namespace = {"U": UNDEF, "trap": _trap, "isfinite": math.isfinite,
                 "NAN": math.nan, "INF": math.inf}
    exec(compile(source, f"<run shape {len(_RUN_MEMO)}>", "exec"), namespace)
    run = namespace["run"]
    run.source = source
    return run


class _RunBuilder:
    """Accumulates consecutive pure µops of one block into ``OP_RUN``s."""

    def __init__(self, const_of: Dict[int, object], out: List[tuple]) -> None:
        self.const_of = const_of
        self.out = out
        self._reset()

    def _reset(self) -> None:
        self.shape: List[tuple] = []
        self.regs: Dict[int, int] = {}     # outside slot -> first-use number
        self.dests: List[int] = []
        self.produced: Dict[int, int] = {}  # slot -> µop of the run writing it
        self.consts: List[object] = []
        self.latency = 0
        self.traps = False

    def add(self, op, site, k: int) -> None:
        kind = op[0]
        dest, latency = op[1], op[-1]
        refs: List[tuple] = []
        if kind == OP_COMPUTE2:
            sources = op[2:4]
            template, may_trap = _template(op[4], self.const_of.get(op[3]))
        elif kind == OP_COMPUTE1:
            sources = op[2:3]
            template, may_trap = _template(op[3], None)
        elif kind == OP_SELECT:
            sources, template, may_trap = op[2:5], _SELECT, False
        else:  # OP_SREG
            if type(op[2]) is not int or not 0 <= op[2] <= SREG_NCTAID:
                raise ProgramDecodeError(f"unknown special register {op[2]!r}")
            refs.append(("s", op[2]))
            sources, template, may_trap = (), "%(d)s = %(a)s", False
        if may_trap and self.traps:
            self.flush()
        for slot in sources:
            if slot in self.produced:
                refs.append(("v", self.produced[slot]))
            elif slot in self.const_of:
                refs.append(("c", len(self.consts)))
                self.consts.append(self.const_of[slot])
            else:
                refs.append(("r", self.regs.setdefault(slot, len(self.regs))))
        trap = None
        if may_trap:
            self.traps = True
            trap = len(self.consts)
            described = op[4][3] if kind == OP_COMPUTE2 else None
            self.consts.append(described if described is not None
                               else site(k))
        self.produced[dest] = len(self.shape)
        self.shape.append((template, tuple(refs), trap))
        self.dests.append(dest)
        self.latency += latency

    def flush(self) -> None:
        if not self.shape:
            return
        shape = tuple(self.shape)
        run = _RUN_MEMO.get(shape)
        if run is None:
            run = _RUN_MEMO[shape] = _compile_run(shape)
        self.out.append((OP_RUN, run, tuple(self.regs) + tuple(self.dests),
                         tuple(self.consts), len(shape), self.latency))
        self._reset()


# ---------------------------------------------------------------------------
# descriptors
#
# The symbolic program form describes every pure computation with a small
# pure-data descriptor (a list, so it survives JSON unchanged); the first
# element names the template family, the rest are its parameters.  Types
# embed as ``["i", bits]`` / ``["f", bits]``; types a template never reads
# (the pointer sides of a bitcast) embed as ``["p"]``.

def _encode_type(type_) -> list:
    if isinstance(type_, IntType):
        return ["i", type_.bits]
    if isinstance(type_, FloatType):
        return ["f", type_.bits]
    return ["p"]


def _binary_desc(instr: BinaryOp) -> list:
    # The trap-message repr slot is None in the symbolic form (value
    # names are not stable across print/parse); materialization fills it
    # from the bound function's own instruction.
    opcode = instr.opcode
    if isinstance(instr.type, FloatType):
        if opcode in _FLOAT2:
            return ["float2", opcode]
        return ["generic2", opcode, _encode_type(instr.type), None]
    if opcode in _INT2:
        return ["int2", opcode, _encode_type(instr.type)]
    return ["generic2", opcode, _encode_type(instr.type), None]


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
            # schema field; the driver charges the machine's own (equal:
            # programs are keyed by latency model)
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


def _materialize_ops(ops, site, const_of: Dict[int, object]) -> tuple:
    """One block's µops: pure µops fused into ``OP_RUN``s, the rest bound
    to ``site(k)``, the repr of the live instruction behind µop ``k``."""
    out: List[tuple] = []
    run = _RunBuilder(const_of, out)
    for k, op in enumerate(ops):
        kind = op[0]
        if kind in (OP_COMPUTE2, OP_COMPUTE1, OP_SELECT, OP_SREG):
            run.add(op, site, k)
            continue
        run.flush()
        if kind in (OP_LOAD, OP_STORE):
            out.append(tuple(op[:5])
                       + (op[5] if op[5] is not None else site(k),))
        elif kind == OP_TRAP:
            out.append((OP_TRAP, op[1] if op[1] is not None
                        else f"cannot evaluate {site(k)}"))
        elif kind == OP_BARRIER:
            out.append(tuple(op))
        else:
            raise ProgramDecodeError(f"unknown µop kind {kind!r}")
    run.flush()
    return tuple(out)


def _materialize_term(term, site) -> tuple:
    kind = term[0]
    if kind in (TERM_RET, TERM_NONE):
        return (kind,)
    if kind == TERM_BR:
        return (TERM_BR, term[1], tuple(tuple(p) for p in term[2]))
    if kind == TERM_CBR:
        branch_repr = term[7] if term[7] is not None else site(-1)
        return (TERM_CBR, term[1], term[2], term[3], term[4],
                tuple(tuple(p) for p in term[5]),
                tuple(tuple(p) for p in term[6]), branch_repr)
    raise ProgramDecodeError(f"unknown terminator kind {kind!r}")


def _block_schedule(block: BasicBlock) -> List[Optional[Instruction]]:
    """The simple instructions a lowering of ``block`` visits, then its
    terminator (None if it has none) — the lockstep counterpart of
    :meth:`_Lowerer.lower`, used by materialization to rebind
    trap-message reprs to the live IR."""
    schedule: List[Optional[Instruction]] = []
    for instr in block.instructions:
        if isinstance(instr, Phi):
            continue
        if isinstance(instr, (Branch, Ret)):
            return schedule + [instr]
        schedule.append(instr)
    return schedule + [None]


def _check_shape(shape: list, function: Function) -> None:
    """:class:`ProgramDecodeError` unless a program of ``shape`` — its
    ``(block name, µop count)`` pairs — is a lowering of the blocks of
    ``function``."""
    live = [(block.name, len(_block_schedule(block)) - 1)
            for block in function.blocks]
    if shape != live:
        raise ProgramDecodeError(f"program lowers blocks {shape}, "
                                 f"@{function.name} has {live}")


class _SiteRepr(NamedTuple):
    """The repr of scheduled instruction ``k`` of block ``block`` of a
    function.  Formatting it into a trap message is what renders it —
    and, for a body still text at materialization, parses the body — so
    a program that never traps formats no instruction."""

    function: Function
    block: int
    k: int

    def __str__(self) -> str:
        return repr(_block_schedule(self.function.blocks[self.block])[self.k])


def materialize_program(data: dict, function: Function) -> LoweredProgram:
    """Turn a symbolic program (fresh or deserialized) into a runnable
    :class:`LoweredProgram` bound to ``function``.

    Argument and global slots resolve **by name** against ``function``
    (and its module), so a program cached in one process binds to the
    re-parsed IR of another.  Raises :class:`ProgramDecodeError` when the
    schema, a descriptor, or a name does not line up.

    Trap sites get :class:`_SiteRepr`, rendered only if a trap message
    is formatted.  Against a
    :attr:`~repro.ir.function.Function.deferred` body nothing here reads
    a block: the check of block names and µop counts waits for
    :func:`_confirm_seed`.
    """
    try:
        if data["schema"] != PROGRAM_SCHEMA:
            raise ProgramDecodeError(
                f"program schema {data['schema']!r} != {PROGRAM_SCHEMA!r}")
        const_of = {index: value for index, value in data["const_slots"]}
        if not function.deferred:
            _check_shape([(b["name"], len(b["ops"])) for b in data["blocks"]],
                         function)
        blocks = []
        for index, encoded in enumerate(data["blocks"]):
            site = partial(_SiteRepr, function, index)
            blocks.append(LoweredBlock(
                encoded["name"],
                _materialize_ops(encoded["ops"], site, const_of),
                _materialize_term(encoded["term"], site)))
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
            const_slots=list(const_of.items()),
            arg_slots=arg_slots,
            global_slots=global_slots,
        )
    except ProgramDecodeError:
        raise
    except Exception as exc:  # malformed shapes: KeyError, IndexError, ...
        raise ProgramDecodeError(f"malformed symbolic program: {exc}") from exc


def lower_function(function: Function, latency: LatencyModel) -> LoweredProgram:
    """Lower ``function`` to a µop program (uncached; see :func:`get_program`)."""
    return materialize_program(lower_symbolic(function, latency), function)


# ---------------------------------------------------------------------------
# memoization — through repro.ir.memo_lookup / memo_store, like the
# analysis bundle.  The key is latency_token(machine.latency) itself:
# latencies are baked into µops and lower_symbolic sees nothing else of
# the machine, so every reconvergence policy shares one program; being
# JSON text, the token cannot equal another layer's memo key.


def get_program(function: Function, machine) -> LoweredProgram:
    """Memoized :func:`lower_function` (the launch-time entry point).

    ``machine`` is a :class:`repro.simt.MachineConfig`; the memo is keyed
    by its latency model, so machines that differ only in fields µop
    programs cannot observe (warp size, coalescing, reconvergence
    policy) share entries while latency-model changes always miss.
    """
    token = latency_token(machine.latency)
    program = memo_lookup(function, token)
    if program is None:
        program = lower_function(function, machine.latency)
        memo_store(function, token, program)
    return program


def seed_program(function: Function, machine,
                 program: LoweredProgram) -> None:
    """Pre-populate the launch memo with an already-materialized program.

    The compile cache calls this after a warm hit and after a store: the
    symbolic program is materialized against the replayed (or just
    compiled) ``function`` and seeded here, so the first launch skips
    :func:`lower_function` entirely.
    The entry is stamped like a memoized lowering — if the function
    mutates before launch, the seed simply misses and lowering runs
    normally.  A deferred body's stamp is the constant of an unparsed
    body, so launching never parses it; the parse re-stamps the entry or
    drops it (:func:`_confirm_seed`).
    """
    token = latency_token(machine.latency)
    memo_store(function, token, program)
    if function.deferred:
        function.after_body(partial(_confirm_seed, token, program))


def _confirm_seed(token: str, program: LoweredProgram,
                  function: Function) -> None:
    """``function``'s body was just parsed: store the ``program`` seeded
    on it again, now stamped with the body's fingerprint, or drop it
    (the next launch re-lowers) if its blocks are not the ones the text
    turned out to hold."""
    if function.memo.get(token, (None, None))[1] is not program:
        return  # retired by repro.ir.retire_memos, or replaced
    shape = [(block.name, sum(op[4] if op[0] == OP_RUN else 1
                              for op in block.ops))
             for block in program.blocks]
    try:
        _check_shape(shape, function)
    except ProgramDecodeError:
        del function.memo[token]
    else:
        memo_store(function, token, program)
