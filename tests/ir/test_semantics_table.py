"""Every consumer of the instruction-semantics table agrees with it.

``repro.ir.scalars`` spells what a strict pure instruction computes and
when it traps.  The reference warp, constant folding, the unroller's
trip-count evaluator and the meld validator evaluate *through* it; the
fast executor's generated run functions (``repro.simt.lowering``) inline
the same semantics and are the independent second spelling.  No program
generator emits a float op or a cast, so the five-arm oracle cannot see
these drift apart — this matrix can: every strict opcode, at every
width, on boundary operands.
"""

import itertools
import math

import pytest

from repro.analysis import validate
from repro.ir import (
    AddressSpace,
    BinaryOp,
    Call,
    Cast,
    Constant,
    F32,
    FCmp,
    FCmpPredicate,
    Function,
    I1,
    I8,
    I32,
    I64,
    ICmp,
    ICmpPredicate,
    IntrinsicName,
    IRBuilder,
    Module,
    Opcode,
    UnaryOp,
    const_bool,
    pointer,
)
from repro.ir import scalars
from repro.ir.scalars import EvalError, eval_strict, trap_operand
from repro.simt import MachineConfig, SimulationError, lowering, run_kernel
from repro.transforms import fold_constants
from repro.transforms.unroll import _SymbolicEvaluator

from tests.test_pipeline_driver import _sites

INTS = (I1, I8, I32, I64)
INF, NAN = math.inf, math.nan


def boundary(type_):
    if type_ is F32:
        return (0.0, -0.0, 1.0, -1.0, 2.5, -3e9, INF, -INF, NAN)
    w = type_.bits
    raw = (0, 1, -1, -(1 << (w - 1)), (1 << (w - 1)) - 1, w - 1, w, w + 1)
    return tuple(sorted({Constant(type_, v).value for v in raw}))


def _matrix():
    """``(id, operand types, make(*operands) -> Instruction)`` for every
    strict opcode at every width (``bitcast``, pointer-only, is below)."""
    def binary(opcode, ty):
        return (f"{opcode}-{ty!r}", (ty, ty),
                lambda a, b: BinaryOp(opcode, a, b, "v"))

    def cast(opcode, src, dst):
        return (f"{opcode}-{src!r}-{dst!r}", (src,),
                lambda a: Cast(opcode, a, dst, "v"))

    for opcode in sorted(Opcode.INT_BINARY):
        yield from (binary(opcode, ty) for ty in INTS)
    for opcode in sorted(Opcode.FLOAT_BINARY):
        yield binary(opcode, F32)
    yield "fneg", (F32,), lambda a: UnaryOp(Opcode.FNEG, a, "v")
    for predicate, ty in itertools.product(sorted(ICmpPredicate.ALL), INTS):
        yield (f"icmp-{predicate}-{ty!r}", (ty, ty),
               lambda a, b, p=predicate: ICmp(p, a, b, "v"))
    for predicate in sorted(FCmpPredicate.ALL):
        yield (f"fcmp-{predicate}", (F32, F32),
               lambda a, b, p=predicate: FCmp(p, a, b, "v"))
    for name, ty in itertools.product(
            (IntrinsicName.MIN, IntrinsicName.MAX), INTS + (F32,)):
        yield (f"{name}-{ty!r}", (ty, ty),
               lambda a, b, n=name, t=ty: Call(n, [a, b], t, "v"))
    for src, dst in itertools.combinations(INTS, 2):
        yield cast(Opcode.ZEXT, src, dst)
        yield cast(Opcode.SEXT, src, dst)
        yield cast(Opcode.TRUNC, dst, src)
    for ty in INTS:
        yield cast(Opcode.SITOFP, ty, F32)
        yield cast(Opcode.FPTOSI, F32, ty)


MATRIX = list(_matrix())
IDS = [case[0] for case in MATRIX]


def _kernel(types, make, constants=()):
    """``out[tid] = op(in0[tid], in1[tid])``; operand ``i`` is
    ``constants[i]`` instead where that is given."""
    names = [f"in{i}" for i in range(len(types))] + ["out"]
    probe = make(*(Constant(ty, 0) for ty in types))
    f = Function("k", [pointer(ty, AddressSpace.GLOBAL)
                       for ty in (*types, probe.type)], names)
    Module("m").add_function(f)
    b = IRBuilder(f.add_block("entry"))
    tid = b.thread_id()
    operands = [constant if constant is not None
                else b.load(b.gep(arg, tid))
                for arg, constant in itertools.zip_longest(
                    f.args[:-1], constants)]
    instr = b._insert(make(*operands))
    b.store(instr, b.gep(f.args[-1], tid))
    b.ret()
    return f, instr


def _launch(f, types, rows, executor):
    """Per-lane results of ``f`` over operand ``rows``, or the trap message."""
    buffers = {f"in{i}": [row[i] for row in rows] for i in range(len(types))}
    buffers["out"] = [None] * len(rows)
    element_types = {arg.name: arg.type.pointee for arg in f.args}
    try:
        out, _ = run_kernel(f.module, f, 1, len(rows), buffers=buffers,
                            element_types=element_types,
                            machine=MachineConfig(executor=executor))
    except SimulationError as exc:
        return str(exc)
    return out["out"]


def _expected(instr, values):
    try:
        return repr(eval_strict(instr, values))
    except EvalError as exc:
        return exc


def _static_consumers(make, types, values):
    """What constant folding, the unroller's evaluator and the validator
    make of the op on constant operands: each a value repr, or None for
    "refused" (left for run time / not a trip count / halted)."""
    constants = [Constant(ty, v) for ty, v in zip(types, values)]

    f, instr = _kernel(types, make, constants)
    store = f.entry.instructions[-2]
    fold_constants(f)
    folded = repr(store.value.value) if isinstance(store.value, Constant) \
        else None

    instr = make(*constants)
    evaluated = _SymbolicEvaluator({}).eval(instr)
    evaluated = None if evaluated is None else repr(evaluated)

    executor = validate._CaseExecutor(None, validate.SymbolTable(),
                                      const_bool(True), True, {}, None, 10)
    summary = validate.CaseSummary(case=True)
    executor._step(instr, None, summary)
    expr = executor.env[id(instr)]
    if summary.halted is None:
        assert expr[0] == "const" and expr[2] == repr(instr.type)
        validated = repr(expr[1])
    else:
        assert summary.halted == instr.opcode and summary.traps
        validated = None
    return folded, evaluated, validated


@pytest.mark.parametrize("name, types, make", MATRIX, ids=IDS)
def test_every_consumer_computes_what_the_table_says(name, types, make):
    rows = list(itertools.product(*(boundary(ty) for ty in types)))
    probe = make(*(Constant(ty, 1) for ty in types))
    assert not str(_expected(probe, [1] * len(types))).startswith("bad "), \
        f"{name} has no entry in the semantics table"

    expected = [_expected(probe, row) for row in rows]
    for row, want in zip(rows, expected):
        refused = None if isinstance(want, EvalError) else want
        assert _static_consumers(make, types, row) == (refused,) * 3, row

    # The executors: all defined rows in one launch, lane per row; each
    # trapping row alone (a trap ends the launch), message bytes included.
    f, instr = _kernel(types, make)
    fine = [row for row, want in zip(rows, expected) if isinstance(want, str)]
    traps = [(row, want) for row, want in zip(rows, expected)
             if isinstance(want, EvalError)]
    for executor in ("reference", "fast"):
        assert [repr(v) for v in _launch(f, types, fine, executor)] == \
            [want for want in expected if isinstance(want, str)], executor
        for row, want in traps:
            assert _launch(f, types, [row], executor) == \
                f"{want}: {instr!r}", (executor, row)

    # The fast path specializes a binary op on a constant right operand.
    if len(types) == 2:
        for rhs in boundary(types[1]):
            f, instr = _kernel(types, make, (None, Constant(types[1], rhs)))
            lanes = [row for row in rows if repr(row[1]) == repr(rhs)]
            wants = [_expected(probe, row) for row in lanes]
            for executor in ("reference", "fast"):
                got = _launch(f, types, lanes, executor)
                if isinstance(wants[0], EvalError):
                    assert got == f"{wants[0]}: {instr!r}", (executor, rhs)
                else:
                    assert [repr(v) for v in got] == wants, (executor, rhs)


@pytest.mark.parametrize("name, types, make", MATRIX, ids=IDS)
def test_trap_operand_is_lowerings_may_trap_bit(name, types, make):
    # Lowering reads constness of a *right* operand only (a unary op on a
    # constant is folded long before it is lowered), so a unary op is
    # compared in its non-constant form.
    rights = [None] + ([Constant(types[1], v) for v in boundary(types[1])]
                       if len(types) == 2 else [])
    for right in rights:
        f, instr = _kernel(types, make, () if right is None else (None, right))
        op = lowering._Lowerer(f, MachineConfig().latency)._lower_simple(instr)
        descriptor = op[4] if op[0] == lowering.OP_COMPUTE2 else op[3]
        _, may_trap = lowering._template(
            descriptor, None if right is None else right.value)
        assert (trap_operand(instr) is not None) == may_trap, (name, right)


def test_bitcast_is_the_identity():
    f = Function("k", [pointer(I32, AddressSpace.GLOBAL)], ["p"])
    Module("m").add_function(f)
    b = IRBuilder(f.add_block("entry"))
    cast = b.cast(Opcode.BITCAST, f.args[0], pointer(F32, AddressSpace.GLOBAL))
    b.store(Constant(F32, 1.5), b.gep(cast, b.thread_id()))
    b.ret()
    assert eval_strict(cast, [0x1000]) == 0x1000
    assert trap_operand(cast) is None
    for executor in ("reference", "fast"):
        out, _ = run_kernel(f.module, f, 1, 2, buffers={"p": [0, 0]},
                            element_types={"p": F32}, machine=MachineConfig(executor=executor))
        assert out["p"] == [1.5, 1.5]


def test_the_matrix_covers_every_strict_opcode():
    covered = {make(*(Constant(ty, 1) for ty in types))
               for _, types, make in MATRIX}
    assert {instr.opcode for instr in covered} | {Opcode.BITCAST} == \
        Opcode.BINARY | Opcode.CASTS | {Opcode.ICMP, Opcode.FCMP,
                                        Opcode.FNEG, Opcode.CALL}
    assert {type(instr) for instr in covered} == set(scalars._STRICT)


def test_the_per_family_evaluators_have_one_caller():
    assert _sites({"eval_binary", "eval_cast", "eval_icmp", "eval_fcmp"}) == {
        "ir/scalars.py": {"<module>"}}
