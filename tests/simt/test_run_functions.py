"""Generated run functions against the scalar semantics they inline.

The fast executor no longer calls :mod:`repro.ir.scalars`: lowering
generates one Python function per *shape* of run (maximal sequence of
pure µops) with ``wrap``, shifts, divisions and casts written out inline.
The oracle here holds every statement template to ``eval_binary`` /
``eval_icmp`` / ``eval_fcmp`` / ``eval_cast`` on boundary values, for
each way an operand can reach it (outside register, constant, value
computed earlier in the run), and then checks the rules that keep fused
execution indistinguishable from lockstep: one may-trap µop per run,
shape-keyed sharing, a bounded memo.
"""

from __future__ import annotations

import itertools
import math

import pytest

from repro import run_kernel
from repro.analysis.latency import LatencyModel
from repro.evaluation.runner import compile_baseline, compile_cfm
from repro.ir import F32, I1, I8, I32, I64
from repro.ir.scalars import (
    EvalError,
    eval_binary,
    eval_cast,
    eval_fcmp,
    eval_icmp,
)
from repro.kernels import REAL_WORLD_BUILDERS, SYNTHETIC_BUILDERS
from repro.simt import MachineConfig, SimulationError, lowering
from repro.simt.lowering import (
    OP_COMPUTE1,
    OP_COMPUTE2,
    OP_RUN,
    OP_SELECT,
    OP_SREG,
    UNDEF,
)

from tests.support import parse

INT_TYPES = (I1, I8, I32, I64)
FLOATS = (0.0, -0.0, 1.0, -1.5, 2.0 ** 40, math.inf, -math.inf, math.nan)
#: how an operand reaches the µop under test
KINDS = ("register", "constant", "in-run")
INSTR_REPR = "<the instruction>"


def _site(k):
    """The materializer's trap-site callback: repr of µop ``k``'s
    instruction."""
    return INSTR_REPR


def _ints(type_):
    """0, ±1, INT_MIN, INT_MAX and the shift amounts width−1 / width /
    negative."""
    bits = type_.bits
    return sorted({0, 1, -1, type_.min_value, type_.max_value,
                   bits - 1, bits, -bits})


def _tref(type_):
    return ["f" if type_ is F32 else "i", type_.bits]


def _run(symbolic_op, kinds, values):
    """Execute one µop as (the last µop of) a run over a single lane and
    return ``(result, source)``.  Operand ``j`` lives in slot ``10 + j``;
    an ``in-run`` operand is first copied by an identity µop so the µop
    under test reads it as a local of the run."""
    sources = list(range(10, 10 + len(values)))
    regs = [[UNDEF] for _ in range(40)]
    const_of = {}
    out = []
    builder = lowering._RunBuilder(const_of, out)
    for slot, kind, value in zip(sources, kinds, values):
        regs[slot][0] = value
        if kind == "constant":
            const_of[slot] = value
        elif kind == "in-run":
            builder.add([OP_COMPUTE1, slot + 10, slot,
                         ["cast", "bitcast", ["p"], ["p"]], 1], _site, 0)
    op = list(symbolic_op)
    position = op.index("SRC")
    op[position:position + 1] = [
        slot + 10 if kind == "in-run" else slot
        for slot, kind in zip(sources, kinds)]
    builder.add(op, _site, 0)
    builder.flush()
    (tag, fn, slots, consts, n_ops, latency), = out
    assert tag == OP_RUN and n_ops == 1 + kinds.count("in-run")
    assert latency == n_ops
    sregs = ([7], [64], [3], [5])
    try:
        fn(regs, sregs, (0,), slots, consts)
    except SimulationError as exc:
        return exc, fn.source
    return regs[op[1]][0], fn.source


def _check(symbolic_op, kinds, values, expect):
    """``expect()`` computes the scalar-semantics result (or raises
    EvalError); undef operands short-circuit to undef first."""
    got, source = _run(symbolic_op, kinds, values)
    context = f"{symbolic_op} {kinds} {values}\n{source}"
    if any(value is UNDEF for value in values):
        assert got is UNDEF, context
        return
    try:
        want = expect()
    except EvalError as exc:
        assert isinstance(got, SimulationError), context
        assert str(got) == f"{exc}: {INSTR_REPR}", context
        assert isinstance(got.__cause__, EvalError), context
        assert str(got.__cause__) == str(exc), context
        return
    # repr equality: distinguishes nan, -0.0, int from float, 1 from True
    assert repr(got) == repr(want), context


def _operand_cases(domains):
    """Every operand-kind combination × every boundary-value tuple
    (``UNDEF`` cannot be a constant)."""
    for kinds in itertools.product(KINDS, repeat=len(domains)):
        for values in itertools.product(*domains):
            if any(kind == "constant" and value is UNDEF
                   for kind, value in zip(kinds, values)):
                continue
            yield kinds, values


@pytest.mark.parametrize("type_", INT_TYPES, ids=repr)
def test_integer_binary_templates(type_):
    domain = [UNDEF] + _ints(type_)
    descriptors = [(op, ["int2", op, _tref(type_)])
                   for op in ("add", "sub", "mul", "and", "or", "xor")]
    descriptors += [(op, ["generic2", op, _tref(type_), INSTR_REPR])
                    for op in ("sdiv", "srem", "udiv", "urem",
                               "shl", "lshr", "ashr", "fdiv")]  # fdiv: bad
    for opcode, desc in descriptors:
        for kinds, (a, b) in _operand_cases([domain, domain]):
            _check([OP_COMPUTE2, 30, "SRC", desc, 1], kinds, (a, b),
                   lambda: eval_binary(opcode, a, b, type_))


@pytest.mark.parametrize("type_", INT_TYPES, ids=repr)
def test_icmp_templates(type_):
    domain = [UNDEF] + _ints(type_)
    for predicate in ("eq", "ne", "slt", "sle", "sgt", "sge",
                      "ult", "ule", "ugt", "uge"):
        desc = ["icmp", predicate, _tref(type_)]
        for kinds, (a, b) in _operand_cases([domain, domain]):
            _check([OP_COMPUTE2, 30, "SRC", desc, 1], kinds, (a, b),
                   lambda: eval_icmp(predicate, a, b, type_))


def test_float_templates():
    domain = [UNDEF, *FLOATS]
    # `add float` passes the verifier and traps lazily ("bad float opcode")
    for opcode in ("fadd", "fsub", "fmul", "fdiv", "add"):
        desc = (["float2", opcode] if opcode in ("fadd", "fsub", "fmul")
                else ["generic2", opcode, _tref(F32), INSTR_REPR])
        for kinds, (a, b) in _operand_cases([domain, domain]):
            _check([OP_COMPUTE2, 30, "SRC", desc, 1], kinds, (a, b),
                   lambda: eval_binary(opcode, a, b, F32))
    for predicate in ("oeq", "one", "olt", "ole", "ogt", "oge"):
        for kinds, (a, b) in _operand_cases([domain, domain]):
            _check([OP_COMPUTE2, 30, "SRC", ["fcmp", predicate], 1],
                   kinds, (a, b), lambda: eval_fcmp(predicate, a, b))
    for kinds, (a,) in _operand_cases([domain]):
        _check([OP_COMPUTE1, 30, "SRC", ["fneg"], 1], kinds, (a,),
               lambda: -a)


def test_gep_and_minmax_templates():
    domain = [UNDEF] + _ints(I32)
    for size in (1, 2, 4, 8):
        for kinds, (a, b) in _operand_cases([domain, domain]):
            _check([OP_COMPUTE2, 30, "SRC", ["gep", size], 1], kinds, (a, b),
                   lambda: a + b * size)
    for which, fn in (("min", min), ("max", max)):
        for kinds, (a, b) in _operand_cases([domain, domain]):
            _check([OP_COMPUTE2, 30, "SRC", ["minmax", which], 1], kinds,
                   (a, b), lambda: fn(a, b))


def test_cast_templates():
    casts = [("zext", I8, I32), ("zext", I1, I32), ("sext", I8, I32),
             ("trunc", I32, I8), ("trunc", I64, I1), ("sitofp", I32, F32),
             ("fptosi", F32, I32), ("fptosi", F32, I8),
             ("bitcast", None, None)]
    for opcode, from_type, to_type in casts:
        values = FLOATS if from_type is F32 else _ints(from_type or I32)
        desc = ["cast", opcode,
                _tref(from_type) if from_type else ["p"],
                _tref(to_type) if to_type else ["p"]]
        for kinds, (a,) in _operand_cases([[UNDEF, *values]]):
            _check([OP_COMPUTE1, 30, "SRC", desc, 1], kinds, (a,),
                   lambda: eval_cast(opcode, a, from_type, to_type))


def test_select_and_special_register_templates():
    """``select`` propagates only an undef *condition* (the chosen side
    passes through, undef or not); special registers read their bank."""
    domain = [UNDEF, 0, 1, -1]
    for kinds, (c, t, f) in _operand_cases([domain, domain, domain]):
        got, source = _run([OP_SELECT, 30, "SRC", 1], kinds, (c, t, f))
        want = UNDEF if c is UNDEF else (t if c else f)
        assert got is want or got == want, f"{kinds} {(c, t, f)}\n{source}"
    sregs = (7, 64, 3, 5)
    for tag, want in enumerate(sregs):
        out = []
        builder = lowering._RunBuilder({}, out)
        builder.add([OP_SREG, 2, tag, 1], _site, 0)
        builder.flush()
        regs = [[UNDEF] for _ in range(3)]
        out[0][1](regs, tuple([v] for v in sregs), (0,), out[0][2], out[0][3])
        assert regs[2][0] == want


# ---- the rules ------------------------------------------------------------


TRAPS_AT_DIFFERENT_UOPS = """
define void @k(i32 addrspace(1)* %d, i32 addrspace(1)* %s) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %pd = getelementptr i32, i32 addrspace(1)* %d, i32 %tid
  %ps = getelementptr i32, i32 addrspace(1)* %s, i32 %tid
  %x = load i32, i32 addrspace(1)* %pd
  %y = load i32, i32 addrspace(1)* %ps
  %q = sdiv i32 100, %x
  %z = shl i32 1, %y
  %sum = add i32 %q, %z
  store i32 %sum, i32 addrspace(1)* %pd
  ret void
}
"""


@pytest.mark.parametrize("policy", ("ipdom", "min-pc"))
def test_lanes_trapping_at_different_uops_raise_the_lockstep_error(policy):
    """Lane 0 traps at the *second* µop (shift by 40), lane 1 at the
    *first* (division by zero).  Lockstep runs the first µop on every
    lane before the second, so the division error wins; a fused loop
    holding both would reach lane 0's shift first."""
    messages = {}
    for executor in ("reference", "fast"):
        f = parse(TRAPS_AT_DIFFERENT_UOPS)
        machine = MachineConfig(executor=executor, reconvergence=policy)
        with pytest.raises(SimulationError) as caught:
            run_kernel(f.module, "k", 1, 4,
                       buffers={"d": [1, 0, 1, 1], "s": [40, 1, 1, 1]},
                       machine=machine)
        assert isinstance(caught.value.__cause__, EvalError)
        messages[executor] = str(caught.value)
    assert messages["fast"] == messages["reference"]
    assert messages["fast"].startswith("integer division by zero: %q = sdiv")


FPTOSI_OF_INF = """
define void @k(i32 addrspace(1)* %p, float addrspace(1)* %f) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %pf = getelementptr float, float addrspace(1)* %f, i32 %tid
  %den = load float, float addrspace(1)* %pf
  %q = fdiv float 1.0, %den
  %v = fptosi float %q to i32
  %ptr = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  store i32 %v, i32 addrspace(1)* %ptr
  ret void
}
"""


def test_fptosi_of_non_finite_traps_identically_on_both_executors():
    """Used to escape ``run_kernel`` as a bare ValueError/OverflowError."""
    messages = {}
    for executor in ("reference", "fast"):
        f = parse(FPTOSI_OF_INF)
        with pytest.raises(SimulationError) as caught:
            run_kernel(f.module, "k", 1, 4,
                       buffers={"p": [0] * 4, "f": [1.0, 0.0, 2.0, 4.0]},
                       machine=MachineConfig(executor=executor))
        assert isinstance(caught.value.__cause__, EvalError)
        messages[executor] = str(caught.value)
    assert messages["fast"] == messages["reference"]
    assert messages["fast"].startswith("fptosi of non-finite value inf: %v =")


SHAPE_TWIN = """
define void @k(i32 addrspace(1)* %p{extra}) {{
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %a = mul i32 %tid, {c0}
  %b = ashr i32 %a, {c1}
  %c = icmp slt i32 %b, {c2}
  %d = select i1 %c, i32 %a, i32 %b
  %ptr = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  store i32 %d, i32 addrspace(1)* %ptr
  ret void
}}
"""


def _run_functions(function):
    program = lowering.lower_function(function, LatencyModel())
    return [op[1] for block in program.blocks for op in block.ops
            if op[0] == OP_RUN]


def test_kernels_differing_in_slots_and_constants_share_one_function():
    first = parse(SHAPE_TWIN.format(extra="", c0=3, c1=2, c2=100))
    second = parse(SHAPE_TWIN.format(
        extra=", i32 %unused, i32 %unused2", c0=11, c1=5, c2=-7))
    before = len(lowering._RUN_MEMO)
    runs_first = _run_functions(first)
    grown = len(lowering._RUN_MEMO)
    runs_second = _run_functions(second)
    assert len(runs_first) == len(runs_second) == 1
    assert runs_first[0] is runs_second[0]
    assert grown <= before + 1 and len(lowering._RUN_MEMO) == grown
    outputs, _ = run_kernel(second.module, "k", 1, 4, buffers={"p": [0] * 4},
                            scalars={"unused": 0, "unused2": 0})
    assert outputs["p"] == [(t * 11) if (t * 11) >> 5 < -7 else (t * 11) >> 5
                            for t in range(4)]


def test_all_benchmark_programs_need_under_100_shapes():
    """Shape reuse is what makes generated code affordable: every Fig. 8
    and synthetic program, both arms, together compile fewer than 100
    functions (the process-wide memo has no size option to tune)."""
    shapes = set()
    runs = 0
    for builders in (REAL_WORLD_BUILDERS, SYNTHETIC_BUILDERS):
        for builder in builders.values():
            for compile_arm in (compile_baseline, compile_cfm):
                case = builder()
                compile_arm(case)
                functions = _run_functions(case.function)
                runs += len(functions)
                shapes.update(functions)
    assert runs > 10 * len(shapes)
    assert len(shapes) < 100
