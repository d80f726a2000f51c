"""Tests for Function/Module/GlobalVariable plumbing and name handling."""

import pytest

from repro.ir import (
    AddressSpace,
    Function,
    GlobalVariable,
    I32,
    IRBuilder,
    Module,
    pointer,
    print_module,
)
from repro.ir.parser import parse_module


class TestFunction:
    def test_entry_requires_blocks(self):
        f = Function("f", [], [])
        with pytest.raises(RuntimeError):
            f.entry

    def test_arg_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Function("f", [I32], ["a", "b"])

    def test_arg_by_name(self):
        f = Function("f", [I32, I32], ["x", "y"])
        assert f.arg_by_name("y").index == 1
        with pytest.raises(KeyError):
            f.arg_by_name("z")

    def test_instructions_iterates_all_blocks(self):
        f = Function("f", [], [])
        a, b = f.add_block("a"), f.add_block("b")
        builder = IRBuilder(a)
        builder.br(b)
        builder.position_at_end(b)
        builder.ret()
        assert [i.opcode for i in f.instructions()] == ["br", "ret"]

    def test_assign_names_deduplicates(self):
        f = Function("f", [I32], ["x"])
        a = f.add_block("a")
        builder = IRBuilder(a)
        v1 = builder.add(f.args[0], builder.const(1), "v")
        v2 = builder.add(f.args[0], builder.const(2), "v")
        builder.ret()
        f.assign_names()
        assert v1.name != v2.name
        assert {v1.name, v2.name} == {"v", "v.1"}

    def test_assign_names_avoids_argument_names(self):
        f = Function("f", [I32], ["x"])
        a = f.add_block("a")
        builder = IRBuilder(a)
        v = builder.add(f.args[0], builder.const(1), "x")
        builder.ret()
        f.assign_names()
        assert v.name != "x"


class TestModule:
    def test_duplicate_function_rejected(self):
        m = Module("m")
        m.add_function(Function("f", [], []))
        with pytest.raises(ValueError):
            m.add_function(Function("f", [], []))

    def test_duplicate_global_rejected(self):
        m = Module("m")
        m.add_global(GlobalVariable("g", pointer(I32, AddressSpace.GLOBAL), 4))
        with pytest.raises(ValueError):
            m.add_global(GlobalVariable("g", pointer(I32, AddressSpace.GLOBAL), 4))

    def test_global_must_be_pointer_typed(self):
        with pytest.raises(TypeError):
            GlobalVariable("g", I32, 4)

    def test_is_shared_flag(self):
        shared = GlobalVariable("s", pointer(I32, AddressSpace.SHARED), 4)
        global_ = GlobalVariable("g", pointer(I32, AddressSpace.GLOBAL), 4)
        assert shared.is_shared
        assert not global_.is_shared

    def test_multi_function_module_prints_and_parses(self):
        text = """
@buf = global [8 x i32]

define void @first(i32 %x) {
entry:
  ret void
}

define void @second(i32 addrspace(1)* %p) {
entry:
  %g = getelementptr i32, i32 addrspace(1)* @buf, i32 0
  %v = load i32, i32 addrspace(1)* %g
  ret void
}
"""
        m = parse_module(text)
        assert set(m.functions) == {"first", "second"}
        printed = print_module(m)
        m2 = parse_module(printed)
        assert print_module(m2) == printed


class TestScalars:
    def test_wrap_and_unsigned(self):
        from repro.ir.scalars import unsigned, wrap

        assert wrap(2**31, I32) == -(2**31)
        assert wrap(-1, I32) == -1
        assert unsigned(-1, I32) == 2**32 - 1

    def test_eval_binary_edge_cases(self):
        from repro.ir.scalars import EvalError, eval_binary

        assert eval_binary("ashr", -8, 1, I32) == -4
        assert eval_binary("lshr", -8, 1, I32) == 2**31 - 4
        with pytest.raises(EvalError):
            eval_binary("shl", 1, 40, I32)
        with pytest.raises(EvalError):
            eval_binary("udiv", 1, 0, I32)

    def test_float_division_special_cases(self):
        import math

        from repro.ir.scalars import eval_binary
        from repro.ir import F32

        assert eval_binary("fdiv", 1.0, 0.0, F32) == float("inf")
        assert eval_binary("fdiv", -1.0, 0.0, F32) == float("-inf")
        assert math.isnan(eval_binary("fdiv", 0.0, 0.0, F32))

    def test_eval_cast(self):
        from repro.ir.scalars import EvalError, eval_cast
        from repro.ir import I8, F32

        assert eval_cast("zext", -1, I8, I32) == 255
        assert eval_cast("sext", -1, I8, I32) == -1
        assert eval_cast("trunc", 257, I32, I8) == 1
        assert eval_cast("fptosi", -2.7, F32, I32) == -2  # trunc toward 0
        # fdiv by zero deliberately yields nan/inf; converting those is a
        # typed trap, not int()'s ValueError/OverflowError
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(EvalError, match="fptosi of non-finite"):
                eval_cast("fptosi", bad, F32, I32)
        assert eval_cast("sitofp", 5, I32, F32) == 5.0
