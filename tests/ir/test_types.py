"""Tests for the interned IR type system."""

import pytest

from repro.ir import (
    AddressSpace,
    F32,
    F64,
    FloatType,
    I1,
    I32,
    I64,
    IntType,
    LABEL,
    PointerType,
    VOID,
    pointer,
)


class TestInterning:
    def test_int_types_are_interned(self):
        assert IntType(32) is IntType(32)
        assert IntType(32) is I32
        assert IntType(32) is not IntType(64)

    def test_float_types_are_interned(self):
        assert FloatType(32) is F32
        assert FloatType(64) is F64

    def test_pointer_types_are_interned(self):
        assert pointer(I32, AddressSpace.GLOBAL) is pointer(I32, AddressSpace.GLOBAL)
        assert pointer(I32, AddressSpace.GLOBAL) is not pointer(I32, AddressSpace.SHARED)
        assert pointer(I32) is not pointer(I64)

    def test_void_and_label_singletons(self):
        from repro.ir import VoidType, LabelType

        assert VoidType() is VOID
        assert LabelType() is LABEL


class TestPredicates:
    def test_is_integer(self):
        assert I32.is_integer
        assert not F32.is_integer
        assert not pointer(I32).is_integer

    def test_is_bool(self):
        assert I1.is_bool
        assert not I32.is_bool

    def test_is_pointer(self):
        assert pointer(I32).is_pointer
        assert not I32.is_pointer

    def test_is_void(self):
        assert VOID.is_void
        assert not I32.is_void


class TestIntRanges:
    def test_i32_range(self):
        assert I32.min_value == -(2**31)
        assert I32.max_value == 2**31 - 1

    def test_i1_range(self):
        assert I1.min_value == 0
        assert I1.max_value == 1

    def test_invalid_widths_rejected(self):
        with pytest.raises(ValueError):
            IntType(0)
        with pytest.raises(ValueError):
            IntType(-8)
        with pytest.raises(ValueError):
            FloatType(16)


class TestRepr:
    def test_int_repr(self):
        assert repr(I32) == "i32"
        assert repr(I1) == "i1"

    def test_float_repr(self):
        assert repr(F32) == "float"
        assert repr(F64) == "double"

    def test_pointer_repr(self):
        assert repr(pointer(I32, AddressSpace.GLOBAL)) == "i32 addrspace(1)*"
        assert repr(pointer(I32, AddressSpace.SHARED)) == "i32 addrspace(3)*"
        assert repr(pointer(I32, AddressSpace.FLAT)) == "i32*"

    def test_address_space_names(self):
        assert AddressSpace.name(AddressSpace.GLOBAL) == "global"
        assert AddressSpace.name(AddressSpace.SHARED) == "shared"
        assert AddressSpace.name(AddressSpace.FLAT) == "flat"
