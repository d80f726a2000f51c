"""Type system for the SSA IR.

The type system mirrors the subset of LLVM types the CFM paper relies on:
fixed-width integers (``i1`` for booleans up to ``i64``), IEEE floats, and
pointers qualified with an *address space*.  Address spaces matter for the
evaluation: the paper's Figure 10 counts memory instructions by the space
they target (vector/global, LDS/shared, flat), so pointers carry that
information through the whole pipeline.

All types are interned: constructing ``IntType(32)`` twice yields the same
object, so types compare (and hash) by identity.
"""

from __future__ import annotations

from typing import Dict, Tuple


class Type:
    """Base class for all IR types."""

    def __eq__(self, other: object) -> bool:  # interned: identity equality
        return self is other

    def __hash__(self) -> int:
        return id(self)

    # Interned objects are atomic: copying must preserve identity, or
    # identity-based equality breaks (and ``__new__`` interning rejects
    # the copy protocol's argument-less reconstruction).
    def __copy__(self) -> "Type":
        return self

    def __deepcopy__(self, memo) -> "Type":
        return self

    @property
    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    @property
    def is_bool(self) -> bool:
        return isinstance(self, IntType) and self.bits == 1


class VoidType(Type):
    """The type of instructions that produce no value (e.g. ``store``)."""

    _instance: "VoidType" = None

    def __new__(cls) -> "VoidType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "void"


class LabelType(Type):
    """The type of basic-block references (branch targets)."""

    _instance: "LabelType" = None

    def __new__(cls) -> "LabelType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "label"


class IntType(Type):
    """A fixed-width two's-complement integer type, ``i<bits>``."""

    _cache: Dict[int, "IntType"] = {}

    def __new__(cls, bits: int) -> "IntType":
        if bits <= 0:
            raise ValueError(f"integer width must be positive, got {bits}")
        inst = cls._cache.get(bits)
        if inst is None:
            inst = super().__new__(cls)
            inst.bits = bits
            cls._cache[bits] = inst
        return inst

    def __repr__(self) -> str:
        return f"i{self.bits}"

    @property
    def min_value(self) -> int:
        return -(1 << (self.bits - 1)) if self.bits > 1 else 0

    @property
    def max_value(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.bits > 1 else 1


class FloatType(Type):
    """An IEEE-754 floating point type, ``f32`` or ``f64``."""

    _cache: Dict[int, "FloatType"] = {}

    def __new__(cls, bits: int) -> "FloatType":
        if bits not in (32, 64):
            raise ValueError(f"float width must be 32 or 64, got {bits}")
        inst = cls._cache.get(bits)
        if inst is None:
            inst = super().__new__(cls)
            inst.bits = bits
            cls._cache[bits] = inst
        return inst

    def __repr__(self) -> str:
        return "float" if self.bits == 32 else "double"


class AddressSpace:
    """Address-space constants, numbered as in the AMDGPU backend.

    ``FLAT`` pointers may address either global or shared memory; the
    simulator resolves them dynamically, and the metrics layer counts them
    as *flat* instructions (Figure 10 of the paper).
    """

    FLAT = 0
    GLOBAL = 1
    SHARED = 3

    _names = {FLAT: "flat", GLOBAL: "global", SHARED: "shared"}

    @classmethod
    def name(cls, space: int) -> str:
        return cls._names.get(space, f"as{space}")


class PointerType(Type):
    """A pointer to ``pointee`` in a given address space."""

    _cache: Dict[Tuple[Type, int], "PointerType"] = {}

    def __new__(cls, pointee: Type, space: int = AddressSpace.FLAT) -> "PointerType":
        key = (pointee, space)
        inst = cls._cache.get(key)
        if inst is None:
            inst = super().__new__(cls)
            inst.pointee = pointee
            inst.space = space
            cls._cache[key] = inst
        return inst

    def __repr__(self) -> str:
        if self.space == AddressSpace.FLAT:
            return f"{self.pointee!r}*"
        return f"{self.pointee!r} addrspace({self.space})*"


# Commonly used singletons.
VOID = VoidType()
LABEL = LabelType()
I1 = IntType(1)
I8 = IntType(8)
I32 = IntType(32)
I64 = IntType(64)
F32 = FloatType(32)
F64 = FloatType(64)


def pointer(pointee: Type, space: int = AddressSpace.FLAT) -> PointerType:
    """Convenience constructor for :class:`PointerType`."""
    return PointerType(pointee, space)
