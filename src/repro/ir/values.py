"""Core SSA value hierarchy: values, users, constants, and use lists.

The design mirrors LLVM's ``Value``/``User`` split:

* every :class:`Value` but a literal (interned, see :class:`_Literal`)
  knows the set of :class:`User` objects that reference it (its *uses*), and
* every :class:`User` holds an ordered operand list.

Use lists are what make the melding transformation practical — CFM's code
generation needs ``replace_all_uses_with`` (RAUW) when aligned instructions
collapse into a single melded instruction.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, Optional, Tuple

from .types import Type, IntType, FloatType, I1


class Value:
    """Anything that can appear as an operand: constants, arguments,
    instructions, basic blocks (as branch targets), globals."""

    def __init__(self, type_: Type, name: str = "") -> None:
        self.type = type_
        self.name = name
        # Each entry is (user, operand_index); a user may appear more than
        # once if it references this value through several operand slots.
        self._uses: List[Tuple["User", int]] = []

    # ---- use-list management -------------------------------------------

    @property
    def uses(self) -> List[Tuple["User", int]]:
        """Snapshot of (user, operand index) pairs referencing this value."""
        return list(self._uses)

    @property
    def users(self) -> List["User"]:
        """Users referencing this value (deduplicated, in first-use order)."""
        seen = []
        for user, _ in self._uses:
            if user not in seen:
                seen.append(user)
        return seen

    def _add_use(self, user: "User", index: int) -> None:
        self._uses.append((user, index))

    def _remove_use(self, user: "User", index: int) -> None:
        self._uses.remove((user, index))

    @property
    def num_uses(self) -> int:
        return len(self._uses)

    @property
    def is_used(self) -> bool:
        return bool(self._uses)

    def replace_all_uses_with(self, new: "Value") -> None:
        """Rewrite every operand slot referencing ``self`` to ``new``."""
        if new is self:
            return
        for user, index in self.uses:
            user.set_operand(index, new)

    # ---- misc ------------------------------------------------------------

    def ref(self) -> str:
        """Short printable reference (e.g. ``%x`` or ``42``)."""
        return f"%{self.name}" if self.name else "%<anon>"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.ref()}>"


class User(Value):
    """A value that references other values through an operand list."""

    def __init__(self, type_: Type, name: str = "") -> None:
        super().__init__(type_, name)
        self._operands: List[Optional[Value]] = []

    @property
    def operands(self) -> List[Value]:
        return list(self._operands)

    @property
    def num_operands(self) -> int:
        return len(self._operands)

    def operand(self, index: int) -> Value:
        return self._operands[index]

    def set_operand(self, index: int, value: Value) -> None:
        old = self._operands[index]
        if old is value:
            return
        if old is not None:
            old._remove_use(self, index)
        self._operands[index] = value
        if value is not None:
            value._add_use(self, index)

    def _append_operand(self, value: Value) -> int:
        index = len(self._operands)
        self._operands.append(None)
        self.set_operand(index, value)
        return index

    def _remove_operand(self, index: int) -> None:
        """Remove an operand slot, shifting later slots down.

        Only φ nodes use this (incoming edges disappear when predecessors
        are removed); use-list indices for shifted operands are rewritten.
        """
        old = self._operands[index]
        if old is not None:
            old._remove_use(self, index)
        del self._operands[index]
        for i in range(index, len(self._operands)):
            op = self._operands[i]
            if op is not None:
                op._remove_use(self, i + 1)
                op._add_use(self, i)

    def drop_all_operands(self) -> None:
        """Detach every operand (used when deleting an instruction)."""
        for index, op in enumerate(self._operands):
            if op is not None:
                op._remove_use(self, index)
        self._operands = []

    def __iter__(self) -> Iterator[Value]:
        return iter(self._operands)


class _Literal(Value):
    """A constant or ``undef``.  Literals are interned: one object per
    type and value, so identity is the IR's one value equality.  That
    object stands in every function, so it records no uses, and it
    copies as itself."""

    name = ""
    _uses = ()
    #: (class, type, key) -> literal; ``setdefault`` makes racing threads agree
    _interned: Dict[tuple, "_Literal"] = {}

    def __init__(self, *args) -> None:
        pass  # ``__new__`` set the literal up when it was interned

    @classmethod
    def _intern(cls, type_: Type, key, **fields) -> "_Literal":
        literal = cls._interned.get((cls, type_, key))
        if literal is None:
            literal = object.__new__(cls)
            literal.__dict__.update(fields, type=type_)
            literal = cls._interned.setdefault((cls, type_, key), literal)
        return literal

    def _add_use(self, user: "User", index: int) -> None:
        """Literals record no uses."""

    _remove_use = _add_use

    def __deepcopy__(self, memo=None) -> "_Literal":
        return self

    __copy__ = __deepcopy__


class Constant(_Literal):
    """An immediate constant of integer or float type; floats are keyed
    by their IEEE bit pattern, so ``0.0`` and ``-0.0`` are two constants."""

    def __new__(cls, type_: Type, value) -> "Constant":
        if isinstance(type_, IntType):
            value = key = _wrap_int(int(value), type_.bits)
        elif isinstance(type_, FloatType):
            value = float(value)
            key = struct.pack("<d", value)
        else:
            raise TypeError(f"constants must be int or float typed, got {type_!r}")
        return cls._intern(type_, key, value=value)

    def ref(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"<Constant {self.type!r} {self.value}>"


class Undef(_Literal):
    """LLVM-style ``undef``: a value with no defined contents.

    CFM's unpredication and pre-processing steps introduce ``undef``
    incoming values on φ nodes for paths that never use the value
    (§IV-E/IV-F of the paper).  The simulator traps if an ``undef`` ever
    flows into an observable operation, which is stricter than LLVM and
    doubles as a correctness check on the transformation.
    """

    def __new__(cls, type_: Type) -> "Undef":
        return cls._intern(type_, None)

    def ref(self) -> str:
        return "undef"


class Argument(Value):
    """A formal parameter of a :class:`~repro.ir.function.Function`."""

    def __init__(self, type_: Type, name: str, index: int) -> None:
        super().__init__(type_, name)
        self.index = index


def const_int(value: int, type_: IntType) -> Constant:
    return Constant(type_, value)

def const_bool(value: bool) -> Constant:
    return Constant(I1, 1 if value else 0)


def _wrap_int(value: int, bits: int) -> int:
    """Wrap ``value`` to the signed range of an ``bits``-wide integer."""
    mask = (1 << bits) - 1
    value &= mask
    if bits > 1 and value >= (1 << (bits - 1)):
        value -= 1 << bits
    return value
