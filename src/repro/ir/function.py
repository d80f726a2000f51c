"""Functions, modules, and memory objects (kernel parameters & shared arrays).

A :class:`Function` models one GPU kernel: a CFG of basic blocks plus typed
arguments.  A :class:`Module` groups kernels with the global/shared memory
objects they reference (the paper's kernels stage data in LDS — shared
memory — which the simulator and the Figure-10 counters must distinguish
from global memory).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from .types import Type, PointerType, AddressSpace
from .values import Argument, Value
from .block import BasicBlock
from .instructions import Branch, Instruction, Phi

#: the memo epoch of this process; :attr:`Function.memo` shows only
#: entries stored under the current one
_memo_epoch = 0


def retire_memos() -> None:
    """Make every :attr:`Function.memo` entry in this process invisible.

    The quarantine after a failed task: memo entries are guarded by
    fingerprints of object *identities*, which cannot tell an entry a
    crashed task planted (a half-built lowering, stale analyses) from a
    valid one.  Memos live on the functions themselves, so retiring them
    is an epoch bump — every function's next :attr:`~Function.memo` read
    starts from an empty dict — and covers whatever a layer memoizes.
    """
    global _memo_epoch
    _memo_epoch += 1


def fingerprint(function: "Function") -> tuple:
    """Structural + operand-identity fingerprint of a function.

    The identity of every block, instruction, operand, successor and φ
    incoming block, so in-place operand rewrites, successor retargeting
    and φ incoming edits all change it.  O(instructions) per read, and
    constant for a deferred body: nothing can have mutated IR that is
    still text.
    """
    if function.deferred:
        return ("unparsed",)
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


def memo_lookup(function: "Function", key: str) -> Optional[object]:
    """The value :func:`memo_store` left under ``key`` if the function
    still has the :func:`fingerprint` it had then, else None."""
    entry = function.memo.get(key)
    if entry is not None and entry[0] == fingerprint(function):
        return entry[1]
    return None


def memo_store(function: "Function", key: str, value: object) -> None:
    """Memoize ``value`` under ``key``, stamped with the fingerprint the
    function has *now* — call it after computing ``value``, so whatever
    the computation did to the function (parsing a deferred body, for
    one) is part of the stamp.  Entries stamped on another state of the
    IR go: no lookup can return them, and they would keep the IR they
    describe alive."""
    stamp = fingerprint(function)
    memo = function.memo
    for other, (other_stamp, _) in list(memo.items()):
        if other_stamp != stamp:
            del memo[other]
    memo[key] = (stamp, value)


class GlobalVariable(Value):
    """A module-level array, e.g. a ``__shared__`` buffer.

    ``element_count`` is in elements of ``type.pointee``.  Shared variables
    get one copy per thread block in the simulator; global variables one
    copy per grid.
    """

    def __init__(self, name: str, type_: PointerType, element_count: int) -> None:
        if not isinstance(type_, PointerType):
            raise TypeError("global variables are pointer-typed")
        super().__init__(type_, name)
        self.element_count = element_count

    @property
    def is_shared(self) -> bool:
        return self.type.space == AddressSpace.SHARED

    def ref(self) -> str:
        return f"@{self.name}"


class Function:
    """A kernel: argument list + CFG. The first block is the entry."""

    def __init__(self, name: str, arg_types: Sequence[Type], arg_names: Sequence[str]) -> None:
        if len(arg_types) != len(arg_names):
            raise ValueError("argument types and names must have equal length")
        self.name = name
        self.args: List[Argument] = [
            Argument(t, n, i) for i, (t, n) in enumerate(zip(arg_types, arg_names))
        ]
        self._blocks: List[BasicBlock] = []
        #: while deferred (:meth:`defer_body`): the parse, then reactions
        self._pending: Optional[List[Callable[["Function"], None]]] = None
        self._taken_names: Dict[str, int] = {}
        self.module: Optional["Module"] = None
        self._memo: Dict[str, object] = {}
        self._memo_epoch = _memo_epoch

    @property
    def memo(self) -> Dict[str, object]:
        """Results derived from this function and memoized by the layer
        that computes them (``repro.analysis``: the analysis bundle,
        ``repro.simt.lowering``: lowered programs), each under its own
        key, written by :func:`memo_store` and read by
        :func:`memo_lookup`, which returns an entry only while the
        function's :func:`fingerprint` is the one stamped on it.  Held
        here rather than in module-level tables so they are freed with
        the function; empty again after :func:`retire_memos`."""
        if self._memo_epoch != _memo_epoch:
            self._memo, self._memo_epoch = {}, _memo_epoch
        return self._memo

    # ---- deferred bodies -----------------------------------------------------
    #
    # The parser's deferred mode leaves a body as text.  Such a function
    # has no ``_blocks`` attribute, and every accessor of the body reads
    # ``_blocks``, so :meth:`__getattr__` — which Python consults only
    # for a missing attribute — is the one place a body gets parsed, at
    # no cost to functions that have theirs.  ``copy.deepcopy`` and
    # ``pickle`` carry the text (the steps are picklable partials).

    def defer_body(self, parse: Callable[["Function"], None]) -> None:
        """(Parser only.)  Leave the body unparsed: ``parse(self)`` fills
        it in the first time anything reads the blocks."""
        del self._blocks
        self._pending = [parse]

    @property
    def deferred(self) -> bool:
        """The body is still text; reading the blocks will parse it."""
        return self._pending is not None

    def after_body(self, callback: Callable[["Function"], None]) -> None:
        """Run ``callback(self)`` right after the deferred body is parsed."""
        self._pending.append(callback)

    def __getattr__(self, name: str):
        if name != "_blocks" or not self.__dict__.get("_pending"):
            raise AttributeError(name)
        self._blocks = []
        pending, self._pending = self._pending, None
        for step in pending:
            step(self)
        return self._blocks

    def _replica(self, args: List[Argument],
                 blocks: List[BasicBlock]) -> "Function":
        """(``clone_module`` only.)  This function with ``args`` and
        ``blocks`` — copies the caller made — in place of its own: the
        same name and :meth:`unique_name` state, an empty memo, no
        module yet."""
        twin = object.__new__(Function)
        twin.__dict__.update(self.__dict__)
        twin.args, twin._blocks = args, blocks
        twin._taken_names = dict(self._taken_names)
        twin._memo, twin.module = {}, None
        return twin

    # ---- blocks -------------------------------------------------------------

    @property
    def blocks(self) -> List[BasicBlock]:
        return list(self._blocks)

    @property
    def entry(self) -> BasicBlock:
        if not self._blocks:
            raise RuntimeError(f"function {self.name} has no blocks")
        return self._blocks[0]

    def add_block(self, name: str = "", after: Optional[BasicBlock] = None) -> BasicBlock:
        blocks = self._blocks  # first: a deferred body's labels keep their names
        block = BasicBlock(self.unique_name(name or "bb"))
        block.parent = self
        if after is None:
            blocks.append(block)
        else:
            blocks.insert(blocks.index(after) + 1, block)
        return block

    def _remove_block(self, block: BasicBlock) -> None:
        self._blocks.remove(block)
        block.parent = None

    def block_by_name(self, name: str) -> BasicBlock:
        for block in self._blocks:
            if block.name == name:
                return block
        raise KeyError(f"no block named {name} in {self.name}")

    def arg_by_name(self, name: str) -> Argument:
        for arg in self.args:
            if arg.name == name:
                return arg
        raise KeyError(f"no argument named {name} in {self.name}")

    # ---- names ---------------------------------------------------------------

    def unique_name(self, base: str) -> str:
        """Return ``base`` or ``base.N`` so block/value names stay unique."""
        base = base or "v"
        if base not in self._taken_names:
            self._taken_names[base] = 0
            return base
        while True:
            self._taken_names[base] += 1
            candidate = f"{base}.{self._taken_names[base]}"
            if candidate not in self._taken_names:
                self._taken_names[candidate] = 0
                return candidate

    def assign_names(self) -> None:
        """Give every unnamed instruction a numeric name and deduplicate
        clashing names (cloned instructions keep their original name), so
        printed IR is unambiguous and re-parseable."""
        counter = itertools.count()
        seen = {arg.name for arg in self.args}
        for block in self._blocks:
            for instr in block:
                if instr.type.is_void:
                    continue
                if not instr.name:
                    instr.name = str(next(counter))
                base, n = instr.name, 1
                while instr.name in seen:
                    instr.name = f"{base}.{n}"
                    n += 1
                seen.add(instr.name)

    # ---- iteration -------------------------------------------------------------

    def instructions(self) -> Iterator[Instruction]:
        for block in self._blocks:
            yield from block.instructions

    def __repr__(self) -> str:
        return f"<Function {self.name} ({len(self._blocks)} blocks)>"


class Module:
    """A collection of kernels and the memory objects they reference."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise ValueError(f"duplicate function {function.name}")
        self.functions[function.name] = function
        function.module = self
        return function

    def add_global(self, var: GlobalVariable) -> GlobalVariable:
        if var.name in self.globals:
            raise ValueError(f"duplicate global {var.name}")
        self.globals[var.name] = var
        return var

    def function(self, name: str) -> Function:
        return self.functions[name]

    def __repr__(self) -> str:
        return f"<Module {self.name} ({len(self.functions)} functions)>"
