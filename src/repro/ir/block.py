"""Basic blocks: ordered instruction lists that double as branch targets.

A :class:`BasicBlock` is a :class:`~repro.ir.values.Value` of label type so
it can be referenced (by name) in printed IR.  CFG edges are owned by the
terminator :class:`~repro.ir.instructions.Branch` instructions; this module
keeps the derived predecessor lists consistent whenever instructions are
inserted or removed.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, TYPE_CHECKING

from .types import LABEL
from .values import Value
from .instructions import Branch, Instruction, Phi

if TYPE_CHECKING:  # pragma: no cover
    from .function import Function


class BasicBlock(Value):
    """A maximal straight-line instruction sequence ending in a terminator."""

    def __init__(self, name: str = "") -> None:
        super().__init__(LABEL, name)
        self.parent: Optional["Function"] = None
        self._instructions: List[Instruction] = []
        self._preds: List["BasicBlock"] = []

    # ---- structure ---------------------------------------------------------

    @property
    def instructions(self) -> List[Instruction]:
        return list(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def __bool__(self) -> bool:
        # A block is always truthy, even when (transiently) empty;
        # without this, __len__ would make empty blocks falsy and
        # None-checks written as `a or b` would silently misfire.
        return True

    @property
    def terminator(self) -> Optional[Instruction]:
        if self._instructions and self._instructions[-1].is_terminator:
            return self._instructions[-1]
        return None

    @property
    def phis(self) -> List[Phi]:
        result = []
        for instr in self._instructions:
            if not isinstance(instr, Phi):
                break
            result.append(instr)
        return result

    @property
    def non_phi_instructions(self) -> List[Instruction]:
        return [i for i in self._instructions if not isinstance(i, Phi)]

    # ---- CFG -----------------------------------------------------------------

    @property
    def preds(self) -> List["BasicBlock"]:
        """Predecessor blocks (unique, in edge-creation order)."""
        return list(self._preds)

    @property
    def succs(self) -> List["BasicBlock"]:
        term = self.terminator
        if isinstance(term, Branch):
            # Deduplicate while preserving order (a conditional branch may
            # transiently have both edges to the same block).
            seen: List[BasicBlock] = []
            for succ in term.successors:
                if succ not in seen:
                    seen.append(succ)
            return seen
        return []

    @property
    def single_pred(self) -> Optional["BasicBlock"]:
        return self._preds[0] if len(self._preds) == 1 else None

    @property
    def single_succ(self) -> Optional["BasicBlock"]:
        succs = self.succs
        return succs[0] if len(succs) == 1 else None

    # ---- mutation ---------------------------------------------------------

    def append(self, instr: Instruction) -> Instruction:
        """Append ``instr``; links CFG edges if it is a branch."""
        if self.terminator is not None:
            raise RuntimeError(f"block {self.name} already has a terminator")
        instr.parent = self
        self._instructions.append(instr)
        if isinstance(instr, Branch):
            instr._link_successors()
        return instr

    def insert_before_terminator(self, instr: Instruction) -> Instruction:
        term = self.terminator
        if term is None:
            return self.append(instr)
        instr.parent = self
        self._instructions.insert(len(self._instructions) - 1, instr)
        return instr

    def insert_after_phis(self, instr: Instruction) -> Instruction:
        """Insert ``instr`` as the first non-φ instruction."""
        index = 0
        for i, existing in enumerate(self._instructions):
            if not isinstance(existing, Phi):
                index = i
                break
        else:
            index = len(self._instructions)
        instr.parent = self
        self._instructions.insert(index, instr)
        return instr

    def _insert_before(self, anchor: Instruction, instr: Instruction) -> None:
        index = self._instructions.index(anchor)
        instr.parent = self
        self._instructions.insert(index, instr)

    def _remove_instruction(self, instr: Instruction) -> None:
        self._instructions.remove(instr)

    def replace_terminator(self, new_term: Instruction) -> None:
        """Swap the terminator, keeping CFG edges and φ nodes consistent
        is the caller's responsibility for φs; edges are handled here."""
        old = self.terminator
        if old is not None:
            if isinstance(old, Branch):
                old._unlink_successors()
            self._instructions.pop()
            old.parent = None
            old.drop_all_operands()
        self.append(new_term)

    def erase(self) -> None:
        """Remove this block from its function, dropping all instructions.

        The block must be CFG-dead (no predecessors) and its values unused
        outside the block itself.
        """
        for instr in reversed(self._instructions):
            for user, _ in instr.uses:
                if isinstance(user, Instruction) and user.parent is not self:
                    raise RuntimeError(
                        f"erasing block {self.name}: {instr!r} still used in "
                        f"{user.parent.name if user.parent else '<detached>'}"
                    )
        for instr in reversed(self._instructions):
            if isinstance(instr, Branch):
                instr._unlink_successors()
            # Remaining intra-block uses: drop them wholesale.
            instr._uses = [u for u in instr._uses
                           if not (isinstance(u[0], Instruction) and u[0].parent is self)]
            instr.drop_all_operands()
            instr.parent = None
        self._instructions = []
        if self.parent is not None:
            self.parent._remove_block(self)

    # ---- misc -----------------------------------------------------------------

    def ref(self) -> str:
        return f"%{self.name}"

    def __repr__(self) -> str:
        return f"<BasicBlock %{self.name} ({len(self._instructions)} instrs)>"
