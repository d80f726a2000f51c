"""Sparse worklist fixpoint dataflow over the SSA graph.

:class:`SparseSolver` attaches lattice facts to
:class:`~repro.ir.values.Value` objects and propagates them along
def-use edges only, which is the right shape for value analyses such as
the interval ranges of :mod:`repro.analysis.ranges`: a changed fact
re-queues exactly the instructions that consume it.

The solver is deliberately analysis-agnostic: lattice elements are
opaque objects compared with ``==``, and monotonicity is the client's
contract.  A ``widen`` hook (applied after ``widen_after`` recomputations
of the same value) keeps infinite-height lattices — intervals —
terminating without the client littering transfer functions with
iteration counters, and a ``max_visits`` cap turns a client that still
fails to converge into a ``RuntimeError``.  The worklist is a heap of
program positions, so the visit order, and with it every widening
point, is deterministic.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Optional, Tuple

from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.values import Value


class SparseSolver:
    """Worklist propagation over def-use edges of the SSA graph.

    The client supplies:

    * ``bottom`` — the optimistic initial fact of every value;
    * ``join(a, b)`` — the lattice join;
    * ``transfer(instr, fact_of)`` — the fact produced by an
      instruction, reading operand facts through ``fact_of``;
    * optional ``widen(old, new)`` — applied after a value has been
      recomputed ``widen_after`` times (infinite-height lattices).

    Non-instruction values (arguments, constants, undef) are seeded via
    :meth:`seed` or resolved lazily through the client's ``transfer``
    conventions; anything never seeded or computed reads as ``bottom``.
    """

    def __init__(self, bottom: object,
                 join: Callable[[object, object], object],
                 transfer: Callable[[Instruction, Callable[[Value], object]],
                                    object],
                 widen: Optional[Callable[[object, object], object]] = None,
                 widen_after: int = 16) -> None:
        self.bottom = bottom
        self.join = join
        self.transfer = transfer
        self.widen = widen
        self.widen_after = widen_after
        self.facts: Dict[int, Tuple[Value, object]] = {}
        self._recomputations: Dict[int, int] = {}

    def fact_of(self, value: Value) -> object:
        entry = self.facts.get(id(value))
        return entry[1] if entry is not None else self.bottom

    def seed(self, value: Value, fact: object) -> None:
        self.facts[id(value)] = (value, fact)

    def solve(self, function: Function, max_visits: int = 100_000) -> None:
        """Iterate every instruction of ``function`` to a fixpoint."""
        instrs = [i for block in function.blocks for i in block
                  if not i.type.is_void]
        position = {id(i): n for n, i in enumerate(instrs)}
        # A heap of program positions: the lowest queued instruction is
        # always visited next (an ascending range is already a heap).
        worklist = list(range(len(instrs)))
        queued = {id(i) for i in instrs}
        visits = 0
        while worklist:
            instr = instrs[heapq.heappop(worklist)]
            queued.discard(id(instr))
            visits += 1
            if visits > max_visits:
                raise RuntimeError(
                    f"sparse dataflow on @{function.name} did not converge "
                    f"in {max_visits} visits")
            new = self.transfer(instr, self.fact_of)
            old = self.fact_of(instr)
            count = self._recomputations.get(id(instr), 0) + 1
            self._recomputations[id(instr)] = count
            if self.widen is not None and count > self.widen_after:
                new = self.widen(old, new)
            if new == old:
                continue
            self.facts[id(instr)] = (instr, new)
            for user, _ in instr.uses:
                if (isinstance(user, Instruction) and user.parent is not None
                        and not user.type.is_void
                        and id(user) in position
                        and id(user) not in queued):
                    heapq.heappush(worklist, position[id(user)])
                    queued.add(id(user))
