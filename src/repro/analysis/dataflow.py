"""Generic worklist fixpoint dataflow over the CFG and the SSA graph.

Two solver shapes cover every dataflow client in the repository:

* :func:`run_dataflow` — the classic block-level engine.  A
  :class:`DataflowAnalysis` describes direction (forward/backward),
  boundary/initial states, ``join`` and a per-block ``transfer``; the
  engine seeds a worklist in the direction's natural order and iterates
  to a fixpoint.

* :class:`SparseSolver` — the sparse SSA engine.  Lattice facts attach
  to :class:`~repro.ir.values.Value` objects and propagate along
  def-use edges only, which is the right shape for value analyses such
  as the interval ranges of :mod:`repro.analysis.ranges`: a changed
  fact re-queues exactly the instructions that consume it.

Both engines are deliberately analysis-agnostic: lattice elements are
opaque objects compared with ``==``, and monotonicity is the client's
contract.  A ``widen`` hook (applied after ``max_iterations_before_widen``
visits of the same node) keeps infinite-height lattices — intervals —
terminating without the client littering transfer functions with
iteration counters.  Results are plain dictionaries, so callers memoize
them the same way :class:`repro.lint.engine.LintContext` memoizes its
other analyses.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.values import Value

from .cfg import reverse_postorder

FORWARD = "forward"
BACKWARD = "backward"


class DataflowAnalysis:
    """A block-level dataflow problem: direction + lattice + transfer.

    Subclasses set :attr:`direction` and implement the four hooks.
    States are opaque lattice elements compared with ``==``; ``join``
    must be monotone over the inputs it receives.
    """

    #: :data:`FORWARD` (facts flow entry -> exit) or :data:`BACKWARD`
    direction: str = FORWARD

    def boundary(self, function: Function) -> object:
        """State at the boundary node (entry for forward, exits for
        backward)."""
        raise NotImplementedError

    def initial(self) -> object:
        """Optimistic starting state of every non-boundary node."""
        raise NotImplementedError

    def join(self, states: List[object]) -> object:
        """Combine the states flowing into a node (empty list allowed)."""
        raise NotImplementedError

    def transfer(self, block: BasicBlock, state: object) -> object:
        """Propagate ``state`` through ``block``; must not mutate it."""
        raise NotImplementedError

    def widen(self, old: object, new: object) -> object:
        """Accelerate convergence after repeated visits (default: ``new``).

        Only consulted once a node has been re-transferred
        ``max_iterations_before_widen`` times, so finite lattices never
        pay for it."""
        return new


@dataclass
class DataflowResult:
    """Fixpoint states per block.

    ``state_in``/``state_out`` follow program order regardless of
    direction: for a backward analysis ``state_in`` is the fact holding
    *before* the block executes (the analysis' output edge)."""

    state_in: Dict[BasicBlock, object] = field(default_factory=dict)
    state_out: Dict[BasicBlock, object] = field(default_factory=dict)
    iterations: int = 0


def run_dataflow(function: Function, analysis: DataflowAnalysis,
                 max_iterations_before_widen: int = 32,
                 max_visits: int = 10_000) -> DataflowResult:
    """Solve ``analysis`` over ``function`` to a fixpoint.

    The worklist is seeded in reverse postorder for forward problems and
    postorder for backward ones, so acyclic CFGs converge in one sweep.
    ``max_visits`` is a hard cap against a non-monotone client; hitting
    it raises rather than silently returning a non-fixpoint.
    """
    forward = analysis.direction == FORWARD
    order = reverse_postorder(function)
    if not forward:
        order.reverse()
    position = {block: i for i, block in enumerate(order)}

    def inputs_of(block: BasicBlock) -> List[BasicBlock]:
        return block.preds if forward else block.succs

    def is_boundary(block: BasicBlock) -> bool:
        if forward:
            return block is function.entry
        return not block.succs

    result = DataflowResult()
    pre: Dict[BasicBlock, object] = {}    # fact entering the transfer
    post: Dict[BasicBlock, object] = {}   # fact leaving the transfer
    visits: Dict[BasicBlock, int] = {}

    # A heap keyed on analysis order: keeps the sweep cache-friendly and
    # deterministic (sets alone would make iteration order vary).  Blocks
    # outside ``order`` (unreachable predecessors of a backward problem)
    # tie at ``len(position)``; the insertion counter visits them first
    # come, first served, and keeps the heap from ever comparing blocks.
    ticket = count()
    worklist = [(position[block], next(ticket), block) for block in order]
    queued: Set[BasicBlock] = set(order)
    total_visits = 0
    while worklist:
        block = heapq.heappop(worklist)[2]
        queued.discard(block)
        total_visits += 1
        if total_visits > max_visits:
            raise RuntimeError(
                f"dataflow on @{function.name} did not converge in "
                f"{max_visits} node visits (non-monotone transfer?)")

        incoming = [post[p] for p in inputs_of(block) if p in post]
        if is_boundary(block):
            state = analysis.boundary(function)
            if incoming:  # e.g. a loop edge back into the entry
                state = analysis.join([state] + incoming)
        elif incoming:
            state = analysis.join(incoming)
        else:
            state = analysis.initial()

        new_post = analysis.transfer(block, state)
        visits[block] = visits.get(block, 0) + 1
        if block in post and visits[block] > max_iterations_before_widen:
            new_post = analysis.widen(post[block], new_post)
        changed = block not in post or post[block] != new_post
        pre[block] = state
        post[block] = new_post
        if changed:
            targets = block.succs if forward else block.preds
            for target in targets:
                if target not in queued:
                    heapq.heappush(worklist, (
                        position.get(target, len(position)), next(ticket),
                        target))
                    queued.add(target)

    result.iterations = total_visits
    if forward:
        result.state_in, result.state_out = pre, post
    else:
        result.state_in, result.state_out = post, pre
    return result


# ---------------------------------------------------------------------------
# Sparse SSA solver


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
