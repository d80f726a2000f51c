"""Full loop unrolling for counted loops.

The paper's CFGs are produced by ROCm HIPCC at ``-O3``, which "aggressively
unrolls both loops" of the bitonic kernel (§IV-B) — the repeated,
isomorphic inner-loop bodies are precisely the subgraphs CFM melds, and
PCM's compile-time blowup (Table II) comes from the many unrolled
subgraph pairs.  This pass reproduces that pipeline stage.

Scope (matching what the DSL front-end emits):

* header-exiting loops — ``header: φs; cond; br body, exit`` — with a
  single latch;
* trip counts determined by *scalar symbolic execution* of the header φs:
  all φ initial values must be constants and each update chain must only
  involve φs, constants and pure arithmetic.  This handles both
  ``for (i = 0; i < 8; i++)`` and the bitonic/PCM patterns
  (``k *= 2``, ``j /= 2``).

Nested loops unroll inside-out; the driver `unroll_loops` interleaves
constant folding so outer-loop unrolling exposes constant bounds for the
inner clones (e.g. bitonic's ``j = k / 2``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.loops import Loop, compute_loop_info
from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Branch, Instruction, Phi, Select
from repro.ir.scalars import EvalError, eval_strict, is_strict
from repro.ir.values import Constant, Value

from .clone import clone_blocks
from .constfold import fold_constants
from .dce import eliminate_dead_code
from .simplifycfg import simplify_cfg


@dataclass
class UnrollLimits:
    """Safety valves for code growth."""

    max_trip_count: int = 128
    max_unrolled_instructions: int = 100_000
    max_eval_steps: int = 10_000


DEFAULT_LIMITS = UnrollLimits()


class _SymbolicEvaluator:
    """Evaluates pure instruction DAGs over current φ values."""

    def __init__(self, phi_values: Dict[Phi, int], limits: UnrollLimits) -> None:
        self.phi_values = phi_values
        self.limits = limits
        self._steps = 0

    def eval(self, value: Value) -> Optional[object]:
        self._steps += 1
        if self._steps > self.limits.max_eval_steps:
            return None
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, Phi):
            return self.phi_values.get(value)
        if isinstance(value, Select):
            cond = self.eval(value.condition)
            if cond is None:
                return None
            return self.eval(value.true_value if cond else value.false_value)
        if not is_strict(value):
            return None
        operands = [self.eval(operand) for operand in value.operands]
        if None in operands:
            return None
        try:
            return eval_strict(value, operands)
        except EvalError:
            return None


def _loop_shape(loop: Loop):
    """Validate the supported shape; returns (body_entry, exit, latch) or
    None.  Supported: header is the only exiting block, conditional branch
    with one successor in-loop and one out, single latch."""
    header = loop.header
    if loop.exiting_blocks != [header]:
        return None
    latch = loop.single_latch
    if latch is None:
        return None
    term = header.terminator
    if not isinstance(term, Branch) or not term.is_conditional:
        return None
    succs = term.successors
    inside = [s for s in succs if s in loop.blocks]
    outside = [s for s in succs if s not in loop.blocks]
    if len(inside) != 1 or len(outside) != 1:
        return None
    preheaders = [p for p in header.preds if p not in loop.blocks]
    if len(preheaders) != 1:
        return None
    return inside[0], outside[0], latch, preheaders[0]


def compute_trip_count(loop: Loop, limits: UnrollLimits = DEFAULT_LIMITS) -> Optional[int]:
    """Trip count (number of body executions) by symbolic execution, or
    ``None`` when the loop is not a recognizable counted loop."""
    shape = _loop_shape(loop)
    if shape is None:
        return None
    body_entry, _exit, latch, preheader = shape
    header = loop.header
    term = header.terminator
    body_is_true = term.true_successor is body_entry

    phis = header.phis
    values: Dict[Phi, object] = {}
    for phi in phis:
        init = phi.incoming_for(preheader)
        if not isinstance(init, Constant):
            return None
        values[phi] = init.value

    trips = 0
    while trips <= limits.max_trip_count:
        evaluator = _SymbolicEvaluator(values, limits)
        cond = evaluator.eval(term.condition)
        if cond is None:
            return None
        enters_body = bool(cond) == body_is_true
        if not enters_body:
            return trips
        # Advance all φs simultaneously through the latch values.
        evaluator = _SymbolicEvaluator(values, limits)
        next_values: Dict[Phi, object] = {}
        for phi in phis:
            result = evaluator.eval(phi.incoming_for(latch))
            if result is None:
                return None
            next_values[phi] = result
        values = next_values
        trips += 1
    return None


def unroll_loop(function: Function, loop: Loop,
                limits: UnrollLimits = DEFAULT_LIMITS) -> bool:
    """Fully unroll one counted loop.  Returns True on success."""
    trips = compute_trip_count(loop, limits)
    if trips is None:
        return False
    shape = _loop_shape(loop)
    body_entry, exit_block, latch, preheader = shape
    header = loop.header
    term = header.terminator

    body_blocks = [b for b in function.blocks if b in loop.blocks and b is not header]
    header_extras = [i for i in header.non_phi_instructions if not i.is_terminator]
    body_size = sum(len(b) for b in body_blocks) + len(header_extras)
    if trips * max(1, body_size) > limits.max_unrolled_instructions:
        return False
    # φs inside the body must not reference the header as a predecessor
    # (clone_blocks would drop those incoming entries).
    for block in body_blocks:
        for phi in block.phis:
            if any(p not in loop.blocks or p is header
                   for p in phi.incoming_blocks):
                return False

    phis = header.phis
    # Current reaching value for each header φ.
    current: Dict[Phi, Value] = {phi: phi.incoming_for(preheader) for phi in phis}
    latch_values: Dict[Phi, Value] = {phi: phi.incoming_for(latch) for phi in phis}

    # The preheader currently branches to the header; retarget as we go.
    def retarget(from_block: BasicBlock, old: BasicBlock, new: BasicBlock) -> None:
        from_block.terminator.replace_successor(old, new)

    def clone_header_extras(into: BasicBlock, seed: Dict[Value, Value]) -> None:
        """Clone the header's non-φ computations with ``seed`` remapping,
        extending ``seed`` with the clones."""
        for instr in header_extras:
            clone = instr.clone()
            clone.name = instr.name
            for i, operand in enumerate(clone.operands):
                mapped = seed.get(operand)
                if mapped is not None:
                    clone.set_operand(i, mapped)
            into.append(clone)
            seed[instr] = clone

    previous_tail = preheader
    anchor = header
    for iteration in range(trips):
        # Header computations (minus φs/terminator) execute per iteration;
        # they go into a per-iteration prologue block.
        seed: Dict[Value, Value] = dict(current)
        prologue = function.add_block(f"{header.name}.it{iteration}", after=anchor)
        clone_header_extras(prologue, seed)
        cloned = clone_blocks(function, body_blocks, f"it{iteration}",
                              extra_value_map=seed, insert_after=prologue)
        prologue.append(Branch([cloned.block(body_entry)]))
        retarget(previous_tail, header, prologue)
        previous_tail = cloned.block(latch)
        anchor = previous_tail
        # The cloned latch still branches to the original header.
        current = {phi: cloned.value(latch_values[phi]) for phi in phis}

    # The final header evaluation (the one whose condition exits) still
    # executes its non-φ computations, which may be used past the loop —
    # the header dominates the exit, so any later block may reference
    # them.  Materialize that last evaluation explicitly.
    final_map: Dict[Value, Value] = dict(current)
    final_block = function.add_block(f"{header.name}.final", after=anchor)
    clone_header_extras(final_block, final_map)
    final_block.append(Branch([exit_block]))
    retarget(previous_tail, header, final_block)
    previous_tail = final_block

    # Exit-block φs: the edge from the header becomes the edge from the
    # final block, with values remapped through the last evaluation.
    for phi in exit_block.phis:
        value = phi.incoming_for(header)
        phi.replace_incoming_block(header, previous_tail)
        phi.set_incoming_for(previous_tail, final_map.get(value, value))

    # Out-of-loop uses of header definitions see the final values.
    for instr in list(phis) + header_extras:
        final = final_map[instr]
        for user, index in instr.uses:
            if (isinstance(user, Instruction) and user.parent is not None
                    and user.parent not in loop.blocks
                    and user.parent is not final_block):
                user.set_operand(index, final)

    # Delete the original loop: header + body blocks are now unreachable.
    simplify_cfg(function)
    eliminate_dead_code(function)
    return True


def unroll_loops(function: Function, limits: UnrollLimits = DEFAULT_LIMITS) -> bool:
    """Unroll all counted loops inside-out, interleaving constant folding
    so outer unrolling exposes inner trip counts."""
    changed = False
    progress = True
    while progress:
        progress = False
        fold_constants(function)
        loop_info = compute_loop_info(function)
        # Innermost first: deepest loops have no children.
        for loop in sorted(loop_info.loops, key=lambda l: -l.depth):
            if unroll_loop(function, loop, limits):
                progress = changed = True
                break  # loop structures are stale; recompute
    if changed:
        fold_constants(function)
        simplify_cfg(function)
        eliminate_dead_code(function)
    return changed
