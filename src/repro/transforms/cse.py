"""Common-subexpression elimination (dominator-scoped value numbering).

Melded code is full of repeated address arithmetic — both sides of a
divergent branch computed ``gep %base, %tid`` and after melding both
copies land in one block — and the DSL front-end re-emits ``gep`` for
every ``load_at``/``store_at``.  This pass removes pure redundancies the
way LLVM's EarlyCSE does: a pre-order walk of the dominator tree with a
scoped hash table of available expressions.

Only speculatable, side-effect-free instructions participate; loads are
*not* value-numbered (no alias analysis here, and the SIMT simulator's
shared memory is mutated cross-lane).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.dominators import compute_dominator_tree
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.values import Undef


def _expression_key(instr: Instruction) -> Optional[Tuple]:
    """Hashable identity of a pure expression, or None if not eligible."""
    if not instr.is_speculatable:
        return None
    operands = tuple(instr.operands)
    if any(isinstance(operand, Undef) for operand in operands):
        return None  # undef is not a stable value
    return (instr.operand_signature(), operands)


def eliminate_common_subexpressions(function: Function) -> bool:
    """Scoped-hash-table CSE over the dominator tree.  Returns True if
    any instruction was replaced."""
    dt = compute_dominator_tree(function)
    changed = False

    # Iterative pre-order; the available-expression table is a chain of
    # dict scopes, one per dominator-tree level.
    Scope = Dict[Tuple, Instruction]
    work: List[Tuple[object, List[Scope]]] = [(dt.root, [{}])]
    while work:
        block, scopes = work.pop()
        scope = scopes[-1]
        for instr in block.instructions:
            key = _expression_key(instr)
            if key is None:
                continue
            existing = _lookup(scopes, key)
            if existing is not None:
                instr.replace_all_uses_with(existing)
                instr.erase_from_parent()
                changed = True
            else:
                scope[key] = instr
        for child in dt.children(block):
            work.append((child, scopes + [{}]))
    return changed


def _lookup(scopes: List[Dict], key: Tuple) -> Optional[Instruction]:
    for scope in reversed(scopes):
        hit = scope.get(key)
        if hit is not None:
            return hit
    return None
