"""CFG subgraph cloning with operand remapping.

Used by the loop unroller (each unrolled iteration is a clone of the loop
body) and available to any transform that duplicates regions.  Cloning is
two-phase, exactly like CFM's own code generation (§IV-D): first clone
every instruction, recording old→new in a value map, then patch operands
and φ incoming blocks through the map.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Branch, Instruction, Phi
from repro.ir.values import Value


class ClonedSubgraph:
    """Result of :func:`clone_blocks`: the block and value maps."""

    def __init__(self, block_map: Dict[BasicBlock, BasicBlock],
                 value_map: Dict[Value, Value]) -> None:
        self.block_map = block_map
        self.value_map = value_map

    def block(self, original: BasicBlock) -> BasicBlock:
        return self.block_map[original]

    def value(self, original: Value) -> Value:
        """Mapped value; identity for values defined outside the clone."""
        return self.value_map.get(original, original)


def clone_blocks(
    function: Function,
    blocks: List[BasicBlock],
    suffix: str,
    extra_value_map: Optional[Dict[Value, Value]] = None,
    insert_after: Optional[BasicBlock] = None,
) -> ClonedSubgraph:
    """Clone ``blocks`` into ``function``.

    ``extra_value_map`` pre-seeds operand remapping (the unroller maps the
    loop-header φs to the current iteration's values).  Branch targets
    inside the cloned set are redirected to the clones; targets outside
    are left alone.  φ incoming blocks are remapped likewise; incoming
    entries from predecessors outside the cloned set are *dropped* (the
    caller wires external entries itself).
    """
    block_set = set(blocks)
    value_map: Dict[Value, Value] = dict(extra_value_map or {})
    block_map: Dict[BasicBlock, BasicBlock] = {}

    anchor = insert_after
    for block in blocks:
        clone = function.add_block(f"{block.name}.{suffix}", after=anchor)
        anchor = clone
        block_map[block] = clone

    # Phase 1: clone instructions, building the value map.
    cloned_pairs: List[Tuple[Instruction, Instruction]] = []
    for block in blocks:
        clone_block = block_map[block]
        for instr in block.instructions:
            clone = instr.clone()
            clone.name = instr.name
            if isinstance(clone, Branch):
                # Append after remapping (phase 2) so edges link correctly;
                # stage it detached for now.
                pass
            cloned_pairs.append((instr, clone))
            value_map[instr] = clone

    # Phase 2: remap operands, successors and φ incoming blocks; insert.
    for original, clone in cloned_pairs:
        if isinstance(clone, Phi):
            for pred in clone.incoming_blocks:
                if pred in block_set:
                    clone.replace_incoming_block(pred, block_map[pred])
                else:
                    clone.remove_incoming(pred)
            for i, value in enumerate(clone.incoming_values):
                mapped = value_map.get(value)
                if mapped is not None:
                    clone.set_operand(i, mapped)
        else:
            for i, operand in enumerate(clone.operands):
                mapped = value_map.get(operand)
                if mapped is not None:
                    clone.set_operand(i, mapped)
        if isinstance(clone, Branch):
            for i, succ in enumerate(clone.successors):
                if succ in block_set:
                    clone.set_successor(i, block_map[succ])
        target = block_map[original.parent]
        target.append(clone)

    return ClonedSubgraph(block_map, value_map)
