"""Graphviz DOT export of CFGs.

Produces the kind of figure the paper uses to explain the pipeline
(Figure 5): one record-shaped node per basic block with its instructions,
true/false edge labels, and optional highlighting — e.g. divergent
branches red, melded blocks green.

No Graphviz binding is needed; the output is plain DOT text:

    from repro.ir.dot import function_to_dot
    open("kernel.dot", "w").write(function_to_dot(kernel))
    # then: dot -Tpdf kernel.dot -o kernel.pdf
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

from .block import BasicBlock
from .function import Function
from .instructions import Branch
from .printer import format_instruction


def _escape(text: str) -> str:
    for char, replacement in (("\\", "\\\\"), ("{", "\\{"), ("}", "\\}"),
                              ("<", "\\<"), (">", "\\>"), ("|", "\\|"),
                              ('"', '\\"')):
        text = text.replace(char, replacement)
    return text


def function_to_dot(
    function: Function,
    highlight: Optional[Iterable[BasicBlock]] = None,
    divergent: Optional[Iterable[BasicBlock]] = None,
    max_instructions: int = 12,
) -> str:
    """Render the function's CFG as DOT.

    ``highlight`` blocks are filled green (melded blocks); ``divergent``
    blocks get a red border (blocks ending in a divergent branch).
    """
    function.assign_names()
    highlight_set: Set[BasicBlock] = set(highlight or ())
    divergent_set: Set[BasicBlock] = set(divergent or ())

    lines = [
        f'digraph "{function.name}" {{',
        '  node [shape=record, fontname="monospace", fontsize=9];',
        '  edge [fontname="monospace", fontsize=8];',
    ]
    for block in function.blocks:
        body = [f"%{block.name}:"]
        instrs = block.instructions
        shown = instrs[:max_instructions]
        body.extend(f"  {format_instruction(i)}" for i in shown)
        if len(instrs) > len(shown):
            body.append(f"  ... (+{len(instrs) - len(shown)} more)")
        label = "\\l".join(_escape(line) for line in body) + "\\l"

        attrs = [f'label="{label}"']
        if block in highlight_set:
            attrs.append('style=filled, fillcolor="#c8e6c9"')
        if block in divergent_set:
            attrs.append('color="#c62828", penwidth=2')
        lines.append(f'  "{block.name}" [{", ".join(attrs)}];')

    for block in function.blocks:
        term = block.terminator
        if not isinstance(term, Branch):
            continue
        if term.is_conditional:
            lines.append(f'  "{block.name}" -> '
                         f'"{term.true_successor.name}" [label="T"];')
            lines.append(f'  "{block.name}" -> '
                         f'"{term.false_successor.name}" [label="F"];')
        else:
            lines.append(f'  "{block.name}" -> "{term.true_successor.name}";')
    lines.append("}")
    return "\n".join(lines)


def melding_stages_to_dot(function: Function) -> str:
    """Convenience: DOT of ``function`` with divergent branches marked
    (uses the divergence analysis) — the 'before' view of Figure 5."""
    from repro.analysis.divergence import compute_divergence

    info = compute_divergence(function)
    return function_to_dot(function, divergent=info.divergent_branch_blocks)
