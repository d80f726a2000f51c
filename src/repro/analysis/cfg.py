"""CFG traversal utilities: orders and reachability.

These helpers operate on :class:`~repro.ir.block.BasicBlock` graphs and are
shared by every analysis and transform in the repository.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Set

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Branch


def _fast_succs(block: BasicBlock):
    """Raw successor list of a block's terminator (may contain duplicates;
    cheap — for traversal hot paths where dedup is irrelevant)."""
    instrs = block._instructions
    if instrs:
        last = instrs[-1]
        if isinstance(last, Branch):
            return last._successors
    return ()


def reverse_postorder(function: Function) -> List[BasicBlock]:
    """Blocks in reverse postorder from the entry (unreachable excluded)."""
    order: List[BasicBlock] = []
    visited: Set[BasicBlock] = set()

    def visit(block: BasicBlock) -> None:
        # Iterative DFS to avoid recursion limits on unrolled CFGs.
        stack = [(block, iter(_fast_succs(block)))]
        visited.add(block)
        while stack:
            node, succs = stack[-1]
            advanced = False
            for succ in succs:
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, iter(_fast_succs(succ))))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()

    visit(function.entry)
    order.reverse()
    return order


def reverse_postorder_from(start, follow: Callable, keep: Callable) -> List:
    """Reverse postorder of the nodes reachable from ``start`` along
    ``follow`` through nodes satisfying ``keep`` (``start`` always)."""
    order: List = []
    visited = {start}
    stack = [(start, iter(follow(start)))]
    while stack:
        node, nexts = stack[-1]
        for nxt in nexts:
            if nxt not in visited and keep(nxt):
                visited.add(nxt)
                stack.append((nxt, iter(follow(nxt))))
                break
        else:
            order.append(node)
            stack.pop()
    order.reverse()
    return order


def reachable_blocks(function: Function) -> Set[BasicBlock]:
    return set(reverse_postorder(function))


def reachable_from(
    start: BasicBlock,
    stop: Optional[BasicBlock] = None,
    follow: Optional[Callable[[BasicBlock], Iterable[BasicBlock]]] = None,
) -> Set[BasicBlock]:
    """Blocks reachable from ``start`` without passing *through* ``stop``.

    ``stop`` itself is never included.  Used to enumerate the nodes of a
    region ``(entry, exit)``.
    """
    follow = follow or _fast_succs
    seen: Set[BasicBlock] = set()
    work = [start]
    while work:
        block = work.pop()
        if block in seen or block is stop:
            continue
        seen.add(block)
        work.extend(follow(block))
    return seen
