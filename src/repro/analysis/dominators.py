"""Dominator and post-dominator trees (Cooper–Harvey–Kennedy).

CFM leans on dominance everywhere: meldable-region detection needs the
immediate post-dominator (Definition 5), SESE subgraph ordering uses the
post-dominance relation (§IV-C), and the verifier checks that definitions
dominate uses.

Post-dominance is computed on the reversed CFG.  Functions whose exit is
not unique get a *virtual exit* that post-dominates every ``ret`` block
(and every infinite loop's blocks are simply absent from the postdom tree,
which the callers treat as "not post-dominated by anything").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Phi, Ret
from .cfg import _fast_succs, reverse_postorder


class DominatorTree:
    """Dominator (or post-dominator) tree over a function's CFG.

    ``idom`` maps each block to its immediate dominator; the root maps to
    itself.  ``None``-rooted queries on unreachable blocks raise ``KeyError``.
    """

    def __init__(self, idom: Dict[BasicBlock, BasicBlock], root: BasicBlock,
                 is_post: bool = False) -> None:
        self._idom = idom
        self.root = root
        self.is_post = is_post
        self._children: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in idom}
        for block, parent in idom.items():
            if block is not parent:
                self._children[parent].append(block)
        self._depth: Dict[BasicBlock, int] = {}
        self._compute_depths()

    def _compute_depths(self) -> None:
        self._depth[self.root] = 0
        work = [self.root]
        while work:
            node = work.pop()
            for child in self._children[node]:
                self._depth[child] = self._depth[node] + 1
                work.append(child)

    # ---- queries ---------------------------------------------------------

    def idom(self, block: BasicBlock) -> Optional[BasicBlock]:
        """Immediate dominator, or ``None`` for the root."""
        parent = self._idom[block]
        return None if parent is block else parent

    def contains(self, block: BasicBlock) -> bool:
        return block in self._idom

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if ``a`` dominates ``b`` (reflexively)."""
        if a not in self._idom or b not in self._idom:
            return False
        while self._depth[b] > self._depth[a]:
            b = self._idom[b]
        return a is b

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates(a, b)

    def children(self, block: BasicBlock) -> List[BasicBlock]:
        return list(self._children.get(block, []))

    def depth(self, block: BasicBlock) -> int:
        return self._depth[block]

    def blocks(self) -> Iterable[BasicBlock]:
        return self._idom.keys()

    def nearest_common_dominator(self, a: BasicBlock, b: BasicBlock) -> BasicBlock:
        while self._depth[a] > self._depth[b]:
            a = self._idom[a]
        while self._depth[b] > self._depth[a]:
            b = self._idom[b]
        while a is not b:
            a = self._idom[a]
            b = self._idom[b]
        return a

    def preorder(self) -> List[BasicBlock]:
        """Tree pre-order; dominators appear before dominated blocks."""
        order: List[BasicBlock] = []
        work = [self.root]
        while work:
            node = work.pop()
            order.append(node)
            work.extend(reversed(self._children[node]))
        return order

    # ---- instruction-level dominance ------------------------------------

    def instruction_dominates(self, def_instr: Instruction, use_instr: Instruction,
                              use_index: Optional[int] = None) -> bool:
        """True if ``def_instr`` dominates the *use site* in ``use_instr``.

        For φ users the use site is the end of the corresponding incoming
        block (``use_index`` selects which incoming slot).
        """
        def_block = def_instr.parent
        use_block = use_instr.parent
        if isinstance(use_instr, Phi) and use_index is not None:
            incoming_block = use_instr.incoming_blocks[use_index]
            return self.dominates(def_block, incoming_block)
        if def_block is use_block:
            instrs = def_block._instructions
            return instrs.index(def_instr) < instrs.index(use_instr)
        return self.strictly_dominates(def_block, use_block)


def _compute_idoms(
    nodes: List[BasicBlock],
    preds_of,
    root: BasicBlock,
) -> Dict[BasicBlock, BasicBlock]:
    """Cooper–Harvey–Kennedy 'engineered' dominance algorithm, run on
    reverse-postorder numbers: ``idom[k]`` is the number of node ``k``'s
    immediate dominator, -1 while unknown.  Predecessors outside
    ``nodes`` are ignored."""
    index = {b: i for i, b in enumerate(nodes)}
    preds = [[index[p] for p in preds_of(b) if p in index] for b in nodes]
    top = index[root]
    idom = [-1] * len(nodes)
    idom[top] = top

    changed = True
    while changed:
        changed = False
        for block, block_preds in enumerate(preds):
            if block == top:
                continue
            new_idom = -1
            for pred in block_preds:
                if idom[pred] < 0:
                    continue
                if new_idom < 0:
                    new_idom = pred
                    continue
                # intersect(pred, new_idom)
                a, b = pred, new_idom
                while a != b:
                    while a > b:
                        a = idom[a]
                    while b > a:
                        b = idom[b]
                new_idom = a
            if new_idom >= 0 and idom[block] != new_idom:
                idom[block] = new_idom
                changed = True
    return {nodes[k]: nodes[d] for k, d in enumerate(idom) if d >= 0}


def compute_dominator_tree(function: Function,
                           order: Optional[List[BasicBlock]] = None) -> DominatorTree:
    """Dominator tree; ``order`` is :func:`reverse_postorder` of the
    current CFG when the caller already has it."""
    nodes = order if order is not None else reverse_postorder(function)
    idom = _compute_idoms(nodes, lambda b: b._preds, function.entry)
    return DominatorTree(idom, function.entry, is_post=False)


class _VirtualExit:
    """Sentinel root for the post-dominator tree when the CFG has several
    (or zero) exit blocks."""

    name = "<virtual-exit>"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<virtual exit>"


def compute_postdominator_tree(function: Function,
                               order: Optional[List[BasicBlock]] = None) -> DominatorTree:
    """Post-dominator tree.  If the function has a single ``ret`` block the
    tree is rooted there; otherwise a virtual exit is used and remains the
    root (callers see ``idom(block) is None`` only at the root).
    ``order`` is :func:`reverse_postorder` of the current CFG when the
    caller already has it."""
    reachable = order if order is not None else reverse_postorder(function)
    exits = [b for b in reachable if isinstance(b.terminator, Ret)]

    if len(exits) == 1:
        root = exits[0]
        virtual = None
    else:
        root = _VirtualExit()
        virtual = root

    # Restrict to the reachable subgraph: an exit block may have
    # predecessors that are unreachable from the entry, and the reverse
    # DFS below must not wander into them.
    reachable_set = set(reachable)
    exit_set = set(exits)

    def preds_of(node):
        return exits if node is virtual else node._preds

    # Reverse-CFG reverse postorder, starting from the exit root.
    order: List[BasicBlock] = []
    visited: Set = {root}
    stack = [(root, iter(preds_of(root)))]
    while stack:
        node, preds = stack[-1]
        advanced = False
        for pred in preds:
            if pred not in visited and pred in reachable_set:
                visited.add(pred)
                stack.append((pred, iter(preds_of(pred))))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    order.reverse()

    def succs_of(node):
        # An exit's one successor is the root: the virtual exit, or the
        # lone exit itself, which is the root and never asked.
        if node in exit_set:
            return (root,)
        return () if node is virtual else _fast_succs(node)

    idom = _compute_idoms(order, succs_of, root)
    return DominatorTree(idom, root, is_post=True)


def immediate_postdominator(pdt: DominatorTree, block: BasicBlock) -> Optional[BasicBlock]:
    """The IPDOM of ``block`` as a real basic block, or ``None`` when the
    immediate post-dominator is the virtual exit."""
    if not pdt.contains(block):
        return None
    parent = pdt.idom(block)
    if parent is None or isinstance(parent, _VirtualExit):
        return None
    return parent


def dominance_frontier(function: Function, dt: DominatorTree) -> Dict[BasicBlock, Set[BasicBlock]]:
    """Classic dominance frontier (used by SSA repair and divergence
    analysis' sync-dependence computation, via the *post*-dominance
    frontier on the reversed CFG)."""
    frontier: Dict[BasicBlock, Set[BasicBlock]] = {b: set() for b in function.blocks}
    for block in function.blocks:
        if not dt.contains(block):
            continue
        preds = [p for p in block.preds if dt.contains(p)]
        if len(preds) < 2:
            continue
        for pred in preds:
            runner = pred
            while runner is not dt.idom(block) and runner is not None:
                frontier[runner].add(block)
                runner = dt.idom(runner)
    return frontier


def postdominance_frontier(function: Function, pdt: DominatorTree) -> Dict[BasicBlock, Set[BasicBlock]]:
    """Post-dominance frontier: ``b in PDF(a)`` means ``a``'s execution is
    control-dependent on the branch in ``b``."""
    frontier: Dict[BasicBlock, Set[BasicBlock]] = {b: set() for b in function.blocks}
    for block in function.blocks:
        if not pdt.contains(block):
            continue
        succs = [s for s in block.succs if pdt.contains(s)]
        if len(succs) < 2:
            continue
        for succ in succs:
            runner = succ
            while runner is not pdt.idom(block) and runner is not None \
                    and not isinstance(runner, _VirtualExit):
                frontier[runner].add(block)
                parent = pdt.idom(runner)
                if parent is None:
                    break
                runner = parent
    return frontier
