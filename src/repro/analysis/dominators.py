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

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Phi, Ret
from .cfg import _fast_succs, reverse_postorder, reverse_postorder_from


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
        # Depths are taken on demand and memoised until the tree changes.
        self._depth: Dict[BasicBlock, int] = {root: 0}

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
        steps = self.depth(b) - self.depth(a)
        if steps < 0:
            return False
        idom = self._idom
        for _ in range(steps):
            b = idom[b]
        return a is b

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates(a, b)

    def children(self, block: BasicBlock) -> List[BasicBlock]:
        return list(self._children.get(block, []))

    def depth(self, block: BasicBlock) -> int:
        known = self._depth
        depth = known.get(block)
        if depth is None:
            path = [block]
            node = self._idom[block]
            while node not in known:
                path.append(node)
                node = self._idom[node]
            depth = known[node]
            for node in reversed(path):
                depth += 1
                known[node] = depth
        return depth

    def blocks(self) -> Iterable[BasicBlock]:
        return self._idom.keys()

    def intervals(self) -> Dict[BasicBlock, Tuple[int, int]]:
        """Each block's DFS preorder number and the last number in its
        subtree: ``a`` dominates ``b`` exactly when
        ``first(a) <= first(b) <= last(a)``."""
        children = self._children
        visited: List[BasicBlock] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            visited.append(node)
            stack.extend(children[node])
        size = dict.fromkeys(visited, 1)
        idom = self._idom
        for node in reversed(visited[1:]):
            size[idom[node]] += size[node]
        return {node: (first, first + size[node] - 1)
                for first, node in enumerate(visited)}

    def nearest_common_dominator(self, a: BasicBlock, b: BasicBlock) -> BasicBlock:
        idom = self._idom
        depth_a, depth_b = self.depth(a), self.depth(b)
        for _ in range(depth_a - depth_b):
            a = idom[a]
        for _ in range(depth_b - depth_a):
            b = idom[b]
        while a is not b:
            a = idom[a]
            b = idom[b]
        return a

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

    # ---- keeping the tree current through CFG edits ---------------------
    #
    # CFM edits the CFG in a few structured ways; each has an exact local
    # rule, so its pass keeps one tree per direction instead of building a
    # new one after every edit (docs/melding.md, "Maintained through
    # edits").  Every rule leaves the tree equal to a fresh build.

    def relink(self, idoms: Dict[BasicBlock, BasicBlock]) -> None:
        """Give each block of ``idoms`` (new blocks included) that
        immediate dominator.  A parent that is itself new must come
        before its children."""
        for block, parent in idoms.items():
            old = self._idom.get(block)
            if old is parent:
                continue
            if old is None:
                self._children[block] = []
            else:
                self._children[old].remove(block)
            self._idom[block] = parent
            self._children[parent].append(block)
        self._depth = {self.root: 0}

    def remove(self, blocks: Iterable[BasicBlock]) -> None:
        """Drop deleted ``blocks``; their children must be among them or
        have been relinked already."""
        for block in blocks:
            parent = self._idom.pop(block, None)
            if parent is None:
                continue
            siblings = self._children.get(parent)
            if siblings is not None:
                siblings.remove(block)
            del self._children[block]
        self._depth = {self.root: 0}

    def recompute(self, nodes: List[BasicBlock], preds_of) -> None:
        """Recompute the immediate dominators of ``nodes[1:]`` from the
        edges among ``nodes``, a reverse postorder from ``nodes[0]`` that
        keeps its own.  Exact when ``nodes[0]`` is the only node with an
        edge from outside (``preds_of`` walks the edges backwards)."""
        idom = _compute_idoms(nodes, preds_of, nodes[0])
        del idom[nodes[0]]
        self.relink(idom)

    def common_dominator(self, blocks: Iterable[BasicBlock]) -> BasicBlock:
        """Nearest common dominator of the ``blocks`` in the tree."""
        found = None
        for block in blocks:
            if block in self._idom:
                found = block if found is None else \
                    self.nearest_common_dominator(found, block)
        return found

    def bypass(self, block: BasicBlock) -> None:
        """``block`` only forwarded its predecessors to its successor
        and is gone: its children move up to its own parent."""
        parent = self._idom.get(block)
        if parent is None:
            return
        self.relink({child: parent for child in self._children[block]})
        self.remove((block,))

    def split(self, head: BasicBlock, guarded: BasicBlock,
              tail: BasicBlock) -> None:
        """``tail`` took ``head``'s terminator, and ``head`` now ends in
        ``br c, guarded, tail`` with ``guarded`` branching to ``tail``."""
        if head not in self._idom:
            return
        if self.is_post:
            # Everything after head now passes tail first.
            self.relink({tail: self._idom[head], head: tail, guarded: tail})
            return
        moved: Dict[BasicBlock, BasicBlock] = {tail: head, guarded: head}
        for child in self._children[head]:
            moved[child] = tail
        self.relink(moved)

    def collector(self, collector: BasicBlock, blocks: Iterable[BasicBlock],
                  target: BasicBlock) -> None:
        """Every edge from ``blocks`` (a set closed under successors
        except ``target``) to ``target`` now goes through ``collector``,
        which branches to ``target``."""
        if self.is_post:
            if target not in self._idom:
                return
            moved = {collector: target}
            for block in blocks:
                if self._idom.get(block) is target:
                    moved[block] = collector
            self.relink(moved)
            return
        parent = self.common_dominator(collector._preds)
        if parent is None:
            return
        moved = {collector: parent}
        if len(target._preds) == 1:
            moved[target] = collector
        self.relink(moved)


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
    order = reverse_postorder_from(root, preds_of, reachable_set.__contains__)

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
    """Classic dominance frontier: where SSA repair places φs.

    Divergence analysis does not use frontiers; it reads each branch's
    join points off :func:`repro.analysis.divergence._join_blocks`.  The
    lint engine is the one reader of :func:`postdominance_frontier`."""
    blocks = function.blocks
    frontier: Dict[BasicBlock, Set[BasicBlock]] = {b: set() for b in blocks}
    idom = dt._idom
    for block in blocks:
        if len(block._preds) < 2 or block not in idom:
            continue
        stop = idom[block]
        if stop is block:
            stop = None  # the root: runners climb all the way up
        for runner in block._preds:
            if runner not in idom:
                continue  # unreachable
            # A lone reachable predecessor is the idom: it adds nothing.
            while runner is not stop:
                frontier[runner].add(block)
                parent = idom[runner]
                if parent is runner:
                    break
                runner = parent
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
