"""SESE subgraph sequences and region simplification (§IV-A, §IV-B).

Within a meldable divergent region ``(E, X)``, each of the two paths
(``B_T -> X`` and ``B_F -> X``) decomposes into an ordered sequence of
single-entry single-exit subgraphs (Definition 3), ordered by the
post-dominance relation of their entries (§IV-C).  The decomposition
walks the immediate-post-dominator chain of the path's first block: the
chain nodes are the cut points, and whatever lies between two consecutive
cut points is one subgraph (a single block, or a region).

``Simplify`` (Algorithm 1) normalizes each multi-block subgraph to have a
*unique exit block*: when several blocks inside the subgraph branch to
the chain successor, a fresh exit block is inserted to collect them —
the melder relies on exits being unique (its ``B_T'``/``B_F'`` blocks
take over the single outgoing edge).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.analysis.cfg import reachable_from
from repro.analysis.dominators import DominatorTree, immediate_postdominator
from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Branch


@dataclass
class SESESubgraph:
    """One subgraph on a divergent path.

    ``entry`` is the first block, ``exit`` the unique last block (after
    simplification), ``target`` the first block *outside* the subgraph
    (the next chain node).  For single-block subgraphs
    ``entry is exit``.
    """

    entry: BasicBlock
    exit: BasicBlock
    target: BasicBlock
    blocks: Set[BasicBlock] = field(default_factory=set)

    def __contains__(self, block: BasicBlock) -> bool:
        return block in self.blocks

    @property
    def is_single_block(self) -> bool:
        return len(self.blocks) == 1

    @property
    def external_preds(self) -> List[BasicBlock]:
        return [p for p in self.entry.preds if p not in self.blocks]

    def __repr__(self) -> str:
        return (f"<SESE {self.entry.name}..{self.exit.name} "
                f"({len(self.blocks)} blocks) -> {self.target.name}>")


def path_subgraphs(
    first: BasicBlock,
    region_exit: BasicBlock,
    pdt: DominatorTree,
) -> Optional[List[SESESubgraph]]:
    """Decompose the path ``first -> region_exit`` into ordered SESE
    subgraphs.  Returns ``None`` when the path's post-dominator chain does
    not reach ``region_exit`` (malformed candidate)."""
    if first is region_exit:
        return []  # empty path: the branch edge goes straight to the exit
    chain: List[BasicBlock] = [first]
    node = first
    for _ in range(10_000):
        node = immediate_postdominator(pdt, node)
        if node is None:
            return None
        chain.append(node)
        if node is region_exit:
            break
    else:  # pragma: no cover - IPDOM chains are bounded by block count
        return None

    subgraphs: List[SESESubgraph] = []
    for current, nxt in zip(chain, chain[1:]):
        blocks = reachable_from(current, stop=nxt)
        exit_blocks = sorted(
            {b for b in blocks for s in b.succs if s is nxt},
            key=lambda b: b.name,
        )
        if len(blocks) == 1:
            subgraphs.append(SESESubgraph(current, current, nxt, blocks))
        else:
            exit_block = exit_blocks[0] if len(exit_blocks) == 1 else None
            subgraphs.append(SESESubgraph(current, exit_block, nxt, blocks))
    return subgraphs


def simplify_path_subgraphs(
    function: Function,
    subgraphs: List[SESESubgraph],
) -> List[SESESubgraph]:
    """``Simplify``: give every multi-exit subgraph a unique exit block.

    Inserts a collector block per offending subgraph and updates the
    subgraph descriptors in place: the collector becomes the subgraph's
    exit.  Returns the subgraphs that got one (empty: the CFG is
    unchanged)."""
    simplified: List[SESESubgraph] = []
    for subgraph in subgraphs:
        # Already simple: a unique exit block whose *only* successor is the
        # target (the melder requires an unconditional single exit edge).
        if (subgraph.exit is not None
                and subgraph.exit.single_succ is subgraph.target
                and sum(1 for b in subgraph.blocks
                        for s in b.succs if s is subgraph.target) == 1):
            continue
        collector = function.add_block(f"{subgraph.entry.name}.exit")
        collector.append(Branch([subgraph.target]))
        for block in sorted(subgraph.blocks, key=lambda b: b.name):
            term = block.terminator
            if isinstance(term, Branch):
                term.replace_successor(subgraph.target, collector)
        for phi in subgraph.target.phis:
            incoming_from_subgraph = [
                (v, p) for v, p in phi.incoming if p in subgraph.blocks
            ]
            if not incoming_from_subgraph:
                continue
            if len(incoming_from_subgraph) > 1:
                # Distinct values arriving from multiple internal exits
                # need a φ in the collector.
                from repro.ir.instructions import Phi

                collected = Phi(phi.type, phi.name or "exitphi")
                collector.insert_after_phis(collected)
                for value, pred in incoming_from_subgraph:
                    collected.add_incoming(value, pred)
                    phi.remove_incoming(pred)
                phi.add_incoming(collected, collector)
            else:
                value, pred = incoming_from_subgraph[0]
                phi.remove_incoming(pred)
                phi.add_incoming(value, collector)
        subgraph.blocks.add(collector)
        subgraph.exit = collector
        simplified.append(subgraph)
    return simplified
