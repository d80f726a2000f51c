"""Subgraph alignment: choosing which SESE subgraph pairs to meld.

Definition 7 requires an order-preserving alignment of the true-path and
false-path subgraph sequences in which every aligned pair is meldable.
Like the paper's implementation, we use the **greedy** variant: an
``m × n`` profitability scan choosing the single most profitable meldable
pair per Algorithm-1 iteration, with the tie broken toward the pair that
dominates the most remaining subgraphs (earliest pair), which maximizes
how many melds later iterations can still perform.

Pairs come in two flavours (Definition 6): fully isomorphic subgraphs
(cases ① and ③ — every block maps) and the *partial* case ② where a
single basic block melds into one block of a simple region (see
:class:`repro.core.meldable.PartialMapping`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ir.block import BasicBlock

from .meldable import region_block_mapping, subgraphs_meldable
from .profitability import (
    BlockFacts,
    partial_subgraph_profitability,
    subgraph_profitability,
)
from .sese import SESESubgraph

#: (true-side block | None, false-side block | None); None marks the
#: unmatched side of a case-② pairing.
BlockMapping = List[Tuple[Optional[BasicBlock], Optional[BasicBlock]]]


@dataclass
class SubgraphPair:
    """A chosen meldable pair with its (oriented) mapping and score."""

    true_subgraph: SESESubgraph
    false_subgraph: SESESubgraph
    mapping: BlockMapping
    profitability: float
    true_index: int
    false_index: int
    #: case ② only: conditional-branch steering for the single-block side
    route: Dict[BasicBlock, int] = field(default_factory=dict)

    @property
    def is_partial(self) -> bool:
        return any(a is None or b is None for a, b in self.mapping)

    @property
    def partial_region_side(self) -> Optional[str]:
        """For case-② pairs, which path holds the multi-block region:
        ``"true"``/``"false"``; ``None`` for fully isomorphic pairs."""
        if any(b is None for _, b in self.mapping):
            return "true"
        if any(a is None for a, _ in self.mapping):
            return "false"
        return None


def _full_pair(st: SESESubgraph, sf: SESESubgraph, i: int, j: int,
               facts: BlockFacts) -> Optional[SubgraphPair]:
    mapping = subgraphs_meldable(st, sf)
    if mapping is None:
        return None
    return SubgraphPair(st, sf, list(mapping),
                        subgraph_profitability(mapping, facts=facts), i, j)


def _partial_pair(st: SESESubgraph, sf: SESESubgraph, i: int, j: int,
                  facts: BlockFacts) -> Optional[SubgraphPair]:
    if not st.is_single_block and sf.is_single_block:
        partial = region_block_mapping(st, sf, region_on_true_path=True)
        if partial is None:
            return None
        mapping: BlockMapping = list(partial.mapping)
        single = sf.entry
    elif st.is_single_block and not sf.is_single_block:
        partial = region_block_mapping(sf, st, region_on_true_path=False)
        if partial is None:
            return None
        mapping = [(b, a) for a, b in partial.mapping]
        single = st.entry
    else:
        return None
    region_sub = st if single is sf.entry else sf
    profit = partial_subgraph_profitability(
        region_sub.blocks, partial.chosen, single, facts=facts)
    return SubgraphPair(st, sf, mapping, profit, i, j, route=partial.route)


def candidate_pair(
    st: SESESubgraph, sf: SESESubgraph, i: int = 0, j: int = 0,
    facts: Optional[BlockFacts] = None,
) -> Optional[SubgraphPair]:
    """The best way to meld this particular (true, false) subgraph pair:
    full isomorphism when available, case ② otherwise.  ``facts`` is the
    scan's :class:`BlockFacts` when the caller has one."""
    facts = BlockFacts() if facts is None else facts
    pair = _full_pair(st, sf, i, j, facts)
    if pair is not None:
        return pair
    return _partial_pair(st, sf, i, j, facts)


def most_profitable_pair(
    true_path: List[SESESubgraph],
    false_path: List[SESESubgraph],
) -> Optional[SubgraphPair]:
    """Greedy ``MostProfitableSubgraphPair`` (Algorithm 1).  Each block's
    latency and profile are read once for the whole ``m × n`` scan."""
    facts = BlockFacts()
    best: Optional[SubgraphPair] = None
    for i, st in enumerate(true_path):
        for j, sf in enumerate(false_path):
            candidate = candidate_pair(st, sf, i, j, facts=facts)
            if candidate is None:
                continue
            if best is None or candidate.profitability > best.profitability or (
                    candidate.profitability == best.profitability
                    and (i + j) < (best.true_index + best.false_index)):
                best = candidate
    return best

