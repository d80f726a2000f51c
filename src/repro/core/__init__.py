"""CFM: the paper's contribution — control-flow melding.

Public surface:

* :func:`run_cfm` / :class:`CFMConfig` — the full transformation pass
  (Algorithm 1);
* the analysis pieces it composes, exposed for tests, diagnostics and
  ablations: meldable-region detection, SESE decomposition, subgraph and
  instruction alignment, profitability metrics, the melder, and
  unpredication.
"""

from .alignment import (
    AlignedPair,
    AlignmentResult,
    needleman_wunsch,
)
from .profitability import (
    block_profitability,
    partial_subgraph_profitability,
    estimated_selects,
    instruction_profitability,
    instructions_match,
    meldable_instructions,
    subgraph_profitability,
)
from .sese import SESESubgraph, path_subgraphs, simplify_path_subgraphs
from .meldable import (
    MeldableRegion,
    PartialMapping,
    contains_barrier,
    find_meldable_region,
    region_block_mapping,
    subgraph_isomorphism,
    subgraphs_meldable,
)
from .subgraph_align import (
    SubgraphPair,
    align_subgraphs,
    candidate_pair,
    most_profitable_pair,
)
from .instr_align import (
    InstructionPair,
    align_instructions,
    align_mapping,
    alignment_saved_cycles,
)
from .melder import MeldResult, Melder, Side
from .unpredication import unpredicate
from .pass_ import CFMConfig, CFMPass, CFMStats, run_cfm

__all__ = [
    "AlignedPair", "AlignmentResult", "needleman_wunsch",
    "block_profitability", "estimated_selects", "instruction_profitability",
    "instructions_match", "meldable_instructions", "subgraph_profitability",
    "partial_subgraph_profitability",
    "SESESubgraph", "path_subgraphs", "simplify_path_subgraphs",
    "MeldableRegion", "PartialMapping", "contains_barrier",
    "find_meldable_region", "region_block_mapping",
    "subgraph_isomorphism", "subgraphs_meldable",
    "SubgraphPair", "align_subgraphs", "candidate_pair",
    "most_profitable_pair",
    "InstructionPair", "align_instructions", "align_mapping",
    "alignment_saved_cycles",
    "MeldResult", "Melder", "Side",
    "unpredicate",
    "CFMConfig", "CFMPass", "CFMStats", "run_cfm",
]
