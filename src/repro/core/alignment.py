"""Generic sequence alignment: Needleman–Wunsch (affine gaps).

§IV-C aligns at two levels.  Over the SESE subgraph sequences of a
divergent region's true/false paths CFM uses the paper's greedy
``m × n`` scan (:mod:`repro.core.subgraph_align`); over the instruction
lists of corresponding basic blocks it uses the alignment here
(:mod:`repro.core.instr_align`).

Gap costs are affine (Gotoh's algorithm): the paper observes that a gap
of unaligned instructions costs two branches *regardless of its length*,
which is exactly ``gap_open > 0, gap_extend = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, List, Optional, Sequence, Tuple, TypeVar

A = TypeVar("A")
B = TypeVar("B")

#: score function: similarity of two elements (higher = more alignable)
ScoreFn = Callable[[A, B], float]

NEG_INF = float("-inf")


@dataclass
class AlignedPair(Generic[A, B]):
    """One alignment column: ``(a, b)``, ``(a, None)`` or ``(None, b)``."""

    left: Optional[A]
    right: Optional[B]

    @property
    def is_match(self) -> bool:
        return self.left is not None and self.right is not None

    @property
    def is_gap(self) -> bool:
        return not self.is_match


@dataclass
class AlignmentResult(Generic[A, B]):
    pairs: List[AlignedPair]
    score: float

    @property
    def matches(self) -> List[Tuple[A, B]]:
        return [(p.left, p.right) for p in self.pairs if p.is_match]

    @property
    def num_matches(self) -> int:
        return sum(1 for p in self.pairs if p.is_match)

    @property
    def num_gaps(self) -> int:
        return sum(1 for p in self.pairs if p.is_gap)


def needleman_wunsch(
    seq_a: Sequence[A],
    seq_b: Sequence[B],
    score: ScoreFn,
    gap_open: float = 0.0,
    gap_extend: float = 0.0,
    min_match_score: float = 0.0,
) -> AlignmentResult:
    """Global alignment with affine gap penalties (Gotoh).

    ``score(a, b)`` below ``min_match_score`` forbids the match outright
    (used to encode CFM's ``match()`` predicate: unmeldable instructions
    must never be aligned, however convenient).  Gap penalties are passed
    as positive costs.
    """
    n, m = len(seq_a), len(seq_b)
    # M[i][j]: best score ending in a match at (i, j).
    # X[i][j]: best score with seq_a[i-1] aligned to a gap (gap in b).
    # Y[i][j]: best score with seq_b[j-1] aligned to a gap (gap in a).
    M = [[NEG_INF] * (m + 1) for _ in range(n + 1)]
    X = [[NEG_INF] * (m + 1) for _ in range(n + 1)]
    Y = [[NEG_INF] * (m + 1) for _ in range(n + 1)]
    M[0][0] = 0.0

    # Cells default to NEG_INF, so only reachable states are written.
    for i in range(n + 1):
        row_m, row_x, row_y = M[i], X[i], Y[i]
        if i:
            a = seq_a[i - 1]
            up_m, up_x, up_y = M[i - 1], X[i - 1], Y[i - 1]
        for j in range(m + 1):
            if i and j:
                pair_score = score(a, seq_b[j - 1])
                if pair_score >= min_match_score:
                    best_prev = max(up_m[j - 1], up_x[j - 1], up_y[j - 1])
                    if best_prev > NEG_INF:
                        row_m[j] = best_prev + pair_score
            if i:
                row_x[j] = max(up_m[j] - gap_open,
                               up_x[j] - gap_extend,
                               up_y[j] - gap_open)
            if j:
                row_y[j] = max(row_m[j - 1] - gap_open,
                               row_x[j - 1] - gap_open,
                               row_y[j - 1] - gap_extend)

    # Traceback.
    pairs: List[AlignedPair] = []
    i, j = n, m
    state = max(("M", "X", "Y"), key=lambda s: {"M": M, "X": X, "Y": Y}[s][i][j])
    final = {"M": M, "X": X, "Y": Y}[state][n][m]
    while i > 0 or j > 0:
        if state == "M":
            pairs.append(AlignedPair(seq_a[i - 1], seq_b[j - 1]))
            prev = max(("M", "X", "Y"),
                       key=lambda s: {"M": M, "X": X, "Y": Y}[s][i - 1][j - 1])
            i, j = i - 1, j - 1
            state = prev
        elif state == "X":
            pairs.append(AlignedPair(seq_a[i - 1], None))
            candidates = [
                ("M", M[i - 1][j] - gap_open),
                ("X", X[i - 1][j] - gap_extend),
                ("Y", Y[i - 1][j] - gap_open),
            ]
            state = max(candidates, key=lambda c: c[1])[0]
            i -= 1
        else:
            pairs.append(AlignedPair(None, seq_b[j - 1]))
            candidates = [
                ("M", M[i][j - 1] - gap_open),
                ("X", X[i][j - 1] - gap_open),
                ("Y", Y[i][j - 1] - gap_extend),
            ]
            state = max(candidates, key=lambda c: c[1])[0]
            j -= 1
    pairs.reverse()
    return AlignmentResult(pairs, final)

