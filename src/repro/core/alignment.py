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


@dataclass
class AlignmentResult(Generic[A, B]):
    pairs: List[AlignedPair]
    score: float

    @property
    def matches(self) -> List[Tuple[A, B]]:
        return [(p.left, p.right) for p in self.pairs if p.is_match]


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
    # The O(n·m) cells inline their three-way maxima the way ``max``
    # computes them: of two equal candidates the earlier is kept.
    row_m, row_x, row_y = M[0], X[0], Y[0]
    for j in range(1, m + 1):
        row_y[j] = max(row_m[j - 1] - gap_open, row_x[j - 1] - gap_open,
                       row_y[j - 1] - gap_extend)
    for i in range(1, n + 1):
        a = seq_a[i - 1]
        up_m, up_x, up_y = row_m, row_x, row_y
        row_m, row_x, row_y = M[i], X[i], Y[i]
        row_x[0] = max(up_m[0] - gap_open, up_x[0] - gap_extend,
                       up_y[0] - gap_open)
        for j in range(1, m + 1):
            pair_score = score(a, seq_b[j - 1])
            if pair_score >= min_match_score:
                best, x, y = up_m[j - 1], up_x[j - 1], up_y[j - 1]
                best = x if x > best else best
                best = y if y > best else best
                if best > NEG_INF:
                    row_m[j] = best + pair_score
            best, x, y = (up_m[j] - gap_open, up_x[j] - gap_extend,
                          up_y[j] - gap_open)
            best = x if x > best else best
            row_x[j] = y if y > best else best
            best, x, y = (row_m[j - 1] - gap_open, row_x[j - 1] - gap_open,
                          row_y[j - 1] - gap_extend)
            best = x if x > best else best
            row_y[j] = y if y > best else best

    # Traceback: on a tie the earlier state (M, X, Y) wins.
    pairs: List[AlignedPair] = []
    i, j = n, m
    state = _best_state(M[n][m], X[n][m], Y[n][m])
    final = {"M": M, "X": X, "Y": Y}[state][n][m]
    while i > 0 or j > 0:
        if state == "M":
            pairs.append(AlignedPair(seq_a[i - 1], seq_b[j - 1]))
            i, j = i - 1, j - 1
            state = _best_state(M[i][j], X[i][j], Y[i][j])
        elif state == "X":
            pairs.append(AlignedPair(seq_a[i - 1], None))
            i -= 1
            state = _best_state(M[i][j] - gap_open, X[i][j] - gap_extend,
                                Y[i][j] - gap_open)
        else:
            pairs.append(AlignedPair(None, seq_b[j - 1]))
            j -= 1
            state = _best_state(M[i][j] - gap_open, X[i][j] - gap_open,
                                Y[i][j] - gap_extend)
    pairs.reverse()
    return AlignmentResult(pairs, final)


def _best_state(m: float, x: float, y: float) -> str:
    """The state whose score is largest, the earliest on a tie."""
    state, best = "M", m
    if x > best:
        state, best = "X", x
    if y > best:
        state = "Y"
    return state
