"""Tests for the generic alignment algorithms, including a brute-force
cross-check of Needleman–Wunsch optimality on small sequences."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.core.alignment import needleman_wunsch


def eq_score(a, b):
    return 3.0 if a == b else float("-inf")


def sim_score(a, b):
    return 3.0 if a == b else -1.0


class TestNeedlemanWunsch:
    def test_identical_sequences_fully_match(self):
        result = needleman_wunsch("abcd", "abcd", eq_score, gap_open=1.0)
        assert result.matches == list(zip("abcd", "abcd"))
        assert len(result.pairs) == 4
        assert result.score == 12.0

    def test_empty_sequences(self):
        result = needleman_wunsch([], [], eq_score, gap_open=1.0)
        assert result.pairs == []
        assert result.score == 0.0

    def test_one_empty_sequence_all_gaps(self):
        result = needleman_wunsch("ab", "", eq_score, gap_open=1.0, gap_extend=0.5)
        assert [(p.left, p.right) for p in result.pairs] == [
            ("a", None), ("b", None)]
        assert result.score == -1.5  # open once, extend once

    def test_gap_open_zero_extension_constant_cost(self):
        # Affine with extend=0: a long gap costs the same as a short one —
        # the paper's "two branches per gap, independent of length".
        short = needleman_wunsch("ax", "a", eq_score, gap_open=2.0, gap_extend=0.0)
        long_ = needleman_wunsch("axxxx", "a", eq_score, gap_open=2.0, gap_extend=0.0)
        assert short.score == 3.0 - 2.0
        assert long_.score == 3.0 - 2.0

    def test_forbidden_matches_never_aligned(self):
        result = needleman_wunsch("ab", "ba", eq_score, gap_open=0.1,
                                  min_match_score=0.0)
        for pair in result.pairs:
            if pair.is_match:
                assert pair.left == pair.right

    def test_order_preserved(self):
        result = needleman_wunsch([1, 5, 2, 6], [5, 6], sim_score, gap_open=1.0)
        matches = result.matches
        assert matches == [(5, 5), (6, 6)]

    def test_interleaved_alignment(self):
        result = needleman_wunsch("xaybz", "ab", eq_score, gap_open=0.5)
        assert ("a", "a") in result.matches
        assert ("b", "b") in result.matches


def _brute_force_best(seq_a, seq_b, score, gap_open):
    """Enumerate all order-preserving match sets; affine gaps with
    extend=0 ⇒ each maximal gap run costs gap_open once."""
    best = float("-inf")
    n, m = len(seq_a), len(seq_b)
    indices_a = list(range(n))
    for k in range(min(n, m) + 1):
        for picks_a in itertools.combinations(range(n), k):
            for picks_b in itertools.combinations(range(m), k):
                total = 0.0
                ok = True
                for ia, ib in zip(picks_a, picks_b):
                    s = score(seq_a[ia], seq_b[ib])
                    if s == float("-inf"):
                        ok = False
                        break
                    total += s
                if not ok:
                    continue
                total -= gap_open * _gap_runs(picks_a, picks_b, n, m)
                best = max(best, total)
    return best


def _gap_runs(picks_a, picks_b, n, m):
    """Number of maximal gap runs in the alignment implied by the picks.
    Runs in a and b between consecutive matches merge into a single
    alignment region but remain separate runs (a-side then b-side)."""
    runs = 0
    prev_a, prev_b = -1, -1
    for ia, ib in zip(picks_a, picks_b):
        if ia - prev_a > 1:
            runs += 1
        if ib - prev_b > 1:
            runs += 1
        prev_a, prev_b = ia, ib
    if n - 1 - prev_a > 0:
        runs += 1
    if m - 1 - prev_b > 0:
        runs += 1
    return runs


@given(st.lists(st.integers(0, 3), max_size=5), st.lists(st.integers(0, 3), max_size=5))
@settings(max_examples=60, deadline=None)
def test_nw_matches_brute_force(seq_a, seq_b):
    gap = 1.0
    result = needleman_wunsch(seq_a, seq_b, sim_score, gap_open=gap,
                              gap_extend=0.0, min_match_score=-1e18)
    brute = _brute_force_best(seq_a, seq_b, sim_score, gap)
    if not seq_a and not seq_b:
        assert result.score == 0.0
        return
    assert abs(result.score - brute) < 1e-9


@given(st.lists(st.integers(0, 3), max_size=6), st.lists(st.integers(0, 3), max_size=6))
@settings(max_examples=60, deadline=None)
def test_nw_traceback_consistent_with_score(seq_a, seq_b):
    """Recomputing the score from the traceback must reproduce it."""
    gap_open, gap_extend = 1.0, 0.25
    result = needleman_wunsch(seq_a, seq_b, sim_score, gap_open=gap_open,
                              gap_extend=gap_extend, min_match_score=-1e18)
    total = 0.0
    prev_gap_side = None
    for pair in result.pairs:
        if pair.is_match:
            total += sim_score(pair.left, pair.right)
            prev_gap_side = None
        else:
            side = "a" if pair.left is not None else "b"
            total += -(gap_extend if side == prev_gap_side else gap_open)
            prev_gap_side = side
    assert abs(total - result.score) < 1e-9



def _reference_needleman_wunsch(seq_a, seq_b, score, gap_open=0.0,
                                gap_extend=0.0, min_match_score=0.0):
    """The DP and traceback as first written (``max`` over the three
    states, first state wins a tie), kept as the oracle for which of
    several equal-score alignments comes back: meld decisions depend
    on that choice, not only on the score."""
    n, m = len(seq_a), len(seq_b)
    NEG_INF = float("-inf")
    M = [[NEG_INF] * (m + 1) for _ in range(n + 1)]
    X = [[NEG_INF] * (m + 1) for _ in range(n + 1)]
    Y = [[NEG_INF] * (m + 1) for _ in range(n + 1)]
    M[0][0] = 0.0
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

    tables = {"M": M, "X": X, "Y": Y}
    pairs = []
    i, j = n, m
    state = max(("M", "X", "Y"), key=lambda s: tables[s][i][j])
    final = tables[state][n][m]
    while i > 0 or j > 0:
        if state == "M":
            pairs.append((seq_a[i - 1], seq_b[j - 1]))
            prev = max(("M", "X", "Y"), key=lambda s: tables[s][i - 1][j - 1])
            i, j = i - 1, j - 1
            state = prev
        elif state == "X":
            pairs.append((seq_a[i - 1], None))
            candidates = [("M", M[i - 1][j] - gap_open),
                          ("X", X[i - 1][j] - gap_extend),
                          ("Y", Y[i - 1][j] - gap_open)]
            state = max(candidates, key=lambda c: c[1])[0]
            i -= 1
        else:
            pairs.append((None, seq_b[j - 1]))
            candidates = [("M", M[i][j - 1] - gap_open),
                          ("X", X[i][j - 1] - gap_open),
                          ("Y", Y[i][j - 1] - gap_extend)]
            state = max(candidates, key=lambda c: c[1])[0]
            j -= 1
    pairs.reverse()
    return pairs, final


#: -1 forbids the match (below ``min_match_score`` 0)
_tie_scores = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-1, 2))


@given(st.lists(st.integers(0, 3), max_size=6),
       st.lists(st.integers(0, 3), max_size=6),
       _tie_scores, st.integers(0, 2), st.integers(1, 2))
@settings(max_examples=300, deadline=None)
def test_nw_tie_break_matches_reference(seq_a, seq_b, table, gap_open,
                                        gap_extend):
    """Small integer scores and gap costs make equal-score alignments
    common; the same one must come back as from the reference DP."""
    def score(a, b):
        return float(table.get((a, b), 0))

    # Indices make equal elements distinguishable in the pairs.
    tagged_a = [(k, v) for k, v in enumerate(seq_a)]
    tagged_b = [(k, v) for k, v in enumerate(seq_b)]

    def tagged_score(a, b):
        return score(a[1], b[1])

    result = needleman_wunsch(tagged_a, tagged_b, tagged_score,
                              gap_open=float(gap_open),
                              gap_extend=float(gap_extend) / 2,
                              min_match_score=0.0)
    pairs, final = _reference_needleman_wunsch(
        tagged_a, tagged_b, tagged_score, gap_open=float(gap_open),
        gap_extend=float(gap_extend) / 2, min_match_score=0.0)
    assert [(p.left, p.right) for p in result.pairs] == pairs
    assert result.score == final
