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
        assert result.num_gaps == 0
        assert result.score == 12.0

    def test_empty_sequences(self):
        result = needleman_wunsch([], [], eq_score, gap_open=1.0)
        assert result.pairs == []
        assert result.score == 0.0

    def test_one_empty_sequence_all_gaps(self):
        result = needleman_wunsch("ab", "", eq_score, gap_open=1.0, gap_extend=0.5)
        assert result.num_gaps == 2
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

