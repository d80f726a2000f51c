"""Tests for the evaluation harness and the paper's expected shapes.

These tests run small versions of each experiment and assert the
qualitative claims of §VI — the reproduction's headline checks.
"""

import pytest

from repro.evaluation import (
    best_improvement_rows,
    compare,
    compile_cfm,
    counters,
    geomean,
    run_sweep,
    table1,
    table2,
)
from repro.evaluation.experiments import DEFAULT_SEED
from repro.kernels import (
    REAL_WORLD_BUILDERS,
    SYNTHETIC_BUILDERS,
    build_bitonic,
    build_dct,
    build_lud,
)


@pytest.fixture(scope="module")
def synthetic_rows():
    return run_sweep(SYNTHETIC_BUILDERS,
                     {name: [16, 32] for name in SYNTHETIC_BUILDERS},
                     grid_dim=1, seed=DEFAULT_SEED)


@pytest.fixture(scope="module")
def real_rows():
    sizes = {"LUD": [16, 32, 128], "BIT": [16, 32], "DCT": [32, 64],
             "MS": [16, 32], "PCM": [16, 32]}
    return run_sweep(REAL_WORLD_BUILDERS, sizes, grid_dim=1, seed=DEFAULT_SEED)


class TestGeomean:
    def test_geomean_basics(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([1.5]) == pytest.approx(1.5)

    def test_geomean_empty_raises(self):
        # The old 0.0 fallback silently zeroed GM columns in reports.
        with pytest.raises(ValueError):
            geomean([])

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.2, 0.0])
        with pytest.raises(ValueError):
            geomean([1.2, -3.0])

    def test_geomean_long_sweep_no_overflow(self):
        # A naive running product overflows to inf here; log-domain
        # summation keeps the result finite and exact.
        assert geomean([1e100] * 400) == pytest.approx(1e100, rel=1e-9)
        assert geomean([1e-100] * 400) == pytest.approx(1e-100, rel=1e-9)


class TestFigure7Shapes:
    """Paper claims for the synthetic benchmarks (§VI-B, Figure 7)."""

    def test_cfm_always_at_least_breaks_even(self, synthetic_rows):
        for row in synthetic_rows:
            assert row.speedup > 0.95, f"{row.label}: {row.speedup}"

    def test_geomean_speedup_positive(self, synthetic_rows):
        assert geomean([r.speedup for r in synthetic_rows]) > 1.05

    def test_exact_variants_beat_randomized(self, synthetic_rows):
        by_key = {(r.kernel, r.block_size): r.speedup for r in synthetic_rows}
        for base in ("SB1", "SB2", "SB3"):
            for block in (16, 32):
                assert by_key[(base, block)] >= by_key[(f"{base}-R", block)], \
                    f"{base} vs {base}-R at block {block}"

    def test_sb3_melds_most_pairs(self, synthetic_rows):
        melds = {}
        for row in synthetic_rows:
            melds.setdefault(row.kernel, row.melds)
        assert melds["SB3"] > melds["SB1"]
        assert melds["SB3"] > melds["SB2"]


class TestFigure8Shapes:
    """Paper claims for the real benchmarks (§VI-B, Figure 8)."""

    def test_geomean_speedup_positive(self, real_rows):
        assert geomean([r.speedup for r in real_rows]) > 1.0

    def test_no_meaningful_slowdowns(self, real_rows):
        for row in real_rows:
            assert row.speedup > 0.93, f"{row.label}: {row.speedup}"

    def test_bit_and_pcm_have_high_speedups(self, real_rows):
        speedups = {}
        for row in real_rows:
            speedups.setdefault(row.kernel, []).append(row.speedup)
        assert max(speedups["BIT"]) > 1.15
        assert max(speedups["PCM"]) > 1.15

    def test_dct_speedup_is_smallest(self, real_rows):
        best = {}
        for row in real_rows:
            best[row.kernel] = max(best.get(row.kernel, 0.0), row.speedup)
        assert best["DCT"] == min(best.values())

    def test_lud_no_slowdown_when_convergent(self, real_rows):
        # At block sizes >= 128 the row/column split aligns with warp
        # boundaries: the branch is still *statically* divergent (CFM
        # melds it) but *dynamically* convergent, and the paper reports
        # CFM causing no slowdown in that configuration (±2% here).
        convergent = [r for r in real_rows
                      if r.kernel == "LUD" and r.block_size >= 128]
        assert convergent
        for row in convergent:
            assert 0.97 <= row.speedup <= 1.03

    def test_lud_speedup_only_when_divergent(self, real_rows):
        by_block = {r.block_size: r.speedup
                    for r in real_rows if r.kernel == "LUD"}
        # Divergent small blocks improve visibly; convergent ones do not.
        assert by_block[16] > 1.1 and by_block[32] > 1.1
        assert by_block[128] < 1.05


class TestFigures9And10Shapes:
    def test_alu_utilization_improves_except_possibly_bit(self, real_rows,
                                                          synthetic_rows):
        rows = counters(best_improvement_rows(synthetic_rows + real_rows))
        for row in rows:
            if row.kernel == "BIT":
                continue  # §VI-C: bitonic's ALU utilization may drop
            assert row.cfm_alu_utilization >= row.baseline_alu_utilization, \
                row.kernel

    def test_shared_memory_counts_drop_for_lds_kernels(self, real_rows,
                                                       synthetic_rows):
        rows = {r.kernel: r for r in
                counters(best_improvement_rows(synthetic_rows + real_rows))}
        for kernel in ("SB1", "SB2", "SB3", "BIT", "PCM"):
            assert rows[kernel].normalized_shared_memory < 1.0, kernel

    def test_exact_variants_reduce_lds_more_than_randomized(self,
                                                            synthetic_rows):
        rows = {r.kernel: r for r in
                counters(best_improvement_rows(synthetic_rows))}
        for base in ("SB1", "SB2", "SB3"):
            assert rows[base].normalized_shared_memory <= \
                rows[f"{base}-R"].normalized_shared_memory


class TestTable1Shape:
    @pytest.fixture(scope="class")
    def rows(self):
        return table1()

    def matrix(self, rows):
        return {(r.pattern, r.technique): r for r in rows}

    def test_all_outputs_correct(self, rows):
        for row in rows:
            assert row.outputs_correct, f"{row.pattern}/{row.technique}"

    def test_capability_matrix_matches_paper(self, rows):
        m = self.matrix(rows)
        # Row 1: everyone handles the identical diamond.
        assert m[("diamond-identical", "tail-merging")].melds
        assert m[("diamond-identical", "branch-fusion")].melds
        assert m[("diamond-identical", "cfm")].melds
        # Row 2: tail merging fails on distinct sequences.
        assert not m[("diamond-distinct", "tail-merging")].melds
        assert m[("diamond-distinct", "branch-fusion")].melds
        assert m[("diamond-distinct", "cfm")].melds
        # Row 3: only CFM handles complex control flow.
        assert not m[("complex", "tail-merging")].melds
        assert not m[("complex", "branch-fusion")].melds
        assert m[("complex", "cfm")].melds


class TestTable2Shape:
    def test_compile_overhead_ranking(self):
        rows = {r.kernel: r for r in table2(block_size=32, repeats=1)}
        # §VI-E: LUD (long NW alignments) has the largest CFM compile
        # overhead, by a margin one repeat's wall-clock noise cannot close.
        others = [rows[k].normalized for k in ("DCT", "MS")]
        assert rows["LUD"].normalized > max(others)
        # PCM's wall-clock margin over DCT is within that noise, so its
        # cause (many subgraph pairs) and LUD's are stated as the counts
        # the pass reports.
        stats = {name: compile_cfm(REAL_WORLD_BUILDERS[name](block_size=32)
                                   ).cfm_stats
                 for name in ("LUD", "PCM", "DCT", "MS")}
        regions = {k: s.regions_considered for k, s in stats.items()}
        pairs = {k: sum(len(d.alignment) for d in s.decisions)
                 for k, s in stats.items()}
        largest = {k: max(m.instructions_melded for m in s.melds)
                   for k, s in stats.items()}
        assert (regions["PCM"], pairs["PCM"]) == (18, 54)
        assert [(regions[k], pairs[k]) for k in ("DCT", "MS")] == [(1, 1),
                                                                  (5, 5)]
        assert len(stats["LUD"].melds) == 1 and largest["LUD"] == 111
        assert largest["LUD"] > 10 * max(largest[k] for k in
                                         ("PCM", "DCT", "MS"))

    def test_all_rows_present(self):
        rows = table2(repeats=1)
        assert {r.kernel for r in rows} == set(REAL_WORLD_BUILDERS)
        for row in rows:
            assert row.o3_seconds > 0
            assert row.cfm_seconds > 0
