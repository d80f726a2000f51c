"""Figure 8: real-world benchmark speedups over the block-size sweeps.

Paper: 1.15× geomean over all benchmark × block-size variants; the only
(statistically insignificant) slowdown is DCT; BIT and PCM improve the
most; LUD improves only at the block sizes where it is divergent; the
'+'-marked best-baseline block size never regresses under CFM, and
GM-best ≥ GM.
"""

from repro import format_figure8, geomean


def test_figure8_regenerates(fig8_data):
    print()
    print(format_figure8(fig8_data))

    assert fig8_data.geomean_all > 1.0
    for row in fig8_data.rows:
        assert row.speedup > 0.93, f"{row.label} regressed: {row.speedup:.3f}"


def test_bit_and_pcm_lead(fig8_data):
    best = {}
    for row in fig8_data.rows:
        best[row.kernel] = max(best.get(row.kernel, 0.0), row.speedup)
    # §VI-B: "The highest relative improvement ... bitonic sort and PCM".
    leaders = sorted(best, key=best.get, reverse=True)[:3]
    assert "BIT" in leaders
    assert "PCM" in leaders
    assert best["DCT"] == min(best.values())


def test_lud_divergence_is_block_size_dependent(fig8_data):
    lud = {r.block_size: r.speedup for r in fig8_data.rows if r.kernel == "LUD"}
    divergent = [lud[b] for b in lud if b <= 64]
    convergent = [lud[b] for b in lud if b >= 128]
    assert max(divergent) > 1.1
    assert all(0.97 <= s <= 1.03 for s in convergent)


def test_best_baseline_blocks_never_regress(fig8_data):
    for row in fig8_data.rows:
        if fig8_data.best_baseline_block[row.kernel] == row.block_size:
            assert row.speedup > 0.97, \
                f"{row.kernel}+ block {row.block_size}: {row.speedup:.3f}"
