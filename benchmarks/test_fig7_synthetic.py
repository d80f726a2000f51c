"""Figure 7: synthetic benchmark speedups (SB1/2/3 and -R variants).

Paper: CFM gives a 1.32× geomean speedup over the block-size sweep; the
-R variants improve less than their exact counterparts; SB3/SB3-R improve
the most because multiple subgraph pairs meld.

Run with ``pytest benchmarks/test_fig7_synthetic.py -s`` to see the
regenerated figure data.
"""

from repro import format_speedups, geomean


def test_figure7_regenerates(fig7_data):
    rows, gm = fig7_data
    print()
    print(format_speedups(rows, "Figure 7: synthetic benchmark speedups"))

    # Shape assertions (see DESIGN.md §4 / EXPERIMENTS.md).
    assert gm > 1.05, "geomean speedup must be clearly positive"
    by_key = {(r.kernel, r.block_size): r.speedup for r in rows}
    blocks = sorted({r.block_size for r in rows})
    for base in ("SB1", "SB2", "SB3"):
        for block in blocks:
            assert by_key[(base, block)] >= by_key[(f"{base}-R", block)] - 1e-9

    best_per_kernel = {}
    for row in rows:
        best_per_kernel[row.kernel] = max(
            best_per_kernel.get(row.kernel, 0.0), row.speedup)
    # SB3 melds multiple pairs and improves the most among exact variants.
    assert best_per_kernel["SB3"] >= best_per_kernel["SB1"] - 1e-9
    assert best_per_kernel["SB3"] >= best_per_kernel["SB2"] - 1e-9


def test_figure7_no_slowdowns(fig7_data):
    rows, _ = fig7_data
    for row in rows:
        assert row.speedup > 0.95, f"{row.label} regressed: {row.speedup:.3f}"
