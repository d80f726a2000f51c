"""Figure 9: ALU utilization, baseline vs CFM, at each kernel's
best-improvement block size.

Paper: CFM improves ALU utilization significantly for all benchmarks
except bitonic sort, where non-meldable compares plus added selects can
drag it down (§VI-C).
"""

import pytest

from repro import best_improvement_rows, counters, format_counters


@pytest.fixture(scope="module")
def counter_rows(fig7_data, fig8_data):
    rows, _ = fig7_data
    return counters(best_improvement_rows(rows + fig8_data.rows))


def test_figure9_regenerates(counter_rows):
    print()
    print(format_counters(counter_rows))


def test_alu_utilization_improves(counter_rows):
    for row in counter_rows:
        if row.kernel == "BIT":
            # The paper's one exception: allow a drop, bounded.
            assert row.cfm_alu_utilization > row.baseline_alu_utilization - 0.15
            continue
        assert row.cfm_alu_utilization >= row.baseline_alu_utilization - 1e-9, \
            f"{row.kernel}: {row.baseline_alu_utilization:.2f} -> " \
            f"{row.cfm_alu_utilization:.2f}"


def test_divergence_heavy_kernels_gain_most(counter_rows):
    gains = {r.kernel: r.cfm_alu_utilization - r.baseline_alu_utilization
             for r in counter_rows}
    # The melding-friendly synthetic kernels see large absolute gains.
    assert gains["SB1"] > 0.15
    assert gains["SB3"] > 0.15
