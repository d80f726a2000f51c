"""Figure 10: memory instruction counters (vector/LDS/flat), CFM
normalized to baseline, at the best-improvement block sizes.

Paper: shared-memory (LDS) instruction counts drop sharply for the
synthetic kernels and for BIT/PCM (whose melded regions are full of LDS
ops); the drop is smaller for the -R variants because their memory
instructions do not align perfectly (§VI-D).
"""

import pytest

from repro import best_improvement_rows, counters, format_counters


@pytest.fixture(scope="module")
def counter_rows(fig7_data, fig8_data):
    rows, _ = fig7_data
    return counters(best_improvement_rows(rows + fig8_data.rows))


def test_figure10_regenerates(counter_rows):
    print()
    print(format_counters(counter_rows))


def test_lds_counts_drop_for_shared_memory_kernels(counter_rows):
    rows = {r.kernel: r for r in counter_rows}
    for kernel in ("SB1", "SB2", "SB3", "SB1-R", "SB2-R", "SB3-R",
                   "BIT", "PCM"):
        assert rows[kernel].normalized_shared_memory < 0.9, \
            f"{kernel}: {rows[kernel].normalized_shared_memory:.3f}"


def test_exact_variants_drop_more_than_randomized(counter_rows):
    rows = {r.kernel: r for r in counter_rows}
    for base in ("SB1", "SB2", "SB3"):
        assert rows[base].normalized_shared_memory <= \
            rows[f"{base}-R"].normalized_shared_memory + 1e-9


def test_memory_counters_never_increase_materially(counter_rows):
    # §VI-D: LUD's LDS count may rise "slightly due to predication by
    # later passes"; everything else must not regress.
    for row in counter_rows:
        assert row.normalized_vector_memory <= 1.10, row.kernel
        assert row.normalized_shared_memory <= 1.25, row.kernel
        assert row.normalized_flat_memory <= 1.10, row.kernel
