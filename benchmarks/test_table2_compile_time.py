"""Table II: compile time with and without CFM for the real benchmarks.

Paper (absolute seconds on HIPCC; we report our Python pipeline):

| kernel | O3     | CFM    | normalized |
|--------|--------|--------|-----------|
| LUD    | 2.3754 | 3.7209 | 1.5664 |
| BIT    | 0.6690 | 0.6663 | 0.9960 |
| DCT    | 0.6178 | 0.6207 | 1.0047 |
| MS     | 0.9633 | 0.9699 | 1.0068 |
| PCM    | 1.0427 | 1.2320 | 1.1816 |

Absolute numbers are not comparable (our "O3" compiles a few hundred IR
instructions in Python; HIPCC compiles a full device module in C++), so
normalized ratios are uniformly larger here.  The reproduction target is
the paper's *explanation* (§VI-E): LUD's overhead is dominated by long
Needleman–Wunsch instruction alignments and PCM's by the m×n subgraph
profitability scan, so those two kernels top the overhead ranking.
"""

import pytest

from repro import format_table2, table2


@pytest.fixture(scope="module")
def rows():
    return table2(block_size=32, repeats=3)


def test_table2_regenerates(rows):
    print()
    print(format_table2(rows))


def test_lud_and_pcm_have_highest_overhead(rows):
    by_kernel = {r.kernel: r.normalized for r in rows}
    for cheap in ("DCT", "MS"):
        assert by_kernel["LUD"] > by_kernel[cheap]
        assert by_kernel["PCM"] > by_kernel[cheap]


def test_every_kernel_compiles_under_a_second(rows):
    for row in rows:
        assert row.cfm_seconds < 1.0, f"{row.kernel}: {row.cfm_seconds:.3f}s"
