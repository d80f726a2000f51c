"""CFM vs branch fusion on the real benchmarks.

The paper's §VI-A states, per kernel, whether branch fusion (Coutinho et
al.) applies: LUD ✓ (diamond once unrolled), DCT ✓, MS ✓ (simple diamond),
BIT ✗ and PCM ✗ (control flow too complex).  This benchmark measures all
five kernels under both transforms and asserts:

* branch fusion only ever matches CFM where the paper says it applies;
* on BIT and PCM branch fusion leaves the headline divergence on the
  table (CFM strictly better);
* CFM is never worse than branch fusion (it subsumes it).
"""

import pytest

from repro import (
    REAL_WORLD_BUILDERS,
    compare,
    compile_baseline,
    eliminate_dead_code,
    execute,
    fuse_branches,
    geomean,
    optimize,
    simplify_cfg,
    speculate_hammocks,
    verify_function,
)

BLOCKS = {"LUD": 16, "BIT": 32, "DCT": 64, "MS": 32, "PCM": 16}
#: §VI-A: can branch fusion fully handle this kernel's divergence?
PAPER_BF_APPLIES = {"LUD": True, "BIT": False, "DCT": True, "MS": True,
                    "PCM": False}


def run_with_branch_fusion(name):
    case = REAL_WORLD_BUILDERS[name](block_size=BLOCKS[name], grid_dim=1)
    optimize(case.function)
    fuse_branches(case.function)
    simplify_cfg(case.function)
    speculate_hammocks(case.function)
    simplify_cfg(case.function)
    eliminate_dead_code(case.function)
    verify_function(case.function)
    return execute(case, seed=2022).metrics


@pytest.fixture(scope="module")
def results():
    rows = {}
    for name in REAL_WORLD_BUILDERS:
        baseline_case = REAL_WORLD_BUILDERS[name](block_size=BLOCKS[name],
                                                  grid_dim=1)
        compile_baseline(baseline_case)
        baseline = execute(baseline_case, seed=2022).metrics
        fusion = run_with_branch_fusion(name)
        cfm = compare(REAL_WORLD_BUILDERS[name], block_size=BLOCKS[name],
                      grid_dim=1, seed=2022, name=name)
        rows[name] = {
            "bf_speedup": baseline.cycles / fusion.cycles,
            "cfm_speedup": cfm.speedup,
        }
    return rows


def test_comparison_regenerates(results):
    print()
    print("CFM vs branch fusion (speedup over the -O3 baseline)")
    print(f"  {'kernel':<6s} {'branch fusion':>14s} {'cfm':>8s} "
          f"{'BF applies (paper)':>20s}")
    for name, row in results.items():
        print(f"  {name:<6s} {row['bf_speedup']:>13.3f}x "
              f"{row['cfm_speedup']:>7.3f}x "
              f"{'yes' if PAPER_BF_APPLIES[name] else 'no':>20s}")


def test_cfm_subsumes_branch_fusion(results):
    for name, row in results.items():
        assert row["cfm_speedup"] >= row["bf_speedup"] - 0.02, name


def test_branch_fusion_misses_complex_kernels(results):
    # BIT and PCM's divergent regions are not diamonds: fusion leaves the
    # bulk of CFM's win on the table.
    for name in ("BIT", "PCM"):
        assert results[name]["cfm_speedup"] > \
            results[name]["bf_speedup"] + 0.10, name


def test_branch_fusion_matches_cfm_on_diamonds(results):
    # Where the paper says fusion applies, it captures most of the win.
    for name in ("LUD", "DCT"):
        assert results[name]["bf_speedup"] >= \
            results[name]["cfm_speedup"] - 0.05, name
