"""Ablations over CFM's design choices (DESIGN.md §6).

1. **Unpredication on/off for pure runs** — §IV-E/§IV-G: splitting pure
   gap runs is later undone by if-conversion, so performance should not
   depend on it (correctness never does; side-effecting runs always
   split).
2. **Profitability threshold** — Algorithm 1's gate: at threshold ≥ 0.5
   nothing melds (identical profiles score exactly 0.5).
3. **Warp width 32 vs 64** — the paper's GPU uses 64-wide wavefronts;
   melding wins in both configurations.
"""

import pytest

from repro import ALL_BUILDERS, CFMConfig, MachineConfig, compare, geomean

KERNELS = ["SB3", "BIT", "PCM"]


def sweep(config=None, machine=None, block_size=32):
    results = {}
    for name in KERNELS:
        results[name] = compare(ALL_BUILDERS[name], block_size=block_size,
                                grid_dim=1, config=config, machine=machine,
                                name=name)
    return results


@pytest.fixture(scope="module")
def default():
    return sweep()


def test_ablation_unpredication_of_pure_runs(default):
    no_split = sweep(CFMConfig(split_pure_runs=False))
    print()
    print("Ablation: unpredication of pure gap runs (on vs off)")
    for name in KERNELS:
        on, off = default[name], no_split[name]
        print(f"  {name:4s} split {on.speedup:.3f}x   "
              f"predicated {off.speedup:.3f}x")
        # The late if-conversion re-predicates pure runs anyway (§IV-G),
        # so the two configurations land close together.
        assert abs(on.speedup - off.speedup) < 0.15


def test_ablation_profitability_threshold():
    print()
    print("Ablation: profitability threshold")
    rows = []
    for threshold in (0.05, 0.25, 0.45, 0.60):
        result = compare(ALL_BUILDERS["BIT"], block_size=32, grid_dim=1,
                         config=CFMConfig(profitability_threshold=threshold),
                         name="BIT")
        rows.append((threshold, result))
        print(f"  threshold {threshold:.2f}: {result.melds} melds, "
              f"{result.speedup:.3f}x")
    # Identical opcode profiles score exactly 0.5: past that, no melds.
    assert rows[0][1].melds > 0
    assert rows[-1][1].melds == 0
    assert abs(rows[-1][1].speedup - 1.0) < 0.02


def test_ablation_warp_width(default):
    vega = sweep(machine=MachineConfig(warp_size=64), block_size=64)
    print()
    print("Ablation: warp width 32 (default) vs 64 (Vega wavefront)")
    for name in KERNELS:
        print(f"  {name:4s} w32 {default[name].speedup:.3f}x   "
              f"w64 {vega[name].speedup:.3f}x")
        # Divergence penalties exist at both widths; melding must win.
        assert vega[name].speedup > 1.05
