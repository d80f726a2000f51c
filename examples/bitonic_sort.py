"""The paper's running example: bitonic sort (Figure 1 / Figure 5).

Shows the full CFM pipeline on the bitonic kernel:

1. the original CFG with its divergent ascending/descending regions;
2. the melded CFG after `run_cfm` (compare with the paper's Figure 5);
3. simulated execution of both, with the counters the paper reports
   (cycles, ALU utilization, LDS instruction count).

Run:  python examples/bitonic_sort.py [block_size]
"""

import random
import sys

from repro import compile_baseline, compile_cfm, print_function, run_kernel
from repro import REAL_WORLD_BUILDERS

build_bitonic = REAL_WORLD_BUILDERS["BIT"]


def run(case, data):
    outputs, metrics = run_kernel(
        case.module, case.kernel, case.grid_dim, case.block_dim,
        buffers={"values": list(data)})
    return outputs["values"], metrics


def main() -> None:
    block_size = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    grid_dim = 2
    rng = random.Random(42)
    data = [rng.randrange(10_000) for _ in range(block_size * grid_dim)]

    baseline = build_bitonic(block_size=block_size, grid_dim=grid_dim)
    compile_baseline(baseline)

    melded = build_bitonic(block_size=block_size, grid_dim=grid_dim)
    result = compile_cfm(melded)

    print(f"bitonic sort, {grid_dim} buckets x {block_size} elements")
    print(f"\nCFM melded {len(result.cfm_stats.melds)} subgraph pairs:")
    for record in result.cfm_stats.melds:
        print(f"  ({record.true_entry}, {record.false_entry}) "
              f"FP_S={record.fp_s:.2f} "
              f"melded={record.instructions_melded} "
              f"selects={record.selects_inserted}")

    sorted_base, metrics_base = run(baseline, data)
    sorted_melded, metrics_melded = run(melded, data)

    for block in range(grid_dim):
        lo, hi = block * block_size, (block + 1) * block_size
        assert sorted_base[lo:hi] == sorted(data[lo:hi])
    assert sorted_base == sorted_melded, "CFM changed the sort result!"

    print("\nbaseline:", metrics_base.summary())
    print("melded:  ", metrics_melded.summary())
    print(f"\nspeedup              : "
          f"{metrics_base.cycles / metrics_melded.cycles:.3f}x")
    print(f"ALU utilization      : {metrics_base.alu_utilization:.1%} -> "
          f"{metrics_melded.alu_utilization:.1%}")
    print(f"LDS instruction count: {metrics_base.shared_memory_issues} -> "
          f"{metrics_melded.shared_memory_issues} "
          f"({metrics_melded.shared_memory_issues / metrics_base.shared_memory_issues:.2f}x)")
    print("\nMelded kernel CFG (compare with the paper's Figure 5e):")
    print(print_function(melded.function))


if __name__ == "__main__":
    main()
