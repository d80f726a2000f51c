"""Profile a kernel's dynamic divergence, per branch — the measurement
that motivates CFM (§I): which branches actually serialize warps, how
often, and what melding does about it.  The profile is the launch's
warp trace: every branch issue is a ``branch`` or ``diverge`` event, and
``divergence_summary`` counts them per block.

Run:  python examples/divergence_profile.py [kernel] [block_size]
"""

import sys

from repro import (
    ALL_BUILDERS,
    compile_baseline,
    compile_cfm,
    divergence_summary,
    run_kernel,
    trace,
)


def profile(case, label):
    inputs = case.make_buffers(99)
    with trace() as tracer:
        _, metrics = run_kernel(case.module, case.kernel, case.grid_dim,
                                case.block_dim,
                                buffers={k: list(v) for k, v in inputs.items()},
                                scalars=case.scalars)
    (launch,) = divergence_summary(tracer.events)
    print(f"\n{label}: {metrics.cycles} cycles, "
          f"{metrics.divergent_branches}/{metrics.branches} branch issues divergent")
    rows = sorted((s for s in launch.blocks.values() if s.branch_executions),
                  key=lambda s: s.divergent_executions, reverse=True)
    print(f"  {'branch block':<28s} {'execs':>7s} {'divergent':>10s} {'rate':>6s}")
    for stat in rows[:12]:
        print(f"  %{stat.block:<27s} {stat.branch_executions:>7d} "
              f"{stat.divergent_executions:>10d} {stat.divergence_rate:>6.1%}")
    return metrics


def main() -> None:
    kernel = sys.argv[1] if len(sys.argv) > 1 else "BIT"
    block_size = int(sys.argv[2]) if len(sys.argv) > 2 else 32

    baseline = ALL_BUILDERS[kernel](block_size=block_size, grid_dim=1)
    compile_baseline(baseline)
    base_metrics = profile(baseline, f"{kernel} baseline (-O3)")

    melded = ALL_BUILDERS[kernel](block_size=block_size, grid_dim=1)
    result = compile_cfm(melded)
    cfm_metrics = profile(melded, f"{kernel} after CFM "
                          f"({len(result.cfm_stats.melds)} melds)")

    print(f"\ndivergent branch issues: {base_metrics.divergent_branches} -> "
          f"{cfm_metrics.divergent_branches}")
    print(f"speedup: {base_metrics.cycles / cfm_metrics.cycles:.3f}x")


if __name__ == "__main__":
    main()
