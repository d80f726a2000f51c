"""``python -m repro.difftest`` — the differential fuzzing campaign.

Generates seeded random divergent kernels, runs each through the full
arm matrix (no-opt / -O3 / -O3+CFM / tail-merging / branch-fusion) with
per-pass IR verification, and diffs device memory bit-for-bit.  Failing
kernels are delta-debugged down to minimal DSL programs and written to
the corpus as JSON entries plus standalone repro scripts.

Typical invocations::

    python -m repro.difftest --seeds 200            # fixed-count sweep
    python -m repro.difftest --budget 60 --validate # time-boxed (CI), with
                                                    # meld translation
                                                    # validation as a sixth,
                                                    # static oracle
    python -m repro.difftest --seeds 50 --inject-bug swap-select

Exit status: 0 when every kernel agrees across every arm, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro.obs import (
    MetricsRegistry,
    Tracer,
    current_registry,
    use as use_tracer,
    use_registry,
)
from repro.simt import RECONVERGENCE_POLICIES, MachineConfig

from .bugs import BUGS, inject
from .corpus import write_entry
from .generator import KernelSpec, generate_spec
from .oracle import ALL_ARMS, Verdict, arm_trace, run_oracle
from .shrink import shrink


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.difftest",
        description="Differential fuzzing of the CFM compiler pipelines.")
    parser.add_argument("--seeds", type=int, default=None, metavar="N",
                        help="number of generator seeds to test "
                             "(default: 100, or unlimited with --budget)")
    parser.add_argument("--budget", type=float, default=None, metavar="S",
                        help="stop after S seconds (checked between seeds)")
    parser.add_argument("--base-seed", type=int, default=0,
                        help="first generator seed (default: 0)")
    parser.add_argument("--block-size", type=int, default=16,
                        help="threads per block for generated kernels")
    parser.add_argument("--grid", type=int, default=2,
                        help="blocks per launch for generated kernels")
    parser.add_argument("--inputs", type=int, default=2, metavar="K",
                        help="input sets per kernel (default: 2)")
    parser.add_argument("--arms", default=",".join(ALL_ARMS),
                        help=f"comma-separated arm subset "
                             f"(default: {','.join(ALL_ARMS)})")
    parser.add_argument("--corpus-dir", type=Path,
                        default=Path("difftest-corpus"),
                        help="where failing repros are written")
    parser.add_argument("--no-shrink", action="store_true",
                        help="record failures without minimizing them")
    parser.add_argument("--inject-bug", choices=sorted(BUGS), default=None,
                        help="sabotage a transform for mutation testing")
    parser.add_argument("--validate", action="store_true",
                        help="enable symbolic translation validation on the "
                             "o3-cfm arm: every meld is proven under both "
                             "divergence-mask cases and an INEQUIVALENT "
                             "verdict fails the arm (kind 'validate') even "
                             "when no input set witnesses it dynamically")
    parser.add_argument("--reconvergence", choices=RECONVERGENCE_POLICIES,
                        default="ipdom",
                        help="warp reconvergence policy the oracle arms run "
                             "under (default: ipdom); device memory must "
                             "agree bit-for-bit whichever policy is chosen")
    parser.add_argument("--trace", type=Path, default=None, metavar="FILE",
                        help="run the whole campaign under a repro.obs "
                             "tracer and write Chrome trace JSON here "
                             "(loads in Perfetto; slows the fuzz loop)")
    parser.add_argument("--metrics", type=Path, default=None, metavar="FILE",
                        help="run under a repro.obs metrics registry and "
                             "write the campaign's aggregate metrics here "
                             "as Prometheus text exposition")
    parser.add_argument("--quiet", action="store_true",
                        help="only print the final summary")
    args = parser.parse_args(argv)
    if args.seeds is None and args.budget is None:
        args.seeds = 100
    if args.seeds is not None and args.seeds < 1:
        parser.error("--seeds must be at least 1: with no seed nothing "
                     "is run and every arm trivially agrees")
    if args.budget is not None and args.budget <= 0:
        parser.error("--budget must be positive: a spent budget runs no "
                     "seed and every arm trivially agrees")
    if args.inputs < 1:
        parser.error("--inputs must be at least 1: with no input set "
                     "nothing is run and every arm trivially agrees")
    arms = [a.strip() for a in args.arms.split(",") if a.strip()]
    unknown = sorted(set(arms) - set(ALL_ARMS))
    if unknown or not arms:
        problem = (f"unknown arm(s) {', '.join(unknown)}" if unknown
                   else "no arm named")
        parser.error(f"--arms: {problem} (choose from "
                     f"{', '.join(ALL_ARMS)})")
    # What run_oracle compiles and runs: it always adds the reference arm.
    args.arms = tuple(dict.fromkeys(
        arms if "noopt" in arms else ["noopt", *arms]))
    return args


def _progress(quiet: bool, text: str) -> None:
    if not quiet:
        print(text, flush=True)


def run_campaign(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(argv)
    arms = args.arms
    input_seeds = tuple(range(args.inputs))
    deadline = (time.perf_counter() + args.budget
                if args.budget is not None else None)

    # Exits run last-in first-out: the tracer and registry scopes close,
    # then the trace is written, then the metrics, then the bug is undone.
    with contextlib.ExitStack() as stack:
        if args.inject_bug:
            stack.enter_context(inject(args.inject_bug))
        if args.metrics is not None:
            registry = MetricsRegistry()
            stack.callback(_write_metrics, registry, args.metrics)
        if args.trace is not None:
            tracer = Tracer()
            stack.callback(_write_trace, tracer, args.trace)
            stack.enter_context(use_tracer(tracer))
        if args.metrics is not None:
            stack.enter_context(use_registry(registry))
        return _campaign_body(args, arms, input_seeds, deadline)


def _write_trace(tracer: Tracer, path: Path) -> None:
    tracer.write(str(path))
    print(f"wrote {path} ({len(tracer.events)} trace events)")


def _write_metrics(registry: MetricsRegistry, path: Path) -> None:
    registry.write_prom(str(path))
    print(f"wrote {path}")


def _campaign_body(args: argparse.Namespace, arms: Sequence[str],
                   input_seeds: Sequence[int],
                   deadline: Optional[float]) -> int:
    tested = 0
    failing: List[Verdict] = []
    total_melds = 0
    verified_passes = 0
    machine = MachineConfig(reconvergence=args.reconvergence)
    start = time.perf_counter()

    seed = args.base_seed
    while True:
        if args.seeds is not None and tested >= args.seeds:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            break
        spec = generate_spec(seed, block_dim=args.block_size,
                             grid_dim=args.grid)
        verdict = run_oracle(spec, arms=arms, input_seeds=input_seeds,
                             machine=machine, validate=args.validate)
        tested += 1
        total_melds += sum(r.melds for r in verdict.arms.values())
        verified_passes += sum(r.verified_passes
                               for r in verdict.arms.values())
        if not verdict.ok:
            _progress(args.quiet,
                      f"seed {seed}: FAIL — {verdict.failures[0]}")
            _record_failure(args, spec, verdict, arms, input_seeds, machine)
            failing.append(verdict)
        elif tested % 25 == 0:
            _progress(args.quiet,
                      f"  ... {tested} kernels ok "
                      f"({time.perf_counter() - start:.1f}s)")
        seed += 1

    elapsed = time.perf_counter() - start
    rate = tested / elapsed if elapsed > 0 else 0.0
    registry = current_registry()
    if registry is not None:
        registry.counter("repro_difftest_seeds_total",
                         "Generator seeds run through the oracle").inc(tested)
        registry.counter("repro_difftest_melds_total",
                         "Melds applied across all oracle arms"
                         ).inc(total_melds)
        failures_by_arm = registry.counter(
            "repro_difftest_failures_total",
            "Oracle failures by the arm that disagreed")
        for verdict in failing:
            for failure in verdict.failures:
                failures_by_arm.labels(arm=failure.arm).inc()
        if elapsed > 0:
            registry.gauge("repro_difftest_seeds_per_second",
                           "Campaign fuzzing throughput").set(rate)
    mismatches = sum(v.mismatches for v in failing)
    verifier_failures = sum(v.verifier_failures for v in failing)
    lint_failures = sum(v.lint_failures for v in failing)
    validate_failures = sum(v.validate_failures for v in failing)
    crashes = sum(1 for v in failing
                  for f in v.failures if f.kind == "crash")
    print(f"difftest: {tested} kernels x {len(arms)} arms in {elapsed:.1f}s "
          f"({rate:.1f} seeds/s, {verified_passes} per-pass verifications, "
          f"{total_melds} melds)")
    print(f"  output mismatches:  {mismatches}")
    print(f"  verifier failures:  {verifier_failures}")
    print(f"  lint failures:      {lint_failures}")
    if args.validate:
        print(f"  validate failures:  {validate_failures}")
    print(f"  crashes:            {crashes}")
    if failing:
        print(f"  repros written to:  {args.corpus_dir}/")
        return 1
    print("  all arms agree bit-for-bit")
    return 0


def _record_failure(args: argparse.Namespace, spec: KernelSpec,
                    verdict: Verdict, arms: Sequence[str],
                    input_seeds: Sequence[int],
                    machine: Optional[MachineConfig] = None) -> None:
    original_statements = spec.statement_count()
    final_spec, final_verdict = spec, verdict

    if not args.no_shrink:
        def is_failing(candidate: KernelSpec) -> bool:
            return not run_oracle(candidate, arms=arms,
                                  input_seeds=input_seeds,
                                  machine=machine,
                                  validate=args.validate).ok

        result = shrink(spec, is_failing)
        final_spec = result.spec
        final_verdict = run_oracle(final_spec, arms=arms,
                                   input_seeds=input_seeds,
                                   machine=machine,
                                   validate=args.validate)
        if final_verdict.ok:  # paranoia: never record a passing "repro"
            final_spec, final_verdict = spec, verdict
        else:
            _progress(args.quiet,
                      f"  shrunk {result.original_statements} -> "
                      f"{result.statements} statements "
                      f"({result.attempts} attempts)")

    # Recompile each failing arm under a fresh tracer so the corpus
    # entry carries its pass-span trace and melding decision log.
    failing_arms = sorted({f.arm for f in final_verdict.failures})
    traces = [arm_trace(final_spec, arm, validate=args.validate)
              for arm in failing_arms]

    path = write_entry(args.corpus_dir, final_spec, final_verdict,
                       original_statements=original_statements,
                       input_seeds=input_seeds,
                       injected_bug=args.inject_bug,
                       traces=traces,
                       validate=args.validate)
    _progress(args.quiet, f"  wrote {path}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run_campaign(argv)


if __name__ == "__main__":
    sys.exit(main())
