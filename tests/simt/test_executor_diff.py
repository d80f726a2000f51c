"""Executor × reconvergence-policy differential over the difftest corpus.

Two contracts are held here, across the difftest generator corpus —
every oracle arm (noopt, -O3, CFM, tail merging, branch fusion) of every
seed, so melded, unpredicated and speculated control flow all pass
through every configuration:

* **Executor parity** (bit-identical observables): for any kernel the
  reference interpreter can run under a given
  :class:`~repro.simt.MachineConfig`, both executors must produce the
  same device memory, the same :class:`~repro.simt.Metrics` counters,
  the same WarpTrace event stream (same events, same order, same
  simulated-cycle timestamps), and therefore the same divergence
  heatmap.  This is checked per reconvergence policy.

* **Policy invariance of memory**: device memory must be bit-identical
  across reconvergence policies ("ipdom" vs "min-pc") — the policy may
  reorder *when* divergent paths execute but never *what* each lane
  computes.  Cycle counts and divergence observables are per-policy and
  deliberately excluded from this comparison.

A third, narrower contract backs the one *documented* asymmetry between
the evaluators: the fast path's register file starts out wholesale
``UNDEF``, so the reference's ``read of unwritten value`` trap has no
counterpart there.  That is unobservable only if no verified kernel can
reach the trap — so the verifier must reject a use its definition does
not dominate, every arm of the corpus must be verified IR, and the
reference must never raise that trap on it.

``REPRO_EXECUTOR_DIFF_SEEDS`` selects corpus width: tier-1 runs the
default 10 seeds; the CI perf job sweeps 100.
"""

from __future__ import annotations

import os

import pytest

import repro
from repro import GPU
from repro.difftest.generator import generate_spec, make_inputs
from repro.difftest.oracle import ALL_ARMS, _compile_arm
from repro.ir import VerificationError, verify_function
from repro.obs import Tracer, use
from repro.obs.report import divergence_summary, render_report
from repro.simt import (
    RECONVERGENCE_POLICIES,
    UNDEF,
    MachineConfig,
    SimulationError,
    run_kernel,
)

from tests.support import parse

SEED_COUNT = int(os.environ.get("REPRO_EXECUTOR_DIFF_SEEDS", "10"))
INPUT_SEEDS = (0, 1)

#: wall-clock trace fields; everything else must match bit for bit
WALL_CLOCK_KEYS = ("ts", "dur")


def _normalize(event):
    out = {k: v for k, v in event.items() if k not in WALL_CLOCK_KEYS}
    if event.get("cat") == "sim" or event.get("ph") == "C":
        out["ts"] = event["ts"]  # simulated cycles: deterministic, keep
    return out


def _run_arm_observed(builder, spec, machine):
    """Launch one compiled arm on one machine; return all observables."""
    tracer = Tracer()
    with use(tracer):
        with GPU(builder.module, machine) as gpu:
            runs = []
            for input_seed in INPUT_SEEDS:
                args = make_inputs(spec, input_seed)
                result = repro.launch(builder.module, spec.grid_dim,
                                      spec.block_dim, args, gpu=gpu,
                                      trace_label=f"diff:{input_seed}")
                runs.append((result.outputs, result.metrics.as_dict()))
                gpu.reset()
    events = [_normalize(e) for e in tracer.events]
    summaries = divergence_summary(tracer.events)
    heatmap = [(s.label, s.divergent_branch_executions, s.branch_executions)
               for s in summaries]
    return {
        "runs": runs,
        "events": events,
        "heatmap": heatmap,
        "report": render_report(tracer.events),
    }


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_executors_and_policies_agree_on_generated_kernel(seed):
    spec = generate_spec(seed)
    for arm in ALL_ARMS:
        report = _compile_arm(arm, spec, None)
        if report.failure is not None or report.builder is None:
            continue  # compile-side failure: not this suite's concern
        for function in report.builder.module.functions.values():
            verify_function(function)
        per_policy = {}
        for policy in RECONVERGENCE_POLICIES:
            ref_machine = MachineConfig(executor="reference",
                                        reconvergence=policy)
            fast_machine = MachineConfig(executor="fast",
                                         reconvergence=policy)
            try:
                reference = _run_arm_observed(report.builder, spec,
                                              ref_machine)
            except Exception as exc:
                # The reference arm rejects this kernel (e.g. a runtime
                # trap); the fast path must reject it identically under
                # the same policy — which the one reference-only trap
                # never could, so verified IR must not reach it.
                assert "read of unwritten value" not in str(exc), \
                    f"seed {seed} arm {arm} policy {policy}: {exc}"
                with pytest.raises(type(exc)) as excinfo:
                    _run_arm_observed(report.builder, spec, fast_machine)
                assert str(excinfo.value) == str(exc), \
                    (f"seed {seed} arm {arm} policy {policy}: "
                     f"executors trap differently")
                per_policy[policy] = None  # trapped
                continue
            fast = _run_arm_observed(report.builder, spec, fast_machine)
            for index, (ref_run, fast_run) in enumerate(
                    zip(reference["runs"], fast["runs"])):
                assert fast_run[0] == ref_run[0], \
                    (f"seed {seed} arm {arm} policy {policy} input {index}: "
                     f"device memory differs")
                assert fast_run[1] == ref_run[1], \
                    (f"seed {seed} arm {arm} policy {policy} input {index}: "
                     f"metrics differ")
            assert fast["events"] == reference["events"], \
                f"seed {seed} arm {arm} policy {policy}: trace streams differ"
            assert fast["heatmap"] == reference["heatmap"], \
                f"seed {seed} arm {arm} policy {policy}: heatmaps differ"
            assert fast["report"] == reference["report"]
            per_policy[policy] = [run[0] for run in reference["runs"]]

        # Cross-policy contract: every policy traps, or none does — a
        # lane's instruction stream is policy-invariant, so the first
        # faulting lane faults under every schedule (possibly with a
        # different message when several lanes fault).
        trapped = {p for p, memory in per_policy.items() if memory is None}
        assert trapped in (set(), set(per_policy)), \
            f"seed {seed} arm {arm}: only {sorted(trapped)} trapped"
        if trapped:
            continue
        baseline_policy = RECONVERGENCE_POLICIES[0]
        for policy, memory in per_policy.items():
            assert memory == per_policy[baseline_policy], \
                (f"seed {seed} arm {arm}: device memory differs between "
                 f"{baseline_policy} and {policy}")


USE_NOT_DOMINATED = """
define void @k(i32 addrspace(1)* %p, i32 %n) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %c = icmp slt i32 %tid, %n
  br i1 %c, label %a, label %m
a:
  %x = add i32 %tid, 1
  br label %m
m:
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  store i32 %x, i32 addrspace(1)* %g
  ret void
}
"""


def test_unwritten_read_takes_ir_the_verifier_rejects():
    # With n = 0 no lane defines %x before block m reads it: the
    # reference's dict register file has no entry (it traps), the fast
    # path's flat file holds UNDEF (it carries on).  The verifier's
    # dominance check is what keeps that difference out of every
    # pipeline: this IR never gets as far as a launch.
    f = parse(USE_NOT_DOMINATED)
    with pytest.raises(VerificationError, match="does not dominate use"):
        verify_function(f)

    def launch(executor):
        return run_kernel(f.module, "k", 1, 4, buffers={"p": [7] * 4},
                          scalars={"n": 0},
                          machine=MachineConfig(executor=executor))

    with pytest.raises(SimulationError, match="read of unwritten value %x"):
        launch("reference")
    outputs, _ = launch("fast")
    assert outputs["p"] == [UNDEF] * 4


def test_seed_width_is_env_tunable():
    assert SEED_COUNT >= 1
