"""Unit tests for the µop lowering layer behind the fast-path executor.

Covers the corners the corpus-wide differential (test_executor_diff)
only hits probabilistically: φs that reference themselves or carry
``undef`` (the shapes :func:`repro.transforms.repair_ssa` produces),
select-on-undef propagation (the generator seed 130 regression), and
the program cache's keying —
identity on re-launch, invalidation on IR mutation, separation by
latency model and reconvergence policy.
"""

from __future__ import annotations

import pytest

import repro
from repro import GPU, run_kernel
from repro.analysis.latency import LatencyModel
from repro.difftest.generator import generate_spec, make_inputs
from repro.difftest.oracle import ALL_ARMS, _compile_arm
from repro.ir import Constant, I32, Opcode, verify_function
from repro.simt import (
    MachineConfig,
    SimulationError,
    get_program,
    invalidate_lowering,
    lower_function,
)
from repro.transforms import repair_ssa

from tests.support import parse

EXECUTORS = ("reference", "fast")


def _both(module, kernel, buffers, scalars=None, grid=2, block=8):
    """Run on both executors; assert parity; return the fast result."""
    results = {}
    for executor in EXECUTORS:
        outputs, metrics = run_kernel(
            module, kernel, grid, block,
            buffers={k: list(v) for k, v in buffers.items()},
            scalars=scalars, machine=MachineConfig(executor=executor))
        results[executor] = (outputs, metrics.as_dict())
    assert results["fast"] == results["reference"]
    return results["fast"]


# ---- φ shapes -------------------------------------------------------------


SELF_PHI = """
define void @k(i32 addrspace(1)* %p) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  br label %header
header:
  %x = phi i32 [ %tid, %entry ], [ %x, %latch ]
  %i = phi i32 [ 0, %entry ], [ %next, %latch ]
  %cont = icmp slt i32 %i, 4
  br i1 %cont, label %latch, label %exit
latch:
  %next = add i32 %i, 1
  br label %header
exit:
  %ptr = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  store i32 %x, i32 addrspace(1)* %ptr
  ret void
}
"""


def test_self_referential_phi_executes_identically():
    f = parse(SELF_PHI)
    outputs, _ = _both(f.module, "k", {"p": [0] * 16})
    # Both blocks write p[tid]: the loop-invariant self-φ keeps %x = tid.
    assert outputs["p"] == list(range(8)) + [0] * 8


def test_repaired_ssa_phi_with_undef_incoming():
    # A definition inside one branch arm used past the merge: invalid
    # SSA that repair_ssa fixes by inserting a φ whose bypass edge
    # carries undef.  The repaired kernel must lower (undef φ operands
    # share the constant undef slot) and run identically on both
    # executors — the undef only flows into lanes whose select never
    # observes it.
    f = parse("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %c = icmp slt i32 %tid, 4
  br i1 %c, label %a, label %m
a:
  %v = mul i32 %tid, 3
  br label %m
m:
  %sel = icmp slt i32 %tid, 4
  %safe = select i1 %sel, i32 %v, i32 7
  %ptr = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  store i32 %safe, i32 addrspace(1)* %ptr
  ret void
}
""")
    assert repair_ssa(f)
    verify_function(f)
    outputs, _ = _both(f.module, "k", {"p": [0] * 16})
    assert outputs["p"][:8] == [0, 3, 6, 9, 7, 7, 7, 7]
    assert outputs["p"][8:] == [0] * 8


# ---- undef semantics ------------------------------------------------------


def test_select_on_undef_propagates_then_branch_traps():
    # Generator seed 130 regression shape: `select undef, a, b` must
    # yield undef (not trap); the trap fires only when the undef value
    # reaches a branch condition — with the reference's exact message.
    f = parse("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %x = select i1 undef, i32 1, i32 2
  %c = icmp eq i32 %x, 1
  br i1 %c, label %a, label %b
a:
  br label %b
b:
  ret void
}
""")
    messages = {}
    for executor in EXECUTORS:
        with pytest.raises(SimulationError) as excinfo:
            run_kernel(f.module, "k", 1, 8, buffers={"p": [0] * 8},
                       machine=MachineConfig(executor=executor))
        messages[executor] = str(excinfo.value)
        assert "branch on undef condition" in messages[executor]
    assert messages["fast"] == messages["reference"]


def test_generator_seed_130_all_arms_agree():
    spec = generate_spec(130)
    ran = 0
    for arm in ALL_ARMS:
        report = _compile_arm(arm, spec, None)
        if report.failure is not None or report.builder is None:
            continue
        per_executor = {}
        for executor in EXECUTORS:
            with GPU(report.builder.module,
                     MachineConfig(executor=executor)) as gpu:
                result = repro.launch(report.builder.module, spec.grid_dim,
                                      spec.block_dim, make_inputs(spec, 0),
                                      gpu=gpu)
            per_executor[executor] = (result.outputs,
                                      result.metrics.as_dict())
        assert per_executor["fast"] == per_executor["reference"], \
            f"arm {arm} diverges on seed 130"
        ran += 1
    assert ran > 0, "seed 130 compiled under no arm; regression test is dead"


# ---- program cache --------------------------------------------------------


def _simple_function():
    return parse("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %ptr = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  %v = load i32, i32 addrspace(1)* %ptr
  %w = add i32 %v, 1
  store i32 %w, i32 addrspace(1)* %ptr
  ret void
}
""")


def test_program_cache_returns_identical_object():
    f = _simple_function()
    machine = MachineConfig()
    assert get_program(f, machine) is get_program(f, machine)


def test_program_cache_detects_in_place_rewrites():
    f = _simple_function()
    machine = MachineConfig()
    before = get_program(f, machine)
    # In-place operand rewrite, no invalidation call: the fingerprint
    # must catch it on the next lookup.
    add = next(i for b in f.blocks for i in b.instructions
               if i.opcode == Opcode.ADD)
    add.set_operand(1, Constant(I32, 2))
    after = get_program(f, machine)
    assert after is not before


def test_invalidate_lowering_forces_relower():
    f = _simple_function()
    machine = MachineConfig()
    before = get_program(f, machine)
    invalidate_lowering(f)
    assert get_program(f, machine) is not before


def test_program_memo_does_not_keep_function_alive():
    # µop closures reference the function they were lowered from; a
    # process-level table of them (even a weak-keyed one) would pin it.
    import gc
    import weakref

    f = _simple_function()
    get_program(f, MachineConfig())
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


def test_clear_lowering_memo_forces_relower():
    from repro.simt import clear_lowering_memo

    f = _simple_function()
    machine = MachineConfig()
    before = get_program(f, machine)
    clear_lowering_memo()
    after = get_program(f, machine)
    assert after is not before
    assert get_program(f, machine) is after


def test_program_cache_keyed_by_latency_model():
    f = _simple_function()
    default = MachineConfig()
    custom_latency = LatencyModel()
    custom_latency.opcode_latency = dict(custom_latency.opcode_latency)
    custom_latency.opcode_latency[Opcode.ADD] = 6
    custom = MachineConfig(latency=custom_latency)
    program_default = get_program(f, default)
    program_custom = get_program(f, custom)
    # Latencies are baked into µops, so the models cannot share programs
    # — and neither entry may evict the other.
    assert program_default is not program_custom
    assert get_program(f, default) is program_default
    assert get_program(f, custom) is program_custom


def _count_lowerings(monkeypatch):
    """Spy on ``lower_function`` — what a memo or cache miss costs."""
    from repro.simt import lowering
    calls = []
    real = lowering.lower_function

    def counted(function, latency):
        calls.append(function.name)
        return real(function, latency)

    monkeypatch.setattr(lowering, "lower_function", counted)
    return calls


def test_program_cache_shared_across_reconvergence_policies(monkeypatch):
    # lower_symbolic(function, latency) cannot see the policy: machines
    # identical but for it share one memo entry.
    calls = _count_lowerings(monkeypatch)
    f = _simple_function()
    program = get_program(f, MachineConfig(reconvergence="ipdom"))
    assert get_program(f, MachineConfig(reconvergence="min-pc")) is program
    assert get_program(f, MachineConfig(executor="reference")) is program
    assert calls == ["k"]


def test_function_launched_under_both_policies_lowers_once(monkeypatch):
    calls = _count_lowerings(monkeypatch)
    f = _simple_function()
    memories = [
        run_kernel(f.module, "k", 1, 8, buffers={"p": [0] * 8},
                   machine=MachineConfig(reconvergence=policy))[0]
        for policy in ("ipdom", "min-pc")]
    assert memories[0] == memories[1]
    assert calls == ["k"]


def test_latency_model_changes_simulated_cycles():
    f = _simple_function()
    _, default_metrics = run_kernel(f.module, "k", 1, 8,
                                    buffers={"p": [0] * 8})
    expensive = MachineConfig()
    expensive.latency = LatencyModel()
    expensive.latency.opcode_latency = dict(expensive.latency.opcode_latency)
    expensive.latency.opcode_latency[Opcode.ADD] = 400
    f2 = _simple_function()
    _, slow_metrics = run_kernel(f2.module, "k", 1, 8,
                                 buffers={"p": [0] * 8}, machine=expensive)
    assert slow_metrics.cycles > default_metrics.cycles


def test_lowering_records_const_and_arg_slots():
    f = _simple_function()
    program = lower_function(f, MachineConfig().latency)
    assert program.function_name == "k"
    assert program.num_slots >= 4
    assert any(value == 1 for _, value in program.const_slots)
    arg_names = [arg.name for _, arg in program.arg_slots]
    assert arg_names == ["p"]
