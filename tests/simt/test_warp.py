"""Tests for the lockstep warp interpreter: arithmetic semantics,
divergence serialization, reconvergence, φ handling, and traps."""

import sys

import pytest

from repro.ir import Module
from repro.simt import GPU, MachineConfig, SimulationError, run_kernel

from tests.support import parse


def run(text, buffers, block_dim=4, scalars=None, grid_dim=1, config=None):
    f = parse(text)
    # Keep the parse module: it owns any shared-array globals.
    return run_kernel(f.module, f.name, grid_dim, block_dim, buffers=buffers,
                      scalars=scalars, machine=config)


class TestArithmetic:
    def test_wrapping_add(self):
        out, _ = run("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %big = add i32 2147483647, 1
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  store i32 %big, i32 addrspace(1)* %g
  ret void
}
""", {"p": [0] * 4})
        assert out["p"][0] == -(2**31)

    def test_c_style_division(self):
        out, _ = run("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %q = sdiv i32 -7, 2
  %r = srem i32 -7, 2
  %g0 = getelementptr i32, i32 addrspace(1)* %p, i32 0
  %g1 = getelementptr i32, i32 addrspace(1)* %p, i32 1
  store i32 %q, i32 addrspace(1)* %g0
  store i32 %r, i32 addrspace(1)* %g1
  ret void
}
""", {"p": [0, 0]}, block_dim=1)
        assert out["p"] == [-3, -1]  # truncation toward zero

    def test_division_by_zero_traps(self):
        with pytest.raises(SimulationError, match="division by zero"):
            run("""
define void @k(i32 addrspace(1)* %p, i32 %z) {
entry:
  %q = sdiv i32 7, %z
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 0
  store i32 %q, i32 addrspace(1)* %g
  ret void
}
""", {"p": [0]}, scalars={"z": 0}, block_dim=1)

    def test_unsigned_compare(self):
        out, _ = run("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %c = icmp ugt i32 -1, 1
  %z = zext i1 %c to i32
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 0
  store i32 %z, i32 addrspace(1)* %g
  ret void
}
""", {"p": [0]}, block_dim=1)
        assert out["p"][0] == 1  # -1 is UINT_MAX


class TestDivergence:
    DIVERGENT = """
define void @k(i32 addrspace(1)* %p, i32 %n) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %c = icmp slt i32 %tid, %n
  br i1 %c, label %a, label %b
a:
  %pa = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  store i32 111, i32 addrspace(1)* %pa
  br label %m
b:
  %pb = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  store i32 222, i32 addrspace(1)* %pb
  br label %m
m:
  ret void
}
"""

    def test_both_sides_execute_masked(self):
        out, metrics = run(self.DIVERGENT, {"p": [0] * 8}, block_dim=8,
                           scalars={"n": 3})
        assert out["p"] == [111] * 3 + [222] * 5
        assert metrics.divergent_branches == 1

    def test_uniform_branch_not_counted_divergent(self):
        _, metrics = run(self.DIVERGENT, {"p": [0] * 8}, block_dim=8,
                         scalars={"n": 100})
        assert metrics.divergent_branches == 0

    def test_divergence_costs_double_issue(self):
        _, divergent = run(self.DIVERGENT, {"p": [0] * 8}, block_dim=8,
                           scalars={"n": 4})
        _, uniform = run(self.DIVERGENT, {"p": [0] * 8}, block_dim=8,
                         scalars={"n": 100})
        # Divergent execution issues both sides serially.
        assert divergent.instructions_issued > uniform.instructions_issued
        assert divergent.cycles > uniform.cycles
        assert divergent.alu_utilization < uniform.alu_utilization

    def test_phi_resolved_per_lane_at_join(self):
        out, _ = run("""
define void @k(i32 addrspace(1)* %p, i32 %n) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %c = icmp slt i32 %tid, %n
  br i1 %c, label %a, label %b
a:
  br label %m
b:
  br label %m
m:
  %v = phi i32 [ 100, %a ], [ 200, %b ]
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  store i32 %v, i32 addrspace(1)* %g
  ret void
}
""", {"p": [0] * 6}, block_dim=6, scalars={"n": 2})
        assert out["p"] == [100, 100, 200, 200, 200, 200]

    def test_nested_divergence_reconverges(self):
        out, _ = run("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %bit0 = and i32 %tid, 1
  %c0 = icmp eq i32 %bit0, 0
  br i1 %c0, label %even, label %odd
even:
  %bit1 = and i32 %tid, 2
  %c1 = icmp eq i32 %bit1, 0
  br i1 %c1, label %e0, label %e2
e0:
  br label %ej
e2:
  br label %ej
ej:
  %ev = phi i32 [ 10, %e0 ], [ 20, %e2 ]
  br label %m
odd:
  br label %m
m:
  %v = phi i32 [ %ev, %ej ], [ 99, %odd ]
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  store i32 %v, i32 addrspace(1)* %g
  ret void
}
""", {"p": [0] * 8}, block_dim=8)
        assert out["p"] == [10, 99, 20, 99, 10, 99, 20, 99]

    def test_divergent_loop_trip_counts(self):
        # Each lane loops tid times; lanes retire at different iterations.
        out, _ = run("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %ni, %h ]
  %ni = add i32 %i, 1
  %c = icmp slt i32 %ni, %tid
  br i1 %c, label %h, label %x
x:
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  store i32 %ni, i32 addrspace(1)* %g
  ret void
}
""", {"p": [0] * 6}, block_dim=6)
        assert out["p"] == [1, 1, 2, 3, 4, 5]


class TestUndefTraps:
    def test_branch_on_undef_traps(self):
        with pytest.raises(SimulationError, match="undef"):
            run("""
define void @k(i32 addrspace(1)* %p) {
entry:
  br i1 undef, label %a, label %b
a:
  ret void
b:
  ret void
}
""", {"p": [0]}, block_dim=1)

    def test_load_through_undef_traps(self):
        with pytest.raises(SimulationError, match="undef"):
            run("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %v = load i32, i32 addrspace(1)* undef
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 0
  store i32 %v, i32 addrspace(1)* %g
  ret void
}
""", {"p": [0]}, block_dim=1)

    def test_unselected_undef_is_harmless(self):
        # select picks the defined arm: the undef is never observed.
        out, _ = run("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %s = select i1 1, i32 7, i32 undef
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 0
  store i32 %s, i32 addrspace(1)* %g
  ret void
}
""", {"p": [0]}, block_dim=1)
        assert out["p"][0] == 7

    def test_select_on_undef_condition_propagates(self):
        # Not an observation point (LLVM: either operand, never UB): legal
        # speculation can hoist a CFM select above its guard, executing it
        # on lanes that discard the result.  Found by repro.difftest
        # (generator seed 130).
        out, _ = run("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %s = select i1 undef, i32 7, i32 9
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 0
  store i32 5, i32 addrspace(1)* %g
  ret void
}
""", {"p": [0]}, block_dim=1)
        assert out["p"][0] == 5

    def test_select_on_undef_condition_is_not_a_defined_value(self):
        # ...but the undef it yields is still visible wherever it lands:
        # a stored result reads back as the undef sentinel, so the
        # differential harness flags it as a mismatch against a clean arm.
        out, _ = run("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %s = select i1 undef, i32 7, i32 9
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 0
  store i32 %s, i32 addrspace(1)* %g
  ret void
}
""", {"p": [0]}, block_dim=1)
        assert repr(out["p"][0]) == "<undef>"


class TestMetricsAccounting:
    def test_memory_instruction_classification(self):
        _, metrics = run("""
@sh = shared [16 x i32]

define void @k(i32 addrspace(1)* %p) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %gg = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  %v = load i32, i32 addrspace(1)* %gg
  %sg = getelementptr i32, i32 addrspace(3)* @sh, i32 %tid
  store i32 %v, i32 addrspace(3)* %sg
  ret void
}
""", {"p": [0] * 4}, block_dim=4)
        assert metrics.vector_memory_issues == 1
        assert metrics.shared_memory_issues == 1
        assert metrics.flat_memory_issues == 0

    def test_coalescing_charges_transactions(self):
        coalesced_src = """
define void @k(i32 addrspace(1)* %p) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  %v = load i32, i32 addrspace(1)* %g
  ret void
}
"""
        strided_src = """
define void @k(i32 addrspace(1)* %p) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %idx = mul i32 %tid, 64
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 %idx
  %v = load i32, i32 addrspace(1)* %g
  ret void
}
"""
        _, coalesced = run(coalesced_src, {"p": [0] * 2048}, block_dim=8)
        _, strided = run(strided_src, {"p": [0] * 2048}, block_dim=8)
        assert strided.memory_transactions > coalesced.memory_transactions
        assert strided.cycles > coalesced.cycles

    def test_alu_utilization_full_when_uniform(self):
        _, metrics = run("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %x = add i32 %tid, 1
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  store i32 %x, i32 addrspace(1)* %g
  ret void
}
""", {"p": [0] * 32}, block_dim=32)
        assert metrics.alu_utilization == 1.0


class TestBarriers:
    def test_barrier_orders_cross_warp_communication(self):
        # 64 threads = 2 warps; each thread writes then reads neighbour's
        # slot across the warp boundary.
        out, _ = run("""
@sh = shared [64 x i32]

define void @k(i32 addrspace(1)* %p) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %sg = getelementptr i32, i32 addrspace(3)* @sh, i32 %tid
  store i32 %tid, i32 addrspace(3)* %sg
  call void @llvm.gpu.barrier()
  %other = xor i32 %tid, 63
  %og = getelementptr i32, i32 addrspace(3)* @sh, i32 %other
  %v = load i32, i32 addrspace(3)* %og
  %gg = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  store i32 %v, i32 addrspace(1)* %gg
  ret void
}
""", {"p": [0] * 64}, block_dim=64)
        assert out["p"] == [63 - i for i in range(64)]

    def test_nonuniform_barrier_detected(self):
        with pytest.raises(SimulationError, match="non-uniform barrier"):
            run("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %c = icmp slt i32 %tid, 32
  br i1 %c, label %sync, label %out
sync:
  call void @llvm.gpu.barrier()
  br label %out
out:
  ret void
}
""", {"p": [0]}, block_dim=64)


class TestGrid:
    def test_block_ids_and_grid(self):
        out, _ = run("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %bid = call i32 @llvm.gpu.ctaid.x()
  %dim = call i32 @llvm.gpu.ntid.x()
  %base = mul i32 %bid, %dim
  %gid = add i32 %base, %tid
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 %gid
  store i32 %bid, i32 addrspace(1)* %g
  ret void
}
""", {"p": [0] * 12}, block_dim=4, grid_dim=3)
        assert out["p"] == [0] * 4 + [1] * 4 + [2] * 4

    def test_missing_argument_rejected(self):
        with pytest.raises(ValueError, match="missing kernel arguments"):
            run("""
define void @k(i32 addrspace(1)* %p, i32 %n) {
entry:
  ret void
}
""", {"p": [0]}, block_dim=1)

    def test_runaway_kernel_detected(self):
        with pytest.raises(SimulationError, match="non-termination"):
            run("""
define void @k(i32 addrspace(1)* %p) {
entry:
  br label %h
h:
  br label %h
}
""", {"p": [0]}, block_dim=1,
                config=MachineConfig(max_warp_steps=1000))


class TestReferenceFacts:
    def test_postdominators_computed_once_per_launch(self, monkeypatch):
        # The reference evaluator's control-flow facts are per-launch
        # state shared by every warp: a grid-2 x block-128 launch is 8
        # warps and must still cost one post-dominator tree.
        calls = []
        for name, module in list(sys.modules.items()):
            real = getattr(module, "compute_postdominator_tree", None)
            if name.startswith("repro.simt.") and real is not None:
                monkeypatch.setattr(
                    module, "compute_postdominator_tree",
                    lambda function, real=real: (calls.append(function.name),
                                                 real(function))[1])
        out, _ = run(TestDivergence.DIVERGENT, {"p": [0] * 128},
                     block_dim=128, grid_dim=2, scalars={"n": 5},
                     config=MachineConfig(executor="reference"))
        assert out["p"] == [111] * 5 + [222] * 123
        assert calls == ["k"]
