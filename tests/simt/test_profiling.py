"""Tests for the per-branch divergence profile: a traced launch's
``branch``/``diverge`` events, folded per block by ``divergence_summary``."""

import json

import pytest

import repro
from repro.obs import BlockStat, divergence_summary
from repro.simt import MachineConfig, run_kernel

from tests.support import parse


DIVERGENT = """
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
  ret void
}
"""


def launch(n, grid=1, block=8, machine=None):
    f = parse(DIVERGENT)
    return run_kernel(f.module, "k", grid, block,
                      buffers={"p": [0] * (grid * block)},
                      scalars={"n": n}, machine=machine)[1]


def profile(n, grid=1, block=8, machine=None):
    """``{block: [executions, divergent]}`` of one traced launch's
    branch blocks."""
    with repro.trace() as tracer:
        launch(n, grid, block, machine)
    (summary,) = divergence_summary(tracer.events)
    return {s.block: [s.branch_executions, s.divergent_executions]
            for s in summary.blocks.values() if s.branch_executions}


class TestBranchProfile:
    def test_divergent_branch_recorded(self):
        assert profile(n=3)["entry"] == [1, 1]

    def test_uniform_branch_recorded(self):
        assert profile(n=100)["entry"] == [1, 0]

    def test_disabled_by_default(self):
        # Only launches inside the trace scope are profiled.
        launch(n=3)
        with repro.trace() as tracer:
            launch(n=3)
        assert len(divergence_summary(tracer.events)) == 1

    def test_unknown_block_rate_zero(self):
        assert BlockStat(block="nonexistent").divergence_rate == 0.0

    def test_profiles_merge_across_warps(self):
        # 2 blocks x 2 warps = 4 warp executions of %entry; only the warp
        # containing lanes 0..31 of each block diverges at n=16.
        assert profile(n=16, grid=2, block=64)["entry"] == [4, 2]

    @pytest.mark.parametrize("executor", ["fast", "reference"])
    @pytest.mark.parametrize("reconvergence", ["ipdom", "min-pc"])
    def test_counts_independent_of_executor_and_policy(self, executor,
                                                       reconvergence):
        machine = MachineConfig(executor=executor,
                                reconvergence=reconvergence)
        assert profile(n=16, grid=2, block=64, machine=machine) == {
            "entry": [4, 2], "a": [2, 0], "b": [4, 0]}


class TestMetricsAsDict:
    def test_round_trips_through_json(self):
        payload = json.loads(json.dumps(launch(n=3).as_dict()))
        assert payload["divergent_branches"] == 1
        assert "branch_profile" not in payload
        assert 0.0 <= payload["alu_utilization"] <= 1.0
