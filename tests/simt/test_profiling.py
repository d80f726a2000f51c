"""Tests for the per-branch divergence profile."""

from repro.simt import MachineConfig, Metrics, run_kernel

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


def run(n, profile=True):
    f = parse(DIVERGENT)
    config = MachineConfig(profile_branches=profile)
    _, metrics = run_kernel(f.module, "k", 1, 8, buffers={"p": [0] * 8},
                            scalars={"n": n}, machine=config)
    return metrics


class TestBranchProfile:
    def test_divergent_branch_recorded(self):
        metrics = run(n=3)
        assert metrics.branch_profile["entry"] == [1, 1]
        assert metrics.divergence_rate("entry") == 1.0

    def test_uniform_branch_recorded(self):
        metrics = run(n=100)
        assert metrics.branch_profile["entry"] == [1, 0]
        assert metrics.divergence_rate("entry") == 0.0

    def test_disabled_by_default(self):
        metrics = run(n=3, profile=False)
        assert metrics.branch_profile == {}

    def test_unknown_block_rate_zero(self):
        metrics = run(n=3)
        assert metrics.divergence_rate("nonexistent") == 0.0

    def test_profiles_merge_across_warps(self):
        f = parse(DIVERGENT)
        config = MachineConfig(profile_branches=True)
        _, metrics = run_kernel(f.module, "k", 2, 64,
                                buffers={"p": [0] * 128},
                                scalars={"n": 16}, machine=config)
        # 2 blocks x 2 warps = 4 warp executions of %entry; only the warp
        # containing lanes 0..31 of each block diverges at n=16.
        execs, divs = metrics.branch_profile["entry"]
        assert execs == 4
        assert divs == 2

    def test_merge_accumulates_profile(self):
        a = run(n=3)
        b = run(n=3)
        a.merge(b)
        assert a.branch_profile["entry"] == [2, 2]


class TestMetricsAsDict:
    def test_round_trips_through_json(self):
        import json

        metrics = run(n=3)
        payload = json.loads(json.dumps(metrics.as_dict()))
        assert payload["divergent_branches"] == 1
        assert payload["branch_profile"]["entry"] == [1, 1]
        assert 0.0 <= payload["alu_utilization"] <= 1.0
