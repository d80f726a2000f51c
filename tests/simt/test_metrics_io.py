"""Round-trip tests for Metrics serialization (used by the sweep trace)."""

import json

from repro.evaluation import execute
from repro.ir.types import AddressSpace
from repro.kernels import build_sb1
from repro.simt import Metrics


def test_round_trip_synthetic_counters():
    metrics = Metrics(warp_size=16)
    metrics.record_alu(active_lanes=12, latency=4)
    metrics.record_memory(space=AddressSpace.SHARED, latency=20, transactions=2)
    metrics.record_memory(space=AddressSpace.GLOBAL, latency=100, transactions=4)
    metrics.record_branch(latency=2, divergent=True)
    metrics.record_barrier(latency=8)

    data = json.loads(json.dumps(metrics.as_dict()))  # through real JSON
    restored = Metrics.from_dict(data)

    assert restored == metrics
    assert restored.alu_utilization == metrics.alu_utilization
    assert restored.shared_memory_issues == 1
    assert restored.divergent_branches == 1


def test_round_trip_real_run():
    run = execute(build_sb1(block_size=16, grid_dim=1), seed=3)
    restored = Metrics.from_dict(run.metrics.as_dict())
    assert restored == run.metrics
    assert restored.as_dict() == run.metrics.as_dict()


def test_from_dict_tolerates_missing_optional_fields():
    restored = Metrics.from_dict({"cycles": 10})
    assert restored.cycles == 10
    assert restored.warp_size == 32
    assert restored.memory_issues == {}
    assert restored.alu_utilization == 0.0
