"""Sweep-trace embedded Chrome events, pid rebasing, tracing policies
and schema rejection."""

import json

import pytest

from repro.evaluation import (
    SWEEP_TRACE_SCHEMA,
    TRACE_EVENT_POLICIES,
    SweepTask,
    SweepTraceCollector,
    load_sweep_trace,
    run_task,
)
from repro.kernels import build_sb1
from repro.obs import COMPILE_PID, SIM_PID_BASE
from tests.support import run_sweep_tasks

SEED = 99

TRACED = SweepTask(kernel="SB1", builder=build_sb1, block_size=16,
                   grid_dim=1, seed=SEED, trace=True)


def traced_result():
    return run_task(TRACED)


def traced_sweep():
    """``(tasks, outcomes)`` of a one-task traced sweep."""
    return [TRACED], run_sweep_tasks([TRACED])


class TestTracedTask:
    def test_traced_task_captures_all_three_event_layers(self):
        result = traced_result()
        assert result.trace_events
        cats = {e.get("cat") for e in result.trace_events}
        assert "compile" in cats   # pass spans
        assert "melding" in cats   # decision log
        assert "sim" in cats       # warp divergence timeline

    def test_untraced_task_carries_no_events(self):
        task = SweepTask(kernel="SB1", builder=build_sb1, block_size=16,
                         grid_dim=1, seed=SEED)
        assert run_task(task).trace_events is None


class TestCollectorMerge:
    def test_pids_are_rebased_and_names_prefixed(self):
        collector = SweepTraceCollector(workers=1)
        collector.record("sweep", *traced_sweep())
        pids = {e["pid"] for e in collector.events}
        # Rebased: no merged event keeps the per-task COMPILE_PID.
        assert COMPILE_PID not in pids
        assert all(pid >= SIM_PID_BASE for pid in pids)
        names = [e["args"]["name"] for e in collector.events
                 if e.get("ph") == "M" and e["name"] == "process_name"]
        assert names and all(n.startswith("SB1-16:") for n in names)
        # The compile pid never names itself in-task; the collector
        # synthesizes its track label.
        assert "SB1-16:compile" in names

    def test_two_tasks_get_disjoint_pids(self):
        collector = SweepTraceCollector(workers=1)
        collector.record("sweep", *traced_sweep())
        pids_after_first = {e["pid"] for e in collector.events}
        collector.record("sweep", *traced_sweep())
        second_pids = ({e["pid"] for e in collector.events}
                       - pids_after_first)
        assert second_pids, "second task must add fresh pids"
        assert not (pids_after_first & second_pids)

    def test_payload_is_perfetto_loadable_superset(self, tmp_path):
        collector = SweepTraceCollector(workers=1)
        collector.record("sweep", *traced_sweep())
        path = tmp_path / "sweep_trace.json"
        collector.write(str(path))
        data = json.loads(path.read_text())
        assert data["schema"] == SWEEP_TRACE_SCHEMA
        assert isinstance(data["traceEvents"], list) and data["traceEvents"]
        assert data["displayTimeUnit"] == "ms"
        assert data["sections"]  # still the structured sweep record


class TestPolicies:
    def test_known_policies(self):
        assert TRACE_EVENT_POLICIES == ("off", "first", "all")
        for policy in TRACE_EVENT_POLICIES:
            SweepTraceCollector(policy=policy)  # must not raise

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="trace-events policy"):
            SweepTraceCollector(policy="sometimes")


class TestLoadSweepTrace:
    def test_v2_round_trip(self, tmp_path):
        collector = SweepTraceCollector(workers=2)
        collector.record("sweep", *traced_sweep())
        path = tmp_path / "v2.json"
        collector.write(str(path))
        data = load_sweep_trace(str(path))
        assert data["schema"] == SWEEP_TRACE_SCHEMA
        assert data["traceEvents"]

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "repro.evaluation.sweep_trace/v99"}')
        with pytest.raises(ValueError, match="unknown sweep-trace schema"):
            load_sweep_trace(str(path))
