"""Corpus schema /2: per-arm traces embedded in entries; no other schema
loads."""

import json

import pytest

from repro.difftest import (
    arm_trace,
    generate_spec,
    inject,
    load_entry,
    run_oracle,
    write_entry,
)
from repro.difftest.corpus import ENTRY_SCHEMA


def first_failing(kind="mismatch", seeds=range(30)):
    for seed in seeds:
        verdict = run_oracle(generate_spec(seed))
        if any(f.kind == kind for f in verdict.failures):
            return generate_spec(seed), verdict
    return None, None


class TestArmTrace:
    def test_cfm_arm_trace_carries_spans_and_decisions(self):
        spec = generate_spec(0)
        record = arm_trace(spec, "o3-cfm")
        assert record["arm"] == "o3-cfm"
        assert any(e["name"].startswith("pass:") for e in record["events"])
        # Every melding decision is JSON-shaped (corpus entries are JSON).
        json.dumps(record["melding_decisions"])
        for decision in record["melding_decisions"]:
            assert decision["action"] in ("no-path-subgraphs",
                                          "no-meldable-pair",
                                          "rejected-unprofitable", "melded")

    def test_non_melding_arm_has_spans_but_no_decisions(self):
        record = arm_trace(generate_spec(0), "o3")
        assert record["events"]
        assert record["melding_decisions"] == []


class TestSchemaV2RoundTrip:
    def test_write_entry_embeds_traces(self, tmp_path):
        with inject("swap-select"):
            spec, verdict = first_failing()
            assert spec is not None, "swap-select never caught"
            failing_arms = sorted({f.arm for f in verdict.failures})
            traces = [arm_trace(spec, arm) for arm in failing_arms]
            path = write_entry(tmp_path, spec, verdict,
                               injected_bug="swap-select", traces=traces)
        data = json.loads(path.read_text())
        assert data["schema"] == ENTRY_SCHEMA
        assert len(data["traces"]) == len(failing_arms)
        entry = load_entry(path)
        assert [t["arm"] for t in entry.traces] == failing_arms
        assert all(t["events"] for t in entry.traces)

    def test_write_entry_without_traces_stays_v2_with_empty_list(
            self, tmp_path):
        with inject("swap-select"):
            spec, verdict = first_failing()
            assert spec is not None
            path = write_entry(tmp_path, spec, verdict)
        entry = load_entry(path)
        assert entry.traces == []


class TestSchema:
    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "repro.difftest.corpus/99"}')
        with pytest.raises(ValueError, match="not a corpus entry"):
            load_entry(path)
