"""Wire-level tests for the ``repro.serve`` NDJSON protocol."""

import json

import pytest

from repro.serve import ERROR_CODES, PROTOCOL, ProtocolError
from repro.serve.protocol import (
    EVENTS,
    OPS,
    check_op,
    decode,
    encode,
    rejection,
)


class TestEncode:
    def test_deterministic_wire_bytes(self):
        a = encode({"b": 1, "a": {"z": 2, "y": 3}})
        b = encode({"a": {"y": 3, "z": 2}, "b": 1})
        assert a == b
        assert a.endswith(b"\n")
        assert b" " not in a, "compact separators"

    def test_round_trip(self):
        message = {"op": "submit", "id": "j1",
                   "job": {"kind": "sweep", "params": {"kernels": ["SB1"]}}}
        assert decode(encode(message)) == message

    def test_one_line_per_message(self):
        assert encode({"x": 1}).count(b"\n") == 1


class TestDecode:
    def test_rejects_bad_json(self):
        with pytest.raises(ProtocolError) as info:
            decode(b"{nope\n")
        assert info.value.code == "bad-request"

    def test_rejects_deep_nesting(self):
        with pytest.raises(ProtocolError) as info:
            decode(b"[" * 5000 + b"\n")
        assert info.value.code == "bad-request"

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode(b"[1, 2]\n")

    def test_rejects_bad_encoding(self):
        with pytest.raises(ProtocolError):
            decode(b"\xff\xfe\n")


class TestCheckOp:
    def test_known_ops(self):
        for op in OPS:
            assert check_op({"op": op}) == op

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as info:
            check_op({"op": "fandango"})
        assert info.value.code == "bad-request"

    def test_missing_op(self):
        with pytest.raises(ProtocolError):
            check_op({"id": "j1"})


class TestShapes:
    def test_protocol_version_string(self):
        assert PROTOCOL == "repro.serve/2"

    def test_error_codes_closed_set(self):
        assert "quota-exceeded" in ERROR_CODES
        assert "queue-full" in ERROR_CODES
        assert "shutting-down" in ERROR_CODES
        assert len(set(ERROR_CODES)) == len(ERROR_CODES)

    def test_rejection_shape(self):
        event = rejection("j9", "queue-full", "no room")
        assert event["event"] == "rejected"
        assert event["id"] == "j9"
        assert event["code"] == "queue-full"
        assert event["code"] in ERROR_CODES
        json.dumps(event)  # JSON-able

    def test_rejection_code_must_be_typed(self):
        with pytest.raises(AssertionError):
            rejection("j1", "not-a-code", "boom")

    def test_events_cover_lifecycle(self):
        for name in ("hello", "accepted", "task", "done", "rejected",
                     "error", "pong", "metrics", "bye"):
            assert name in EVENTS
