"""Wire protocol of the ``repro.serve`` job server.

Newline-delimited JSON (NDJSON) over a TCP socket: every message —
either direction — is one JSON object on one line, UTF-8 encoded.
Nothing is framed beyond the newline, so ``telnet``/``nc`` sessions work
for debugging and the protocol survives any buffering boundary.

Client → server operations (``"op"`` key):

``submit``
    ``{"op": "submit", "id": "<client-chosen id>", "job": {"kind":
    "<job type>", "params": {...}}, "metrics": bool, "stream": bool}``
    — enqueue one job.  ``id`` is echoed on every event for this job so
    one connection can interleave jobs.  ``metrics`` asks for the job's
    merged metrics snapshot on the ``done`` event; ``stream`` asks for
    per-task ``task`` events as results land (completion order).
``ping``
    liveness probe; answered with ``pong``.
``metrics``
    server-wide metrics; answered with a ``metrics`` event carrying the
    merged JSON ``snapshot``.
``shutdown``
    ``{"op": "shutdown", "mode": "graceful"|"now"}`` — graceful drains
    in-flight jobs first; ``now`` cancels them.

Server → client events (``"event"`` key): ``hello`` (on connect),
``accepted``, ``task``, ``done``, ``rejected``, ``error``, ``pong``,
``metrics``, ``bye``.  ``rejected``/``error`` carry a machine-readable
``code`` from :data:`ERROR_CODES` — quota and backpressure rejections
are *typed*, never silent stalls.
"""

from __future__ import annotations

import json
from typing import Any, Dict

#: protocol identifier sent in the hello event; bump on breaking change
PROTOCOL = "repro.serve/2"

#: machine-readable rejection/error codes
ERROR_CODES = (
    "bad-request",     # unparsable line or malformed message
    "unknown-job",     # job kind not in the registry
    "invalid-params",  # job kind known, params rejected by its spec
    "quota-exceeded",  # client has too many tasks in flight
    "queue-full",      # admission queue at capacity (when_full="reject")
    "shutting-down",   # server no longer accepts submissions
    "internal",        # unexpected server-side failure
)

#: client operations
OPS = ("submit", "ping", "metrics", "shutdown")

#: server events
EVENTS = ("hello", "accepted", "task", "done", "rejected", "error",
          "pong", "metrics", "bye")


class ProtocolError(ValueError):
    """A line that does not decode to a valid protocol message."""

    def __init__(self, message: str, code: str = "bad-request") -> None:
        super().__init__(message)
        self.code = code


def encode(message: Dict[str, Any]) -> bytes:
    """One protocol message as an NDJSON line (UTF-8, trailing ``\\n``).

    ``sort_keys`` keeps the wire bytes deterministic for a given
    message, which the CI smoke test relies on when diffing row output
    against a serial run.
    """
    return (json.dumps(message, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one NDJSON line into a message dict (tolerates blank lines
    by raising :class:`ProtocolError`, never returning None)."""
    text = line.decode("utf-8", errors="replace").strip()
    if not text:
        raise ProtocolError("empty line")
    try:
        message = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:  # a few thousand ``[`` suffice
        raise ProtocolError("invalid JSON: nested too deeply") from exc
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def check_op(message: Dict[str, Any]) -> str:
    """Validate and return the ``op`` of a client message."""
    op = message.get("op")
    if not isinstance(op, str) or op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {OPS}")
    return op


def rejection(job_id: Any, code: str, error: str) -> Dict[str, Any]:
    """A ``rejected`` event (typed, per :data:`ERROR_CODES`)."""
    assert code in ERROR_CODES, code
    return {"event": "rejected", "id": job_id, "code": code, "error": error}
