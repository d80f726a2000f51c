"""Blocking client for the ``repro.serve`` NDJSON protocol.

:class:`ServeClient` wraps one TCP connection: ``submit()`` enqueues a
job and returns immediately; ``wait()`` reads events — interleaved
across however many jobs this connection has in flight — until the
requested job settles.  Rejections surface as :class:`JobRejected` with
the server's typed code, so callers can distinguish quota pressure from
protocol mistakes.

The CLI (``python -m repro.serve submit``) and the test-suite both drive
the server through this class; it has no asyncio dependency on purpose —
any thread (or a shell pipeline via the CLI) can talk to the server.
"""

from __future__ import annotations

import socket
from typing import Any, Callable, Dict, List, Optional

from .protocol import decode, encode


class ServeError(RuntimeError):
    """Connection-level failure (server vanished, protocol breach)."""


class JobRejected(ServeError):
    """The server refused a job with a typed code (see ERROR_CODES)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code


class ServeClient:
    """One connection to a :class:`~repro.serve.JobServer`."""

    def __init__(self, host: str, port: int,
                 timeout: Optional[float] = None) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")
        self._next_id = 0
        #: job id -> terminal done/rejected event
        self._settled: Dict[str, Dict[str, Any]] = {}
        #: job id -> streamed task events (in arrival order)
        self.task_events: Dict[str, List[Dict[str, Any]]] = {}
        self.hello = self._read()
        if self.hello.get("event") != "hello":
            raise ServeError(f"expected hello, got {self.hello}")

    # ---- wire -------------------------------------------------------------

    def _read(self) -> Dict[str, Any]:
        line = self._file.readline()
        if not line:
            raise ServeError("server closed the connection")
        return decode(line)

    def _write(self, message: Dict[str, Any]) -> None:
        self._sock.sendall(encode(message))

    def _pump(self) -> Dict[str, Any]:
        """Read one event, filing job-scoped ones; returns the event."""
        event = self._read()
        kind = event.get("event")
        job_id = event.get("id")
        if kind == "task":
            self.task_events.setdefault(job_id, []).append(event)
        elif kind in ("done", "rejected"):
            self._settled[job_id] = event
        return event

    # ---- job API ----------------------------------------------------------

    def submit(self, kind: str, params: Optional[Dict[str, Any]] = None,
               job_id: Optional[str] = None, metrics: bool = False,
               stream: bool = False) -> str:
        """Enqueue a job; returns its client-side id (pass to wait)."""
        if job_id is None:
            self._next_id += 1
            job_id = f"j{self._next_id}"
        self._write({"op": "submit", "id": job_id,
                     "job": {"kind": kind, "params": params or {}},
                     "metrics": metrics, "stream": stream})
        return job_id

    def wait(self, job_id: str,
             on_task: Optional[Callable[[Dict[str, Any]], None]] = None
             ) -> Dict[str, Any]:
        """Block until ``job_id`` settles; returns its ``done`` event.

        ``on_task`` fires for each of this job's streamed ``task``
        events (including any that arrived while waiting on other
        jobs).  Raises :class:`JobRejected` on a typed rejection.
        """
        delivered = 0
        while job_id not in self._settled:
            self._pump()
            if on_task is not None:
                events = self.task_events.get(job_id, ())
                for event in events[delivered:]:
                    on_task(event)
                delivered = len(events)
        if on_task is not None:
            for event in self.task_events.get(job_id, ())[delivered:]:
                on_task(event)
        event = self._settled.pop(job_id)
        if event["event"] == "rejected":
            raise JobRejected(event.get("code", "internal"),
                              event.get("error", ""))
        return event

    def run_job(self, kind: str, params: Optional[Dict[str, Any]] = None,
                metrics: bool = False, stream: bool = False,
                on_task: Optional[Callable[[Dict[str, Any]], None]] = None
                ) -> Dict[str, Any]:
        """submit + wait in one call."""
        return self.wait(self.submit(kind, params, metrics=metrics,
                                     stream=stream), on_task=on_task)

    # ---- control ops ------------------------------------------------------

    def ping(self) -> bool:
        self._write({"op": "ping"})
        while True:
            if self._pump().get("event") == "pong":
                return True

    def metrics(self) -> Dict[str, Any]:
        """Server-wide metrics: ``{"event": "metrics", "snapshot": ...}``;
        :func:`repro.obs.render_prometheus` renders the snapshot."""
        self._write({"op": "metrics"})
        while True:
            event = self._pump()
            if event.get("event") == "metrics":
                return event

    def shutdown(self, mode: str = "graceful") -> None:
        self._write({"op": "shutdown", "mode": mode})
        while True:
            if self._pump().get("event") == "bye":
                return

    def close(self) -> None:
        try:
            self._file.close()
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
