"""The ``repro.serve`` job server.

:class:`JobServer` is a long-running asyncio TCP server speaking the
NDJSON protocol of :mod:`repro.serve.protocol`.  Jobs
(:mod:`repro.serve.jobs`) expand into tasks on one shared
:class:`repro.scheduler.Scheduler` worker pool; results stream back to
each client as its tasks settle, in completion order, with the
position-ordered row list on the final ``done`` event.

Admission control sits between the socket and the pool:

* a **bounded queue** — at most ``queue_limit`` admitted-but-unfinished
  tasks server-wide; an over-limit submission is rejected with the typed
  ``queue-full`` code (``when_full="reject"``) or parks until capacity
  frees (``when_full="block"``) — never a silent stall;
* a **per-client quota** — at most ``client_quota`` in-flight tasks per
  connection, rejected with ``quota-exceeded``.

Observability: the server keeps a ``repro_serve_*`` metrics registry
(jobs, rejections, connected clients) alongside the scheduler's
``repro_sched_*`` registry (the one count of settled tasks) and the
per-job deltas aggregated across jobs.  The ``metrics`` op answers
with the union as one JSON snapshot (clients render it with
:func:`repro.obs.render_prometheus`), and ``prom_file`` receives its
Prometheus text once more at shutdown, after the workers' goodbye
metrics are in.  A :class:`repro.obs.Tracer` records job/task lifecycle
instants and is written to ``trace_file`` at shutdown.

The disk compile cache is shared across all workers: ``cache_dir``
rides in every task (:func:`~repro.serve.jobs.make_job`), so every
worker — including replacements forked after a crash — opens the same
warm cache, and servers in one process keep separate caches.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs import MetricsRegistry, Tracer
from repro.scheduler import (
    DEFAULT_RETRIES,
    RecyclePolicy,
    Scheduler,
    SchedulerClosed,
)

from .jobs import JobSpec, make_job
from .protocol import (
    PROTOCOL,
    ProtocolError,
    check_op,
    decode,
    encode,
    rejection,
)

#: Chrome-trace pid lane for server lifecycle events
_SERVE_PID = 7


@dataclass
class ServerConfig:
    """Knobs of one :class:`JobServer` (see ``docs/serve.md``)."""

    host: str = "127.0.0.1"
    #: 0 picks an ephemeral port (read it back from JobServer.address)
    port: int = 0
    workers: int = 2
    #: per task attempt, seconds (None = no timeout)
    timeout: Optional[float] = None
    retries: int = DEFAULT_RETRIES
    #: recycle a worker after serving this many tasks
    recycle_tasks: Optional[int] = None
    #: recycle a worker once its RSS exceeds this many bytes
    recycle_rss_bytes: Optional[int] = None
    #: server-wide cap on admitted-but-unfinished tasks
    queue_limit: int = 256
    #: "reject" (typed queue-full rejection) or "block" (park the submit)
    when_full: str = "reject"
    #: per-connection cap on in-flight tasks (None = unlimited)
    client_quota: Optional[int] = 128
    #: disk compile cache shared by all workers (each task carries it)
    cache_dir: Optional[str] = None
    #: write the server's Chrome trace here at shutdown
    trace_file: Optional[str] = None
    #: write the final merged Prometheus snapshot here at shutdown
    prom_file: Optional[str] = None

    def __post_init__(self) -> None:
        if self.when_full not in ("reject", "block"):
            raise ValueError(
                f"when_full must be 'reject' or 'block', got {self.when_full!r}")
        if self.workers < 1:
            raise ValueError("JobServer needs at least one worker")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        for name in ("queue_limit", "timeout", "client_quota",
                     "recycle_tasks", "recycle_rss_bytes"):
            value = getattr(self, name)  # None: that knob is off
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass
class _Client:
    name: str
    writer: asyncio.StreamWriter
    lock: asyncio.Lock
    inflight: int = 0
    closed: bool = False


@dataclass
class _Job:
    id: str
    client_id: Any  # client-chosen, echoed verbatim
    client: _Client
    spec: JobSpec
    outcomes: List[Any]
    remaining: int
    started: float  # event-loop time
    stream: bool
    want_metrics: bool
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)


class JobServer:
    """One server instance; drive it with :meth:`run` (a coroutine)."""

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig()
        self.scheduler = Scheduler(
            workers=self.config.workers, timeout=self.config.timeout,
            retries=self.config.retries,
            recycle=RecyclePolicy(max_tasks=self.config.recycle_tasks,
                                  max_rss_bytes=self.config.recycle_rss_bytes))
        #: repro_serve_* self-telemetry
        self.registry = MetricsRegistry()
        #: per-job metric deltas aggregated across finished jobs
        self.job_metrics = MetricsRegistry()
        self.tracer = Tracer()
        #: (host, port) once listening
        self.address: Optional[tuple] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._admission: Optional[asyncio.Condition] = None
        self._admitted = 0
        self._accepting = True
        self._graceful = True
        self._stopping: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        self._jobs: Dict[str, _Job] = {}
        #: each open connection's handler task and its writer
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._active_jobs = 0
        self._next_client = 0
        self._next_job = 0

    # ---- lifecycle --------------------------------------------------------

    async def run(self, ready: Optional[asyncio.Event] = None) -> None:
        """Listen and serve until a ``shutdown`` op stops the server.

        ``ready`` (if given) is set once :attr:`address` is bound.
        """
        self._loop = asyncio.get_running_loop()
        self._admission = asyncio.Condition()
        self._stopping = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port)
        self.address = self._server.sockets[0].getsockname()[:2]
        self.tracer.instant("serve:listening", cat="serve", pid=_SERVE_PID,
                            args={"address": list(self.address)})
        if ready is not None:
            ready.set()
        try:
            await self._stopping.wait()
        finally:
            self._server.close()
            # Close every open connection and wait for its handler to
            # return: a handler still parked in readline() when run()
            # returns is cancelled by loop teardown, which logs it.
            handlers = list(self._connections)
            for writer in self._connections.values():
                writer.close()
            await asyncio.gather(*handlers, return_exceptions=True)
            await self._server.wait_closed()
            # Blocking close off the loop thread: graceful collects each
            # worker's goodbye metrics snapshot into scheduler.registry.
            graceful = self._graceful
            await self._loop.run_in_executor(
                None, lambda: self.scheduler.close(graceful))
            self.tracer.instant("serve:stopped", cat="serve", pid=_SERVE_PID)
            if self.config.trace_file:
                self.tracer.write(self.config.trace_file)
            if self.config.prom_file:
                self.merged_registry().write_prom(self.config.prom_file)

    def merged_registry(self) -> MetricsRegistry:
        """Server + scheduler + aggregated job metrics, one registry."""
        merged = MetricsRegistry()
        merged.merge(self.registry)
        merged.merge(self.scheduler.registry)
        merged.merge(self.job_metrics)
        return merged

    # ---- connection handling ----------------------------------------------

    async def _send(self, client: _Client, message: Dict[str, Any]) -> None:
        if client.closed:
            return
        async with client.lock:
            try:
                client.writer.write(encode(message))
                await client.writer.drain()
            except (ConnectionError, RuntimeError):
                client.closed = True

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self._next_client += 1
        client = _Client(name=f"client-{self._next_client}", writer=writer,
                         lock=asyncio.Lock())
        clients = self.registry.gauge("repro_serve_clients",
                                      "Currently connected clients").labels()
        clients.inc()
        self.registry.counter("repro_serve_clients_total",
                              "Client connections accepted").inc()
        handler = asyncio.current_task()
        self._connections[handler] = writer
        try:
            await self._send(client, {
                "event": "hello", "protocol": PROTOCOL,
                "workers": self.config.workers,
                "queue_limit": self.config.queue_limit,
                "when_full": self.config.when_full,
                "client_quota": self.config.client_quota,
            })
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Longer than the stream limit: the line's tail is
                    # unread, so framing is lost.  Answer once, then close.
                    await self._send(client, {
                        "event": "error", "code": "bad-request",
                        "error": "request line exceeds the stream limit"})
                    break
                if not line:
                    break
                try:
                    message = decode(line)
                    op = check_op(message)
                except ProtocolError as exc:
                    await self._send(client, {
                        "event": "error", "code": exc.code,
                        "error": str(exc)})
                    continue
                if op == "submit":
                    await self._op_submit(client, message)
                elif op == "ping":
                    await self._send(client, {"event": "pong"})
                elif op == "metrics":
                    await self._send(client, {
                        "event": "metrics",
                        "snapshot": self.merged_registry().snapshot()})
                elif op == "shutdown":
                    await self._op_shutdown(client, message)
        finally:
            del self._connections[handler]
            client.closed = True
            clients.dec()
            try:
                writer.close()
            except Exception:
                pass

    # ---- submit -----------------------------------------------------------

    async def _op_submit(self, client: _Client,
                         message: Dict[str, Any]) -> None:
        client_job_id = message.get("id")

        async def reject(code: str, error: str) -> None:
            self.registry.counter(
                "repro_serve_jobs_rejected_total",
                "Jobs refused admission, by typed code"
            ).labels(code=code).inc()
            await self._send(client, rejection(client_job_id, code, error))

        if not self._accepting:
            await reject("shutting-down", "server is shutting down")
            return
        job_field = message.get("job")
        if not isinstance(job_field, dict):
            await reject("bad-request", "submit needs a 'job' object")
            return
        flags = {name: message.get(name, False)
                 for name in ("stream", "metrics")}
        for name, value in flags.items():
            if not isinstance(value, bool):
                await reject("bad-request",
                             f"submit '{name}' must be true or false, "
                             f"got {value!r}")
                return
        try:
            spec = make_job(job_field.get("kind"), job_field.get("params"),
                            self.config.cache_dir)
            tasks = spec.tasks()
        except ProtocolError as exc:
            await reject(exc.code, str(exc))
            return
        count = len(tasks)
        quota = self.config.client_quota
        if quota is not None and client.inflight + count > quota:
            await reject(
                "quota-exceeded",
                f"job needs {count} tasks; client has {client.inflight} "
                f"in flight of a {quota}-task quota")
            return
        async with self._admission:
            if self._admitted + count > self.config.queue_limit:
                if self.config.when_full == "reject":
                    await reject(
                        "queue-full",
                        f"job needs {count} tasks; queue has "
                        f"{self.config.queue_limit - self._admitted} of "
                        f"{self.config.queue_limit} slots free")
                    return
                while (self._admitted + count > self.config.queue_limit
                       and self._accepting):
                    await self._admission.wait()
                if not self._accepting:
                    await reject("shutting-down", "server is shutting down")
                    return
            self._admitted += count
            self.registry.gauge(
                "repro_serve_admitted_tasks",
                "Tasks admitted but not yet settled").set(self._admitted)
        client.inflight += count

        self._next_job += 1
        job = _Job(id=f"job-{self._next_job}", client_id=client_job_id,
                   client=client, spec=spec, outcomes=[None] * count,
                   remaining=count, started=self._loop.time(),
                   stream=flags["stream"], want_metrics=flags["metrics"])
        self._jobs[job.id] = job
        self._active_jobs += 1
        self._idle.clear()
        self.registry.counter(
            "repro_serve_jobs_total", "Jobs accepted, by kind"
        ).labels(kind=spec.kind).inc()
        self.tracer.instant(f"job:{job.id}:accepted", cat="serve",
                            pid=_SERVE_PID,
                            args={"kind": spec.kind, "tasks": count})

        loop = self._loop

        def make_callback(position: int):
            def callback(outcome) -> None:  # scheduler dispatcher thread
                loop.call_soon_threadsafe(self._outcome_ready, job.id,
                                          position, outcome)
            return callback

        try:
            for position, task in enumerate(tasks):
                self.scheduler.submit(task, on_outcome=make_callback(position))
        except SchedulerClosed:
            # Settle whatever never reached the pool; submitted tasks
            # will settle through their callbacks as usual.
            for position in range(count):
                if job.outcomes[position] is None:
                    self._outcome_ready(job.id, position, None)
            await reject("shutting-down", "server is shutting down")
            return
        await self._send(client, {
            "event": "accepted", "id": client_job_id, "job_id": job.id,
            "kind": spec.kind, "tasks": count})

    # ---- outcome plumbing (event-loop thread) -----------------------------

    def _outcome_ready(self, job_id: str, position: int, outcome) -> None:
        self._loop.create_task(self._settle(job_id, position, outcome))

    async def _settle(self, job_id: str, position: int, outcome) -> None:
        job = self._jobs.get(job_id)
        if job is None or job.outcomes[position] is not None:
            return
        sentinel = outcome if outcome is not None else _CANCELLED
        job.outcomes[position] = sentinel
        job.remaining -= 1
        job.client.inflight -= 1
        async with self._admission:
            self._admitted -= 1
            self.registry.gauge(
                "repro_serve_admitted_tasks",
                "Tasks admitted but not yet settled").set(self._admitted)
            self._admission.notify_all()
        ok = outcome is not None and outcome.ok
        if job.stream:
            event: Dict[str, Any] = {
                "event": "task", "id": job.client_id, "job_id": job.id,
                "position": position, "ok": ok,
            }
            if ok:
                event["row"] = job.spec.row(outcome.value)
            else:
                event["error"] = (outcome.error if outcome is not None
                                  else "cancelled: scheduler shut down")
            if outcome is not None:
                event["attempts"] = outcome.attempts
                event["seconds"] = outcome.seconds
                event["worker"] = outcome.worker
            await self._send(job.client, event)
        if job.remaining == 0:
            await self._finish(job)

    async def _finish(self, job: _Job) -> None:
        del self._jobs[job.id]
        wall = self._loop.time() - job.started
        outcomes = [None if o is _CANCELLED else o for o in job.outcomes]
        rows: List[Optional[Dict[str, Any]]] = []
        errors: List[Dict[str, Any]] = []
        for position, outcome in enumerate(outcomes):
            if outcome is not None and outcome.ok:
                rows.append(job.spec.row(outcome.value))
            else:
                rows.append(None)
                errors.append({
                    "position": position,
                    "error": (outcome.error if outcome is not None
                              else "cancelled: scheduler shut down"),
                    "attempts": outcome.attempts if outcome is not None else 0,
                    "crashed": bool(outcome and outcome.crashed),
                    "timed_out": bool(outcome and outcome.timed_out),
                })
        job.spec.finalize(outcomes, job.registry, wall)
        self.job_metrics.merge(job.registry)
        done: Dict[str, Any] = {
            "event": "done", "id": job.client_id, "job_id": job.id,
            "kind": job.spec.kind, "ok": not errors, "rows": rows,
            "errors": errors, "tasks": len(outcomes), "seconds": wall,
            "attempts": [o.attempts if o is not None else 0
                         for o in outcomes],
        }
        if job.want_metrics:
            done["metrics"] = job.registry.snapshot()
        trace_events = getattr(job.spec, "trace_events", None)
        if trace_events is not None:
            events = trace_events(outcomes)
            if events:
                done["trace"] = events
        self.tracer.instant(f"job:{job.id}:done", cat="serve",
                            pid=_SERVE_PID,
                            args={"ok": not errors, "seconds": wall})
        await self._send(job.client, done)
        self._active_jobs -= 1
        if self._active_jobs == 0:
            self._idle.set()

    # ---- shutdown ---------------------------------------------------------

    async def _op_shutdown(self, client: _Client,
                           message: Dict[str, Any]) -> None:
        mode = message.get("mode", "graceful")
        if mode not in ("graceful", "now"):
            await self._send(client, {
                "event": "error", "code": "bad-request",
                "error": f"unknown shutdown mode {mode!r}"})
            return
        await self._send(client, {"event": "bye", "mode": mode})
        self._accepting = False
        async with self._admission:
            self._admission.notify_all()  # unpark blocked submits
        self._graceful = mode == "graceful"
        self._loop.create_task(self._shutdown(self._graceful))

    async def _shutdown(self, graceful: bool) -> None:
        if not graceful:
            # Cancels queued + in-flight tasks; their outcomes settle as
            # failures, which drains every job below.
            await self._loop.run_in_executor(
                None, lambda: self.scheduler.close(False))
        await self._idle.wait()
        self._stopping.set()


class _Cancelled:
    """Placeholder for a task settled by a non-graceful shutdown."""


_CANCELLED = _Cancelled()
