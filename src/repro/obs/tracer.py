"""Span-based tracing: the one event model every layer shares.

A :class:`Tracer` records *spans* (nested, duration-carrying), *instant*
events and *counters* as plain dicts in the Chrome trace-event format
(``name``/``ph``/``ts``/``pid``/``tid`` plus ``dur``/``args``), so one
:meth:`Tracer.write` call produces a JSON file that loads directly in
Perfetto / ``chrome://tracing``.  Compile-side events use wall-clock
microseconds; the SIMT runtime reports simulated *cycles* as timestamps
(see :mod:`repro.obs.runtime`) — both are plain numbers on the same
timeline, which Perfetto renders happily.

The disabled state is :data:`NULL_TRACER`, a :class:`NullTracer` whose
every operation is a no-op returning shared singletons.  Instrumented
hot paths either check ``tracer.enabled`` (one attribute load) or call
straight through the no-ops; neither allocates, which is what keeps the
default-off overhead unmeasurable (``tests/obs/test_overhead.py`` holds
this to <2% of the smoke sweep).

Process ids partition the timeline: :data:`COMPILE_PID` hosts pass spans
and melding decisions, and each traced kernel launch claims its own pid
starting at :data:`SIM_PID_BASE` (one Perfetto process per launch, one
thread per warp).
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

#: pid hosting compile-side spans (passes, melding decisions)
COMPILE_PID = 1
#: first pid used for simulated kernel launches (one pid per launch)
SIM_PID_BASE = 10


class _NullSpan:
    """Shared do-nothing context manager returned by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every method is a no-op on shared objects.

    There is exactly one instance (:data:`NULL_TRACER`); instrumentation
    that runs against it performs no allocation and records nothing.
    """

    __slots__ = ()

    enabled = False
    #: immutable empty event list (shared; never grows)
    events: tuple = ()

    def span(self, name: str, cat: str = "span", pid: int = COMPILE_PID,
             tid: int = 0, args: Optional[Dict[str, object]] = None) -> _NullSpan:
        return _NULL_SPAN

    def complete(self, name: str, dur: float, cat: str = "span",
                 pid: int = COMPILE_PID, tid: int = 0,
                 ts: Optional[float] = None,
                 args: Optional[Dict[str, object]] = None) -> None:
        pass

    def instant(self, name: str, cat: str = "event", pid: int = COMPILE_PID,
                tid: int = 0, ts: Optional[float] = None,
                args: Optional[Dict[str, object]] = None) -> None:
        pass

    def counter(self, name: str, values: Dict[str, float],
                pid: int = COMPILE_PID, tid: int = 0,
                ts: Optional[float] = None) -> None:
        pass

    def process_name(self, pid: int, name: str) -> None:
        pass

    def thread_name(self, pid: int, tid: int, name: str) -> None:
        pass

    def next_launch_pid(self) -> int:
        return SIM_PID_BASE


NULL_TRACER = NullTracer()


class Span:
    """One live span: measures wall time between ``__enter__`` and
    ``__exit__`` and emits a complete (``ph: "X"``) event on exit."""

    __slots__ = ("_tracer", "name", "cat", "pid", "tid", "args", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str, pid: int,
                 tid: int, args: Optional[Dict[str, object]]) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.pid = pid
        self.tid = tid
        self.args = dict(args) if args else {}
        self._start = 0.0

    def set(self, **args) -> None:
        """Attach (or overwrite) argument values while the span is open."""
        self.args.update(args)

    def __enter__(self) -> "Span":
        self._start = self._tracer.now()
        return self

    def __exit__(self, *exc) -> bool:
        end = self._tracer.now()
        self._tracer.complete(self.name, end - self._start, cat=self.cat,
                              pid=self.pid, tid=self.tid, ts=self._start,
                              args=self.args or None)
        return False


class Tracer:
    """An enabled tracer accumulating Chrome trace events in memory.

    ``clock`` (microseconds, monotonic) is injectable so tests can pin
    timestamps; the default is ``time.perf_counter`` rebased to the
    tracer's construction instant.
    """

    enabled = True

    def __init__(self, clock=None) -> None:
        if clock is None:
            t0 = time.perf_counter()
            clock = lambda: (time.perf_counter() - t0) * 1e6  # noqa: E731
        self._clock = clock
        self.events: List[Dict[str, object]] = []
        self._launch_pids = 0

    # ---- time ------------------------------------------------------------

    def now(self) -> float:
        """Current trace timestamp in microseconds."""
        return self._clock()

    # ---- emission --------------------------------------------------------

    def _emit(self, event: Dict[str, object]) -> None:
        self.events.append(event)

    def span(self, name: str, cat: str = "span", pid: int = COMPILE_PID,
             tid: int = 0, args: Optional[Dict[str, object]] = None) -> Span:
        """A context manager measuring one nested span."""
        return Span(self, name, cat, pid, tid, args)

    def complete(self, name: str, dur: float, cat: str = "span",
                 pid: int = COMPILE_PID, tid: int = 0,
                 ts: Optional[float] = None,
                 args: Optional[Dict[str, object]] = None) -> None:
        """A pre-measured span (``ph: "X"``); ``dur`` in microseconds."""
        event: Dict[str, object] = {
            "name": name, "ph": "X", "cat": cat,
            "ts": self.now() - dur if ts is None else ts,
            "dur": dur, "pid": pid, "tid": tid,
        }
        if args:
            event["args"] = args
        self._emit(event)

    def instant(self, name: str, cat: str = "event", pid: int = COMPILE_PID,
                tid: int = 0, ts: Optional[float] = None,
                args: Optional[Dict[str, object]] = None) -> None:
        """A zero-duration event (``ph: "i"``, thread scope)."""
        event: Dict[str, object] = {
            "name": name, "ph": "i", "s": "t", "cat": cat,
            "ts": self.now() if ts is None else ts,
            "pid": pid, "tid": tid,
        }
        if args:
            event["args"] = args
        self._emit(event)

    def counter(self, name: str, values: Dict[str, float],
                pid: int = COMPILE_PID, tid: int = 0,
                ts: Optional[float] = None) -> None:
        """A counter sample (``ph: "C"``) — one track per key."""
        self._emit({
            "name": name, "ph": "C", "cat": "counter",
            "ts": self.now() if ts is None else ts,
            "pid": pid, "tid": tid, "args": dict(values),
        })

    # ---- metadata --------------------------------------------------------

    def process_name(self, pid: int, name: str) -> None:
        self._emit({"name": "process_name", "ph": "M", "ts": 0,
                    "pid": pid, "tid": 0, "args": {"name": name}})

    def thread_name(self, pid: int, tid: int, name: str) -> None:
        self._emit({"name": "thread_name", "ph": "M", "ts": 0,
                    "pid": pid, "tid": tid, "args": {"name": name}})

    def next_launch_pid(self) -> int:
        """Claim a fresh pid for one kernel launch (deterministic: the
        N-th traced launch of a tracer always gets ``SIM_PID_BASE + N``)."""
        pid = SIM_PID_BASE + self._launch_pids
        self._launch_pids += 1
        return pid

    # ---- export ----------------------------------------------------------

    def payload(self, extra: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """Chrome trace JSON object: ``{"traceEvents": [...], ...extra}``.

        Perfetto and ``chrome://tracing`` read ``traceEvents`` and ignore
        unknown top-level keys, so callers may stash their own metadata
        alongside (the evaluation sweep trace does exactly this).
        """
        payload: Dict[str, object] = {"traceEvents": list(self.events),
                                      "displayTimeUnit": "ms"}
        if extra:
            payload.update(extra)
        return payload

    def write(self, path: str,
              extra: Optional[Dict[str, object]] = None) -> None:
        """Write the trace as Chrome trace-event JSON."""
        with open(path, "w") as handle:
            json.dump(self.payload(extra), handle, indent=2)
            handle.write("\n")
