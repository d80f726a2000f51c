"""Pass-timing events: the single implementation both the pass manager
and the evaluation harness serialize through.

``PassPipeline.trace_events()`` and
``repro.evaluation.trace`` used to hand-roll the
same JSON event shape independently; both are now thin aliases of
:func:`pass_timing_events`.  The shape is duck-typed — anything with the
:class:`~repro.transforms.pass_manager.PassTiming` attributes serializes
— so this module imports nothing from :mod:`repro.transforms` and stays
a leaf.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .tracer import COMPILE_PID, NULL_TRACER


def pass_timing_event(timing) -> Dict[str, object]:
    """One pass execution as a JSON-serializable event dict.

    This is the line format of the JSONL pass trace: ``pass`` /
    ``seconds`` / ``changed``, plus the IR block/instruction sizes when
    the pipeline collected them.
    """
    event: Dict[str, object] = {
        "pass": timing.name,
        "seconds": timing.seconds,
        "changed": timing.changed,
    }
    if timing.blocks_before is not None:
        event.update(
            blocks_before=timing.blocks_before,
            blocks_after=timing.blocks_after,
            instructions_before=timing.instructions_before,
            instructions_after=timing.instructions_after,
        )
    if getattr(timing, "cached", False):
        # Replayed from a compile cache: ``seconds`` is the original
        # run's cost, not a live measurement of this process.
        event["cached"] = True
    return event


def pass_timing_events(timings: Iterable) -> List[Dict[str, object]]:
    """Serialize pass timings as JSON-ready event dicts."""
    return [pass_timing_event(t) for t in timings]


def emit_pass_timing(timing, tracer=None, tid: int = 0,
                     ts: Optional[float] = None) -> None:
    """Record one finished pass execution as a compile-side span.

    The span's args carry the JSONL event (IR-size deltas included), so
    a Perfetto click on a pass bar shows exactly what the structured
    trace records.  A no-op under the :class:`~repro.obs.NullTracer`.
    """
    if tracer is None:
        tracer = NULL_TRACER
    if not tracer.enabled:
        return
    tracer.complete(f"pass:{timing.name}", dur=timing.seconds * 1e6,
                    cat="compile", pid=COMPILE_PID, tid=tid, ts=ts,
                    args=pass_timing_event(timing))
