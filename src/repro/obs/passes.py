"""Pass-timing events: the one JSON shape of a pass execution, shared by
the pass manager's trace spans, the sweep trace and the compile cache's
stored timings.  Duck-typed over the
:class:`~repro.transforms.pass_manager.PassTiming` attributes, so this
module imports nothing from :mod:`repro.transforms` and stays a leaf.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from .tracer import COMPILE_PID


def pass_timing_event(timing) -> Dict[str, object]:
    """One pass execution as a JSON-serializable event dict.

    ``pass`` / ``seconds`` / ``changed`` and the IR's block and
    instruction counts before and after the pass.
    """
    event: Dict[str, object] = {
        "pass": timing.name,
        "seconds": timing.seconds,
        "changed": timing.changed,
        "blocks_before": timing.blocks_before,
        "blocks_after": timing.blocks_after,
        "instructions_before": timing.instructions_before,
        "instructions_after": timing.instructions_after,
    }
    if getattr(timing, "cached", False):
        # Replayed from a compile cache: ``seconds`` is the original
        # run's cost, not a live measurement of this process.
        event["cached"] = True
    return event


def pass_timing_events(timings: Iterable) -> List[Dict[str, object]]:
    """Serialize pass timings as JSON-ready event dicts."""
    return [pass_timing_event(t) for t in timings]


def emit_pass_timing(timing, tracer) -> None:
    """Record one finished pass execution as a compile-side span whose
    args are its event, so a Perfetto click on a pass bar shows exactly
    what the structured trace records.  A no-op under the
    :class:`~repro.obs.NullTracer`."""
    if tracer.enabled:
        tracer.complete(f"pass:{timing.name}", dur=timing.seconds * 1e6,
                        cat="compile", pid=COMPILE_PID,
                        args=pass_timing_event(timing))
