"""Warp-level runtime tracing: divergence, reconvergence, occupancy.

The warp driver is the hot path, so tracing is strictly opt-in: a
:class:`WarpTrace` sink is handed to each :class:`~repro.simt.warp.Warp`
only when a launch runs under an enabled tracer; with tracing disabled
the warp holds ``trace=None`` and the instrumentation is a single
``is not None`` check (no calls, no allocations).

A sink records compact tuples during execution — timestamps are the
warp's own cumulative issue-cycle count, so the timeline is the
simulator's cycle model, not wall clock — and is flushed into the
tracer once the block finishes:

* ``exec``        — block entry, with the active-lane count (occupancy);
* ``branch``      — a uniform conditional/unconditional branch;
* ``diverge``     — a mask split, with taken / not-taken lane counts;
* ``reconverge``  — paths merging lanes back: a path popping into its
  holder at its ``rpc`` (``ipdom``) or colliding paths fused (``min-pc``).

One Perfetto process per launch, one thread per warp
(``block<B>/warp<W>``), plus an ``active_lanes`` counter track per warp.
The :mod:`repro.obs.report` heatmap aggregates exactly these events.
"""

from __future__ import annotations

from typing import List, Tuple

#: event-kind tags used in the compact per-warp tuples
EXEC, BRANCH, DIVERGE, RECONVERGE = "exec", "branch", "diverge", "reconverge"


class WarpTrace:
    """Per-warp event sink (compact tuples; flushed post-run)."""

    __slots__ = ("block_id", "warp_index", "events")

    def __init__(self, block_id: int, warp_index: int) -> None:
        self.block_id = block_id
        self.warp_index = warp_index
        #: (kind, cycle, block_name, a, b) — a/b are kind-specific counts
        self.events: List[Tuple[str, int, str, int, int]] = []

    # The recorders run inside the warp interpreter loop: keep them to a
    # single tuple append each.

    def exec_block(self, cycle: int, block: str, active: int) -> None:
        self.events.append((EXEC, cycle, block, active, 0))

    def branch(self, cycle: int, block: str, active: int) -> None:
        self.events.append((BRANCH, cycle, block, active, 0))

    def diverge(self, cycle: int, block: str, taken: int,
                not_taken: int) -> None:
        self.events.append((DIVERGE, cycle, block, taken, not_taken))

    def reconverge(self, cycle: int, block: str, active: int) -> None:
        self.events.append((RECONVERGE, cycle, block, active, 0))


def flush_warp_trace(tracer, pid: int, tid: int, trace: WarpTrace) -> None:
    """Convert one warp's compact events into trace events.

    ``exec`` entries become instants *and* ``active_lanes`` counter
    samples; branch/diverge/reconverge become instants whose args the
    report CLI aggregates into the divergence heatmap.
    """
    tracer.thread_name(pid, tid,
                       f"block{trace.block_id}/warp{trace.warp_index}")
    for kind, cycle, block, a, b in trace.events:
        if kind == EXEC:
            tracer.instant(EXEC, cat="sim", pid=pid, tid=tid, ts=cycle,
                           args={"block": block, "active": a})
            tracer.counter("active_lanes", {"active": a},
                           pid=pid, tid=tid, ts=cycle)
        elif kind == BRANCH:
            tracer.instant(BRANCH, cat="sim", pid=pid, tid=tid, ts=cycle,
                           args={"block": block, "divergent": False,
                                 "active": a})
        elif kind == DIVERGE:
            tracer.instant(DIVERGE, cat="sim", pid=pid, tid=tid, ts=cycle,
                           args={"block": block, "divergent": True,
                                 "taken": a, "not_taken": b})
        else:
            tracer.instant(RECONVERGE, cat="sim", pid=pid, tid=tid,
                           ts=cycle, args={"block": block, "active": a})
