"""Warp reconvergence: one path list, two selection rules.

A warp's divergent control flow is a list of *paths* ``[pc, rpc,
mask]``: the lanes of ``mask`` fetch block ``pc`` next, and ``rpc`` is
the block where they rejoin the path they split from (``-1``: nowhere,
the path runs to ``ret``).  One :class:`PathScheduler` holds that list
for one warp ``run()``; ``MachineConfig.reconvergence`` names the rule
that picks the next path to step:

``"ipdom"``
    The classic **IPDOM stack** (§II-A of the paper): the list is
    scheduled last-in-first-out.  At a divergent branch the current path
    parks at the immediate post-dominator as the *holder* and the two
    sides are pushed, true side last so it runs first.  A path whose
    ``pc`` reaches its ``rpc`` pops, its lanes merging into the holder.
``"min-pc"``
    The stack-less scheme the ``rust_riscv`` ``simtx`` executor models
    ("Control Flow Management in Modern GPUs", arXiv 2407.02944, surveys
    the design space): paths whose PCs collide are fused, then the path
    with the minimum PC steps.  A divergent branch simply replaces the
    current path with its two sides; ``rpc`` is never set.

A stack entry is just a path whose ``rpc`` is set, so everything but the
selection rule is shared.  Fusion leaves every PC distinct before the
minimum is taken, so under min-PC the order of the list is unobservable.

The scheduler never touches registers or memory: φ transfers happen on
edge *execution* (at the branch), so a path's lanes always carry correct
register state and merging two paths is a pure mask union.  Program
counters are **block indices** in ``function.blocks`` order — the order
:mod:`repro.simt.lowering` assigns — so the reference and fast block
evaluators agree on what "minimum PC" means, and the one caller, the
warp driver (:class:`repro.simt.warp.Warp`), stays bit-identical across
them in memory, metrics and trace stream.

``next()`` returns ``(pc, mask, merges)`` for the path to step, where
``merges`` is ``None`` or a list of ``(pc, active_after)`` reconvergence
notifications to trace *before* the block runs; ``pc is None`` once every
lane has retired.  The current path then either ``advance(pc)``\\ s on a
uniform transfer, ``retire()``\\ s at ``ret``, or ``diverge(...)``\\ s.

Every ``mask`` is a strictly ascending subset of the entry mask, which
the warp driver passes as ``range(lane_count)``: sides are split in lane
order, a holder keeps its mask and a fusion sorts.  So a mask as long as
the entry mask is every lane in lane order; the fast evaluator's
whole-warp shortcuts rest on this.

Device memory is bit-identical across the rules for race-free kernels
(each lane executes its own program-order instruction sequence however
paths interleave); cycle counts, divergence counters and trace streams
are *per-rule observables* with their own goldens
(``tests/simt/test_policy_goldens.py``).
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = ["RECONVERGENCE_POLICIES", "PathScheduler"]

#: recognized ``MachineConfig.reconvergence`` values, the selection rules
RECONVERGENCE_POLICIES = ("ipdom", "min-pc")


class PathScheduler:
    """One warp's path list, stepped under the selection rule ``rule``
    (a :data:`RECONVERGENCE_POLICIES` name)."""

    __slots__ = ("_paths", "_current", "_ipdom")

    def __init__(self, rule: str, entry_pc: int,
                 mask: Tuple[int, ...]) -> None:
        self._paths: List[list] = [[entry_pc, -1, mask]]
        #: index of the path being stepped; the top under IPDOM
        self._current = -1
        self._ipdom = rule == "ipdom"

    def next(self):
        paths = self._paths
        merges = None
        if self._ipdom:
            while paths:
                path = paths[-1]
                if path[0] != path[1]:
                    return path[0], path[2], merges
                # pc reached its reconvergence point: pop, lanes merge
                # into the path below (the holder).
                paths.pop()
                if merges is None:
                    merges = []
                merges.append((path[0], len(paths[-1][2]) if paths else 0))
            return None, (), merges

        if not paths:
            return None, (), None
        if len(paths) > 1:
            # Fuse every group of paths sharing a PC: one notification
            # per fused group, masks merged in lane order.
            by_pc = {}
            fused = None
            for path in paths:
                kept = by_pc.get(path[0])
                if kept is None:
                    by_pc[path[0]] = path
                else:
                    kept[2] = kept[2] + path[2]
                    if fused is None:
                        fused = set()
                    fused.add(path[0])
            if fused is not None:
                for pc in fused:
                    by_pc[pc][2] = tuple(sorted(by_pc[pc][2]))
                self._paths = paths = [by_pc[pc] for pc in sorted(by_pc)]
                merges = [(pc, len(by_pc[pc][2])) for pc in sorted(fused)]
        current = 0
        lowest = paths[0][0]
        for index in range(1, len(paths)):
            if paths[index][0] < lowest:
                lowest = paths[index][0]
                current = index
        self._current = current
        path = paths[current]
        return path[0], path[2], merges

    def advance(self, pc: int) -> None:
        self._paths[self._current][0] = pc

    def retire(self) -> None:
        self._paths.pop(self._current)

    def diverge(self, true_pc: int, false_pc: int,
                taken: Tuple[int, ...], not_taken: Tuple[int, ...],
                rpc: int) -> None:
        """Split the current path; ``rpc`` is the immediate
        post-dominator's block index, ``-1`` when the sides never rejoin
        (multiple rets)."""
        paths = self._paths
        if self._ipdom and rpc >= 0:
            paths[self._current][0] = rpc  # the current path is the holder
        else:
            rpc = -1
            paths.pop(self._current)
        paths.append([false_pc, rpc, not_taken])
        paths.append([true_pc, rpc, taken])
