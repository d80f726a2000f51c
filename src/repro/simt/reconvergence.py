"""Pluggable warp reconvergence policies.

The simulator's original (and default) divergence mechanism is the
classic **IPDOM stack** (§II-A of the paper): at a divergent branch the
current stack entry is rewritten to the immediate post-dominator and the
two sides are pushed; an entry whose ``pc`` reaches its ``rpc`` pops,
implicitly merging its lanes.  Hardware and simulators also ship
**stack-less** schemes — "Control Flow Management in Modern GPUs"
(arXiv 2407.02944) surveys the design space — and the ``rust_riscv``
``simtx`` executor models one directly: a warp is a list of
``(fetch_pc, execution_mask)`` *paths*; before each fetch the scheduler
picks the path with the minimum PC and opportunistically *fuses* any
paths whose PCs collide.

Both mechanisms live here, once, behind the
:class:`ReconvergencePolicy` strategy interface, and have one caller:
the warp driver (:class:`repro.simt.warp.Warp`), whichever block
evaluator it runs — so for a given policy the two executors remain
bit-identical in memory, metrics and trace stream.

A policy never touches registers or memory: φ transfers happen on edge
*execution* (at the branch), so a path's lanes always carry correct
register state and fusing two paths is a pure mask union.  Program
counters are **block indices** in ``function.blocks`` order — the same
order :mod:`repro.simt.lowering` assigns, so the reference evaluator
(which walks IR blocks) and the fast path (which walks lowered blocks)
agree on what "minimum PC" means.

Scheduler protocol (one scheduler instance per warp ``run()``):

``next()``
    Returns ``(pc, mask, merges)`` for the path to execute next, where
    ``merges`` is ``None`` or a list of ``(pc, active_after)``
    reconvergence notifications the executor must trace *before*
    executing the block.  ``pc is None`` once every lane has retired.
``advance(pc)``
    The current path took a uniform control transfer to ``pc``.
``retire()``
    The current path executed ``ret``.
``diverge(true_pc, false_pc, taken, not_taken, rpc)``
    The current path split at a divergent conditional branch.  ``rpc``
    is the immediate post-dominator's block index (``-1`` when the
    sides never rejoin); stack-less policies are free to ignore it.

Device memory is bit-identical across policies for race-free kernels
(each lane executes its own program-order instruction sequence no
matter how paths interleave); cycle counts, divergence counters and
trace streams are *per-policy observables* with their own goldens
(``tests/simt/test_policy_goldens.py``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

__all__ = [
    "RECONVERGENCE_POLICIES",
    "ReconvergencePolicy",
    "IPDOMPolicy",
    "MinPCPolicy",
    "get_policy",
]


class _IPDOMScheduler:
    """The classic reconvergence stack, entries ``[pc, rpc, mask]``.

    ``rpc == -1`` marks "no reconvergence point" (an entry that runs to
    ``ret``); the true side is pushed last so it executes first, exactly
    as the pre-policy executors did.
    """

    __slots__ = ("_stack",)

    def __init__(self, entry_pc: int, mask: Tuple[int, ...]) -> None:
        self._stack: List[list] = [[entry_pc, -1, mask]]

    def next(self):
        stack = self._stack
        merges = None
        while stack:
            entry = stack[-1]
            pc = entry[0]
            if entry[1] >= 0 and pc == entry[1]:
                # pc reached its reconvergence point: pop, lanes merge
                # into the entry below (the reconvergence holder).
                stack.pop()
                if merges is None:
                    merges = []
                merges.append((pc, len(stack[-1][2]) if stack else 0))
                continue
            return pc, entry[2], merges
        return None, (), merges

    def advance(self, pc: int) -> None:
        self._stack[-1][0] = pc

    def retire(self) -> None:
        self._stack.pop()

    def diverge(self, true_pc: int, false_pc: int,
                taken: Tuple[int, ...], not_taken: Tuple[int, ...],
                rpc: int) -> None:
        stack = self._stack
        if rpc < 0:
            # No common post-dominator (multiple rets): both sides run
            # to completion independently and never merge.
            stack.pop()
            stack.append([false_pc, -1, not_taken])
            stack.append([true_pc, -1, taken])
        else:
            stack[-1][0] = rpc  # current entry becomes the holder
            stack.append([false_pc, rpc, not_taken])
            stack.append([true_pc, rpc, taken])


class _MinPCScheduler:
    """Stack-less path list, simtx-style: ``[pc, mask]`` paths.

    ``next()`` first fuses every group of paths sharing a PC (one
    reconvergence notification per fused group, masks merged in lane
    order), then steps the path with the minimum PC.  A divergent branch
    simply replaces the current path with its two sides — no
    post-dominator bookkeeping, so ``rpc`` is ignored.
    """

    __slots__ = ("_paths", "_current")

    def __init__(self, entry_pc: int, mask: Tuple[int, ...]) -> None:
        self._paths: List[list] = [[entry_pc, mask]]
        self._current = 0

    def next(self):
        paths = self._paths
        if not paths:
            return None, (), None
        merges = None
        if len(paths) > 1:
            by_pc = {}
            fused = None
            for path in paths:
                kept = by_pc.get(path[0])
                if kept is None:
                    by_pc[path[0]] = path
                else:
                    kept[1] = kept[1] + path[1]
                    if fused is None:
                        fused = set()
                    fused.add(path[0])
            if fused is not None:
                for pc in fused:
                    by_pc[pc][1] = tuple(sorted(by_pc[pc][1]))
                self._paths = paths = [by_pc[pc] for pc in sorted(by_pc)]
                merges = [(pc, len(by_pc[pc][1])) for pc in sorted(fused)]
        current = 0
        lowest = paths[0][0]
        for index in range(1, len(paths)):
            if paths[index][0] < lowest:
                lowest = paths[index][0]
                current = index
        self._current = current
        path = paths[current]
        return path[0], path[1], merges

    def advance(self, pc: int) -> None:
        self._paths[self._current][0] = pc

    def retire(self) -> None:
        self._paths.pop(self._current)

    def diverge(self, true_pc: int, false_pc: int,
                taken: Tuple[int, ...], not_taken: Tuple[int, ...],
                rpc: int) -> None:
        current = self._current
        self._paths[current] = [true_pc, taken]
        self._paths.insert(current + 1, [false_pc, not_taken])


class ReconvergencePolicy:
    """Strategy interface: how a warp schedules divergent control flow.

    A policy is a stateless singleton whose :meth:`scheduler` mints one
    per-warp scheduler (see the protocol in the module docstring).
    Select one via :attr:`repro.simt.MachineConfig.reconvergence`;
    registered names are in :data:`RECONVERGENCE_POLICIES`.
    """

    #: registry name, the value ``MachineConfig.reconvergence`` takes
    name: str = "?"

    def scheduler(self, entry_pc: int, mask: Tuple[int, ...]):
        """A fresh per-warp scheduler starting at ``entry_pc``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<ReconvergencePolicy {self.name!r}>"


class IPDOMPolicy(ReconvergencePolicy):
    """Stack-based reconvergence at the immediate post-dominator."""

    name = "ipdom"

    def scheduler(self, entry_pc: int, mask: Tuple[int, ...]):
        return _IPDOMScheduler(entry_pc, mask)


class MinPCPolicy(ReconvergencePolicy):
    """Stack-less min-PC path-list scheduling with path fusion."""

    name = "min-pc"

    def scheduler(self, entry_pc: int, mask: Tuple[int, ...]):
        return _MinPCScheduler(entry_pc, mask)


#: recognized ``MachineConfig.reconvergence`` values, in registry order
RECONVERGENCE_POLICIES = ("ipdom", "min-pc")

_POLICIES = {policy.name: policy
             for policy in (IPDOMPolicy(), MinPCPolicy())}


def get_policy(name: str) -> ReconvergencePolicy:
    """The registered policy singleton for ``name``."""
    policy = _POLICIES.get(name)
    if policy is None:
        raise ValueError(
            f"unknown reconvergence policy {name!r}; "
            f"expected one of {RECONVERGENCE_POLICIES}")
    return policy
