"""The warp driver: one lockstep control-flow mechanism for every executor.

This is the execution model whose inefficiency the paper attacks: a warp
executes one instruction at a time under an *active mask*; at a divergent
branch the mask splits, the two sides run serially, and the lanes
reconverge when their control paths meet again (§I, §II-A).  Because each
*issue* costs the instruction's full latency regardless of how many lanes
are active, divergent code pays twice — exactly the cost CFM's melding
removes.

:class:`Warp` owns that mechanism and nothing else: pick a path, issue
its block under the path's mask, split the mask at a divergent branch,
reconverge.  *Which* path steps next is the path scheduler's selection
rule (:mod:`repro.simt.reconvergence`); *what an instruction
computes* is the block evaluator's — the reference interpreter over IR
objects (:mod:`repro.simt.reference`) or the µop executor
(:mod:`repro.simt.fastpath`).  Scheduler PCs are block indices in
``function.blocks`` order under both.

A **block evaluator** is one warp's datapath.  The driver reads

``program``
    what the launch's warps share: ``function_name``, ``entry_index``
    and ``blocks`` — per-block records, indexed by PC, with a ``name``
    and a ``term`` (below); the driver never looks at a block's body;
``execute(block, mask, resume)``
    run the block's non-φ, non-terminator instructions for ``mask``.
    Returns ``None`` when the body is done, or — having charged a
    barrier — an opaque token to hand back as ``resume`` once the block
    scheduler releases the warp (``resume`` is ``None`` on first entry);
``condition(cond, mask)``
    a conditional terminator's per-lane values, indexable by every lane
    of ``mask``;
``transfer(edge, mask)``
    apply one CFG edge's φ moves for ``mask`` (all reads before all
    writes).  φs are evaluated *on edge transfer*, never inside a
    block, which is what makes per-lane φ resolution correct when lanes
    reach a join from different predecessors at different times.

Terminator records (``cond`` and the edges are the evaluator's own
tokens, opaque here; an empty edge has no φ moves and is skipped)::

    (TERM_RET,)
    (TERM_BR,  succ_index, edge)
    (TERM_CBR, cond, true_index, false_index, rpc_index,
               true_edge, false_edge, branch_repr)

``rpc_index`` is the immediate post-dominator's index, -1 when the two
sides never rejoin (multiple rets); the min-PC rule ignores it.
``TERM_NONE`` marks a block without a terminator: its PC never moves
and the step guard ends the run (the verifier rejects the shape anyway).
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

from repro.ir.types import AddressSpace
from repro.obs import WarpTrace

from .config import EXTRA_TRANSACTION_CYCLES, MachineConfig
from .memory import SHARED_BASE
from .metrics import Metrics
from .reconvergence import PathScheduler

TERM_RET = 0
TERM_BR = 1
TERM_CBR = 2
TERM_NONE = 3


class SimulationError(Exception):
    """Raised on traps: undef observation, division by zero, etc."""


class _UndefValue:
    """Sentinel for LLVM ``undef``; observable uses trap."""

    _instance: "_UndefValue" = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<undef>"


UNDEF = _UndefValue()


def account_memory(metrics: Metrics, config: MachineConfig, static_space: int,
                   addresses: List[int], latency: int) -> None:
    """Charge one memory issue: coalescing, transaction count, cycles.

    Shared by both block evaluators so the cycle model cannot drift
    between them.  FLAT instructions resolve dynamically; the
    cycle/transaction model uses the space the addresses actually landed
    in, but the ISSUE is counted under its static encoding (vega
    vmem/lds/flat counters).
    """
    resolved_shared = bool(addresses) and addresses[0] >= SHARED_BASE
    if static_space == AddressSpace.SHARED or (
            static_space == AddressSpace.FLAT and resolved_shared):
        transactions = 1
    else:
        transactions = max(1, config.transactions_for(addresses))
    extra = (transactions - 1) * EXTRA_TRANSACTION_CYCLES
    metrics.record_memory(static_space, latency + extra, transactions)


class Warp:
    """One warp: ``lane_count`` lanes driven through ``evaluator`` in
    lockstep.

    ``run()`` is a generator that yields ``"barrier"`` each time the warp
    reaches a block-wide barrier, letting the block scheduler synchronize
    warps; it returns when every lane has retired.  ``metrics`` is the
    sink the evaluator was bound to — the driver adds branch issues to
    the ALU, memory and barrier issues the evaluator charges.
    """

    def __init__(
        self,
        evaluator,
        lane_count: int,
        config: MachineConfig,
        metrics: Metrics,
        trace: Optional[WarpTrace] = None,
        obs: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.evaluator = evaluator
        self.lane_count = lane_count
        self.config = config
        self.metrics = metrics
        # Opt-in WarpTrace and occupancy observer (repro.obs): None when
        # off, so the hot-path cost is one `is not None` per site each.
        self._trace = trace
        self._obs = obs

    def run(self) -> Iterator[str]:
        evaluator = self.evaluator
        program = evaluator.program
        blocks = program.blocks
        execute = evaluator.execute
        condition = evaluator.condition
        transfer = evaluator.transfer
        config = self.config
        metrics = self.metrics
        record_branch = metrics.record_branch
        trace = self._trace
        obs = self._obs
        branch_latency = config.latency.branch_latency
        max_steps = config.max_warp_steps

        scheduler = PathScheduler(config.reconvergence, program.entry_index,
                                  tuple(range(self.lane_count)))
        scheduler_next = scheduler.next
        steps = 0
        while True:
            pc, mask, merges = scheduler_next()
            if merges is not None and trace is not None:
                for merge_pc, active in merges:
                    trace.reconverge(metrics.cycles, blocks[merge_pc].name,
                                     active)
            if pc is None:
                return

            block = blocks[pc]
            if trace is not None:
                trace.exec_block(metrics.cycles, block.name, len(mask))
            if obs is not None:
                obs(len(mask))

            # The barrier site.  It releases per *path*: a warp split
            # around a barrier yields once for each side that reaches it
            # (docs/simulator.md, "Known simplifications").
            resume = execute(block, mask, None)
            while resume is not None:
                yield "barrier"
                resume = execute(block, mask, resume)

            term = block.term
            kind = term[0]
            if kind == TERM_RET:
                scheduler.retire()
            elif kind != TERM_NONE:
                divergent = False
                if kind == TERM_BR:
                    target, edge = term[1], term[2]
                else:
                    values = condition(term[1], mask)
                    taken: List[int] = []
                    not_taken: List[int] = []
                    for lane in mask:
                        cond = values[lane]
                        if cond is UNDEF:
                            raise SimulationError(
                                f"branch on undef condition: {term[7]}")
                        (taken if cond else not_taken).append(lane)
                    if taken and not_taken:
                        divergent = True
                    elif taken:
                        target, edge = term[2], term[5]
                    else:
                        target, edge = term[3], term[6]
                record_branch(branch_latency, divergent)
                if divergent:
                    # The selection rule decides how the two sides are
                    # scheduled and where (or whether) they reconverge.
                    if trace is not None:
                        trace.diverge(metrics.cycles, block.name,
                                      len(taken), len(not_taken))
                    taken_t = tuple(taken)
                    not_taken_t = tuple(not_taken)
                    scheduler.diverge(term[2], term[3], taken_t, not_taken_t,
                                      term[4])
                    if term[6]:
                        transfer(term[6], not_taken_t)
                    if term[5]:
                        transfer(term[5], taken_t)
                else:
                    if trace is not None:
                        trace.branch(metrics.cycles, block.name, len(mask))
                    if edge:
                        transfer(edge, mask)
                    scheduler.advance(target)

            steps += 1
            if steps > max_steps:
                raise SimulationError(
                    f"warp exceeded {max_steps} block steps; likely "
                    f"non-termination in @{program.function_name}")
