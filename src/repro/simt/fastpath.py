"""Fast-path warp executor over lowered µop programs.

Same machine semantics as :class:`repro.simt.warp.Warp` — the pluggable
reconvergence policy (:mod:`repro.simt.reconvergence`), φ-on-edge
transfer, undef trapping, the cycle and transaction model — but
executing a :class:`~repro.simt.lowering.LoweredProgram`
instead of walking IR objects:

* operands live in a flat register file (``regs[slot][lane]``) instead of
  a dict keyed by SSA value;
* every run of pure instructions is one µop carrying a generated
  function (:mod:`repro.simt.lowering`, "run functions") that executes
  the whole run in a single lane loop, so dispatch is one small-int
  comparison per *run* instead of an ``isinstance`` chain per instruction;
* branch targets, φ transfer plans and reconvergence points are block
  indices precomputed at lowering time.  That successor/φ/rpc metadata
  is policy-*independent* — the min-PC scheduler simply ignores the rpc
  hint — so one ``LoweredProgram`` (one launch-memo entry and one
  serialized compile-cache entry, both keyed by the latency model
  alone) serves every reconvergence policy.

Everything observable is bit-identical to the reference executor:
device memory, every :class:`~repro.simt.metrics.Metrics` counter, the
branch profile, and the full :class:`~repro.obs.WarpTrace` event stream
(same events, same order, same ``metrics.cycles`` timestamps).  The
differential tests in ``tests/simt/test_executor_diff.py`` hold the two
executors to that contract over the difftest generator corpus.

The register file is initialized to ``UNDEF`` wholesale, so the
reference executor's "read of unwritten value" trap cannot fire here;
the verifier's dominance checks guarantee no verified kernel can
observe the difference (an unwritten read would be a use not dominated
by its definition).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.ir.values import Argument
from repro.obs import WarpTrace

from .config import MachineConfig
from .lowering import (
    LoweredProgram,
    OP_BARRIER,
    OP_LOAD,
    OP_RUN,
    OP_STORE,
    OP_TRAP,
    TERM_BR,
    TERM_CBR,
    TERM_RET,
)
from .memory import BlockMemoryView, MemoryError_, SHARED_BASE
from .metrics import Metrics
from .reconvergence import get_policy
from .warp import SimulationError, UNDEF, account_memory

#: Test-only hook (see ``benchmarks/perf/test_guard.py``): a positive
#: value sleeps this many seconds per executed block, simulating a
#: dispatch-loop performance regression so the perf guard's failure path
#: can be exercised for real.  Never set outside tests.
_TEST_DISPATCH_DELAY = 0.0


class FastWarp:
    """One warp executing a lowered µop program in lockstep.

    Drop-in replacement for :class:`~repro.simt.warp.Warp` from the
    block scheduler's point of view: same constructor surface (modulo
    taking a :class:`LoweredProgram` instead of a Function), same
    ``run()`` generator protocol (yields ``"barrier"``, returns when
    every lane has retired).
    """

    def __init__(
        self,
        program: LoweredProgram,
        lane_thread_ids: Sequence[int],
        block_dim: int,
        block_id: int,
        grid_dim: int,
        args: Dict[Argument, object],
        memory: BlockMemoryView,
        config: MachineConfig,
        metrics: Optional[Metrics] = None,
        trace: Optional[WarpTrace] = None,
        obs: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.program = program
        self.lanes = list(lane_thread_ids)
        self.block_dim = block_dim
        self.block_id = block_id
        self.grid_dim = grid_dim
        self.memory = memory
        self.config = config
        self.metrics = metrics if metrics is not None else Metrics()
        self.metrics.warp_size = config.warp_size
        self._trace = trace
        # Aggregate-metrics occupancy observer (None when collection is
        # off — same `is not None` cost contract as _trace).
        self._obs = obs
        n = len(self.lanes)
        # Flat register file, UNDEF-initialized (shared undef slot included).
        regs: List[List[object]] = [[UNDEF] * n for _ in range(program.num_slots)]
        for slot, value in program.const_slots:
            regs[slot] = [value] * n
        for slot, arg in program.arg_slots:
            regs[slot] = [args[arg]] * n
        for slot, var in program.global_slots:
            # Shared globals are windowed per block: resolve here, never
            # at lowering time.
            regs[slot] = [memory.var_address(var)] * n
        self._regs = regs
        # Special registers, one row per SREG tag (tid/ntid/ctaid/nctaid).
        self._sregs = (list(self.lanes), [block_dim] * n,
                       [block_id] * n, [grid_dim] * n)
        # Segment lists for inlined address resolution.  No allocation
        # happens mid-launch (buffers and shared windows exist before any
        # warp is constructed), so snapshotting the lists here is safe.
        self._global_segments = memory.device.global_memory._segments
        self._shared_segments = memory.shared._segments
        self._steps = 0

    def _find_segment(self, addr: int):
        """Segment owning ``addr`` — same window rule and failure message
        as :meth:`AddressSpaceMemory.segment_for`."""
        segments = (self._shared_segments if addr >= SHARED_BASE
                    else self._global_segments)
        for segment in segments:
            if segment.base <= addr < segment.end:
                return segment
        raise MemoryError_(f"wild access at {addr:#x}")

    def run(self) -> Iterator[str]:
        program = self.program
        blocks = program.blocks
        regs = self._regs
        sregs = self._sregs
        find_segment = self._find_segment
        metrics = self.metrics
        record_branch = metrics.record_branch
        config = self.config
        trace = self._trace
        obs = self._obs
        profile = config.profile_branches
        branch_latency = program.branch_latency
        max_steps = config.max_warp_steps

        all_lanes = tuple(range(len(self.lanes)))
        # All control flow goes through the policy's per-warp scheduler;
        # PCs are block indices in program.blocks order (same numbering
        # the reference executor uses).
        scheduler = get_policy(config.reconvergence).scheduler(
            program.entry_index, all_lanes)
        scheduler_next = scheduler.next
        while True:
            pc, mask, merges = scheduler_next()
            if merges is not None and trace is not None:
                for merge_pc, active in merges:
                    trace.reconverge(metrics.cycles, blocks[merge_pc].name,
                                     active)
            if pc is None:
                return

            if _TEST_DISPATCH_DELAY:
                time.sleep(_TEST_DISPATCH_DELAY)
            block = blocks[pc]
            if trace is not None:
                trace.exec_block(metrics.cycles, block.name, len(mask))
            if obs is not None:
                obs(len(mask))

            for op in block.ops:
                kind = op[0]
                if kind == OP_RUN:
                    op[1](regs, sregs, mask, op[2], op[3])
                    # n ALU issues charged at once: WarpTrace events only
                    # fire at block boundaries, so no cycle stamp moves.
                    issued = op[4]
                    metrics.alu_issues += issued
                    metrics.alu_active_lanes += issued * len(mask)
                    metrics.instructions_issued += issued
                    metrics.cycles += op[5]
                elif kind == OP_LOAD:
                    rd = regs[op[1]]
                    rp = regs[op[2]]
                    addresses = []
                    # Inlined address resolution with a one-entry segment
                    # cache: warp accesses overwhelmingly stay in one
                    # segment, so the linear segment scan runs once per
                    # µop instead of once per lane.
                    seg_base = seg_end = 0
                    for i in mask:
                        addr = rp[i]
                        if addr is UNDEF:
                            raise SimulationError(
                                f"load through undef address: {op[5]}")
                        addresses.append(addr)
                        if not seg_base <= addr < seg_end:
                            seg = find_segment(addr)
                            seg_base = seg.base
                            seg_end = seg.end
                            seg_data = seg.data
                            seg_size = seg.element_size
                        index, rem = divmod(addr - seg_base, seg_size)
                        if rem:
                            seg.index_of(addr)  # canonical misaligned trap
                        rd[i] = seg_data[index]
                    account_memory(metrics, config, op[3], addresses, op[4])
                elif kind == OP_STORE:
                    rv = regs[op[1]]
                    rp = regs[op[2]]
                    addresses = []
                    seg_base = seg_end = 0
                    for i in mask:
                        addr = rp[i]
                        if addr is UNDEF:
                            raise SimulationError(
                                f"store through undef address: {op[5]}")
                        addresses.append(addr)
                        if not seg_base <= addr < seg_end:
                            seg = find_segment(addr)
                            seg_base = seg.base
                            seg_end = seg.end
                            seg_data = seg.data
                            seg_size = seg.element_size
                        index, rem = divmod(addr - seg_base, seg_size)
                        if rem:
                            seg.index_of(addr)  # canonical misaligned trap
                        seg_data[index] = rv[i]
                    account_memory(metrics, config, op[3], addresses, op[4])
                elif kind == OP_BARRIER:
                    metrics.record_barrier(op[1])
                    yield "barrier"
                else:  # OP_TRAP
                    raise SimulationError(op[1])

            term = block.term
            kind = term[0]
            if kind == TERM_RET:
                scheduler.retire()
            elif kind == TERM_BR:
                record_branch(branch_latency, divergent=False,
                              block_name=block.name, profile=profile)
                if trace is not None:
                    trace.branch(metrics.cycles, block.name, len(mask))
                pairs = term[2]
                if pairs:
                    self._transfer(pairs, mask)
                scheduler.advance(term[1])
            elif kind == TERM_CBR:
                rc = regs[term[1]]
                taken: List[int] = []
                not_taken: List[int] = []
                for i in mask:
                    cond = rc[i]
                    if cond is UNDEF:
                        raise SimulationError(
                            f"branch on undef condition: {term[7]}")
                    (taken if cond else not_taken).append(i)
                if not not_taken or not taken:
                    record_branch(branch_latency, divergent=False,
                                  block_name=block.name, profile=profile)
                    if trace is not None:
                        trace.branch(metrics.cycles, block.name, len(mask))
                    if taken:
                        target, pairs = term[2], term[5]
                    else:
                        target, pairs = term[3], term[6]
                    if pairs:
                        self._transfer(pairs, mask)
                    scheduler.advance(target)
                else:
                    # Divergence: the policy schedules the two sides;
                    # term[4] is the precomputed IPDOM index hint (-1
                    # when the sides never rejoin), which stack-less
                    # policies ignore.
                    record_branch(branch_latency, divergent=True,
                                  block_name=block.name, profile=profile)
                    if trace is not None:
                        trace.diverge(metrics.cycles, block.name,
                                      len(taken), len(not_taken))
                    taken_t = tuple(taken)
                    not_taken_t = tuple(not_taken)
                    scheduler.diverge(term[2], term[3], taken_t, not_taken_t,
                                      term[4])
                    if term[6]:
                        self._transfer(term[6], not_taken_t)
                    if term[5]:
                        self._transfer(term[5], taken_t)
            # TERM_NONE: leave pc unchanged; the step guard below catches
            # the resulting non-termination, as in the reference.

            self._steps += 1
            if self._steps > max_steps:
                raise SimulationError(
                    f"warp exceeded {max_steps} block steps; likely "
                    f"non-termination in @{program.function_name}")

    def _transfer(self, pairs, mask) -> None:
        """Apply one CFG edge's φ moves (parallel read-then-write)."""
        regs = self._regs
        staged = [(dest, [regs[src][i] for i in mask]) for dest, src in pairs]
        for dest, values in staged:
            rd = regs[dest]
            for i, value in zip(mask, values):
                rd[i] = value
