"""The fast block evaluator: lowered µop programs.

One of the two datapaths :class:`repro.simt.warp.Warp` drives (the other
is the reference interpreter, :mod:`repro.simt.reference`).  The
machine semantics are the same — φ-on-edge transfer, undef trapping,
the cycle and transaction model — but it executes a
:class:`~repro.simt.lowering.LoweredProgram` instead of walking IR
objects:

* operands live in a flat register file (``regs[slot][lane]``) instead of
  a dict keyed by SSA value;
* every run of pure instructions is one µop carrying a generated
  function (:mod:`repro.simt.lowering`, "run functions") that executes
  the whole run in a single lane loop, so dispatch is one small-int
  comparison per *run* instead of an ``isinstance`` chain per instruction;
* branch targets, φ transfer plans and reconvergence points are block
  indices precomputed at lowering time, in the terminator-record layout
  the driver reads.  That successor/φ/rpc metadata is policy-*independent*
  — the min-PC scheduler simply ignores the rpc hint — so one
  ``LoweredProgram`` (one launch-memo entry and one serialized
  compile-cache entry, both keyed by the latency model alone) serves
  every reconvergence policy;
* memory µops index by shift and mask where the element size is a power
  of two and keep the last two segments they touched, and a whole warp
  takes row-level shortcuts: a φ transfer copies whole rows, and an
  access to ``n`` consecutive elements of one segment is one list slice.

The whole-warp shortcuts rest on one invariant of
:class:`~repro.simt.reconvergence.PathScheduler`: every mask it hands
out is a strictly ascending subset of ``range(n)`` for a warp of ``n``
lanes (``tests/simt/test_reconvergence.py`` checks it under both
policies).  So ``len(mask) == n`` means "every lane, in lane order", and
a shortcut is taken only where the per-lane loop would not trap; every
other case runs that loop, which is the exact path.

Everything observable is bit-identical to the reference evaluator:
device memory, every :class:`~repro.simt.metrics.Metrics` counter and
the full :class:`~repro.obs.WarpTrace` event stream
(same events, same order, same ``metrics.cycles`` timestamps).  The
differential tests in ``tests/simt/test_executor_diff.py`` hold the two
to that contract over the difftest generator corpus.

The register file is initialized to ``UNDEF`` wholesale, so the
reference evaluator's "read of unwritten value" trap cannot fire here;
the verifier's dominance checks guarantee no verified kernel can
observe the difference (an unwritten read would be a use not dominated
by its definition — ``tests/simt/test_executor_diff.py`` pins both
halves of that argument).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ir.values import Argument

from .config import MachineConfig
from .lowering import (
    LoweredProgram,
    OP_BARRIER,
    OP_LOAD,
    OP_RUN,
    OP_STORE,
)
from .memory import BlockMemoryView, MemoryError_, SHARED_BASE
from .metrics import Metrics
from .warp import SimulationError, UNDEF, account_memory


class FastEvaluator:
    """One warp's datapath over a :class:`LoweredProgram`.

    The three protocol callables (see :mod:`repro.simt.warp`) are
    closures over the warp's state, bound once here: the driver calls
    them once per block step, and re-binding five locals on every call
    is a measurable share of a ~30 µs step.
    """

    def __init__(
        self,
        program: LoweredProgram,
        config: MachineConfig,
        args: Dict[Argument, object],
        sregs: Tuple[List[int], ...],
        memory: BlockMemoryView,
        metrics: Metrics,
    ) -> None:
        self.program = program
        n = len(sregs[0])
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
        # Segment lists for inlined address resolution.  No allocation
        # happens mid-launch (buffers and shared windows exist before any
        # warp is constructed), so snapshotting the lists here is safe.
        global_segments = memory.device.global_memory._segments
        shared_segments = memory.shared._segments

        def find_segment(addr: int):
            """Segment owning ``addr`` — same window rule and failure
            message as :meth:`AddressSpaceMemory.segment_for`."""
            for segment in (shared_segments if addr >= SHARED_BASE
                            else global_segments):
                if segment.base <= addr < segment.end:
                    return segment
            raise MemoryError_(f"wild access at {addr:#x}")

        def execute(block, mask, resume):
            ops = iter(block.ops) if resume is None else resume
            for op in ops:
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
                elif kind == OP_LOAD or kind == OP_STORE:
                    rv = regs[op[1]]
                    rp = regs[op[2]]
                    a0 = rp[mask[0]]
                    # A two-entry segment cache of ``Segment.cache_entry``
                    # tuples: entry 0 holds the latest miss, entry 1 the
                    # one before it.  The mask's first lane is the first
                    # lane the per-lane loop resolves, so looking its
                    # segment up here raises that loop's wild-access trap.
                    b1 = e1 = 0
                    if a0 is UNDEF:
                        b0 = e0 = 0  # the loop traps on its first lane
                    else:
                        seg = find_segment(a0)
                        if len(mask) == n and seg.shift >= 0:
                            offset = a0 - seg.base
                            size = seg.element_size
                            end = a0 + n * size
                            if (not offset & (size - 1)
                                    and end <= seg.end and rp[-1] == end - size
                                    and rp == list(addresses := range(
                                        a0, end, size))):
                                # The whole warp on ``n`` consecutive
                                # elements: one slice.
                                lo = offset >> seg.shift
                                if kind == OP_LOAD:
                                    rv[:] = seg.data[lo:lo + n]
                                else:
                                    seg.data[lo:lo + n] = rv
                                account_memory(metrics, config, op[3],
                                               addresses, op[4])
                                continue
                        b0, e0, d0, s0, m0 = seg.cache_entry
                    # The per-lane loops, the exact path for every other
                    # access.  A power-of-two element size indexes by
                    # ``offset >> shift`` and checks alignment with
                    # ``offset & (size - 1)``; any other size never enters
                    # the cache and keeps ``divmod`` (``Segment.index_of``).
                    addresses = []
                    if kind == OP_LOAD:
                        for i in mask:
                            addr = rp[i]
                            if addr is UNDEF:
                                raise SimulationError(
                                    f"load through undef address: {op[5]}")
                            addresses.append(addr)
                            if not b0 <= addr < e0:
                                if b1 <= addr < e1:
                                    offset = addr - b1
                                    if offset & m1:
                                        find_segment(addr).index_of(addr)
                                    rv[i] = d1[offset >> s1]
                                    continue
                                seg = find_segment(addr)
                                if seg.shift < 0:
                                    rv[i] = seg.data[seg.index_of(addr)]
                                    continue
                                b1, e1, d1, s1, m1 = b0, e0, d0, s0, m0
                                b0, e0, d0, s0, m0 = seg.cache_entry
                            offset = addr - b0
                            if offset & m0:
                                find_segment(addr).index_of(addr)  # misaligned
                            rv[i] = d0[offset >> s0]
                    else:
                        for i in mask:
                            addr = rp[i]
                            if addr is UNDEF:
                                raise SimulationError(
                                    f"store through undef address: {op[5]}")
                            addresses.append(addr)
                            if not b0 <= addr < e0:
                                if b1 <= addr < e1:
                                    offset = addr - b1
                                    if offset & m1:
                                        find_segment(addr).index_of(addr)
                                    d1[offset >> s1] = rv[i]
                                    continue
                                seg = find_segment(addr)
                                if seg.shift < 0:
                                    seg.data[seg.index_of(addr)] = rv[i]
                                    continue
                                b1, e1, d1, s1, m1 = b0, e0, d0, s0, m0
                                b0, e0, d0, s0, m0 = seg.cache_entry
                            offset = addr - b0
                            if offset & m0:
                                find_segment(addr).index_of(addr)  # misaligned
                            d0[offset >> s0] = rv[i]
                    account_memory(metrics, config, op[3], addresses, op[4])
                elif kind == OP_BARRIER:
                    metrics.record_barrier(op[1])
                    return ops
                else:  # OP_TRAP
                    raise SimulationError(op[1])
            return None

        def transfer(pairs, mask) -> None:
            # All reads before all writes, so a φ swap stays correct.
            if len(mask) == n:
                # The whole warp in lane order: copy whole rows.
                staged = [(dest, regs[src][:]) for dest, src in pairs]
                for dest, row in staged:
                    regs[dest] = row
                return
            staged = [(dest, [regs[src][i] for i in mask])
                      for dest, src in pairs]
            for dest, values in staged:
                rd = regs[dest]
                for i, value in zip(mask, values):
                    rd[i] = value

        self.execute = execute
        self.condition = lambda slot, mask: regs[slot]
        self.transfer = transfer
