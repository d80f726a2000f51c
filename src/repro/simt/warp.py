"""Lockstep warp interpreter (the reference executor).

This is the execution model whose inefficiency the paper attacks: a warp
executes one instruction at a time under an *active mask*; at a divergent
branch the mask splits, the two sides run serially, and the lanes
reconverge when their control paths meet again (§I, §II-A).  Because each
*issue* costs the instruction's full latency regardless of how many lanes
are active, divergent code pays twice — exactly the cost CFM's melding
removes.

*How* paths are scheduled and where they reconverge is pluggable: the
warp asks :attr:`MachineConfig.reconvergence` for a
:class:`repro.simt.reconvergence.ReconvergencePolicy` and drives all
control flow through its per-warp scheduler (the classic IPDOM stack by
default, or the stack-less min-PC path list).  The scheduler deals in
block *indices* (position in ``function.blocks``), the same program
counters the fast-path executor uses, so both executors share one
scheduling implementation.

φ nodes are evaluated *on edge transfer* (all reads before all writes),
so blocks themselves only execute non-φ instructions; this is what makes
per-lane φ resolution correct even when lanes arrive at a join from
different predecessors at different times.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.dominators import (
    compute_postdominator_tree,
    immediate_postdominator,
)
from repro.ir.block import BasicBlock
from repro.ir.function import Function, GlobalVariable
from repro.ir.instructions import (
    Branch,
    Call,
    GetElementPtr,
    Instruction,
    IntrinsicName,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from repro.ir.types import AddressSpace
from repro.ir.scalars import EvalError, eval_strict, is_strict
from repro.ir.values import Argument, Constant, Undef, Value
from repro.obs import WarpTrace

from .config import MachineConfig
from .memory import BlockMemoryView, SHARED_BASE, sizeof
from .metrics import Metrics
from .reconvergence import get_policy


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

    Shared by both executors (:class:`Warp` and
    :class:`repro.simt.fastpath.FastWarp`) so the cycle model cannot
    drift between them.  FLAT instructions resolve dynamically; the
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
    extra = (transactions - 1) * config.extra_transaction_cycles
    metrics.record_memory(static_space, latency + extra, transactions)


class Warp:
    """One warp: ``warp_size`` lanes executing a kernel in lockstep.

    ``run()`` is a generator that yields ``"barrier"`` each time the warp
    reaches a block-wide barrier, letting the block scheduler synchronize
    warps; it returns when every lane has retired.
    """

    def __init__(
        self,
        function: Function,
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
        self.function = function
        self.lanes = list(lane_thread_ids)
        self.block_dim = block_dim
        self.block_id = block_id
        self.grid_dim = grid_dim
        self.args = args
        self.memory = memory
        self.config = config
        self.metrics = metrics if metrics is not None else Metrics()
        self.metrics.warp_size = config.warp_size
        # Opt-in divergence tracing (repro.obs): None on every untraced
        # launch, so the hot-path cost is one `is not None` per site.
        self._trace = trace
        # Opt-in aggregate metrics: the launch sink's occupancy observer
        # (None when collection is off — same cost contract as _trace).
        self._obs = obs
        self._registers: Dict[Value, List[object]] = {}
        self._pdt = compute_postdominator_tree(function)
        # Scheduler PCs are block indices in function.blocks order — the
        # same numbering lowering assigns, so both executors agree on
        # what "minimum PC" means under stack-less policies.
        self._blocks: List[BasicBlock] = list(function.blocks)
        self._block_index: Dict[int, int] = {
            id(block): index for index, block in enumerate(self._blocks)}
        self._policy = get_policy(config.reconvergence)
        self._steps = 0

    # ---- operand access ---------------------------------------------------

    def _read(self, value: Value, lane: int):
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, Undef):
            return UNDEF
        if isinstance(value, Argument):
            return self.args[value]
        if isinstance(value, GlobalVariable):
            return self.memory.var_address(value)
        regs = self._registers.get(value)
        if regs is None:
            raise SimulationError(f"read of unwritten value {value.ref()}")
        return regs[lane]

    def _write(self, instr: Instruction, lane: int, value) -> None:
        regs = self._registers.get(instr)
        if regs is None:
            regs = [UNDEF] * self.config.warp_size
            self._registers[instr] = regs
        regs[lane] = value

    # ---- main loop -----------------------------------------------------------

    def run(self) -> Iterator[str]:
        all_lanes = tuple(range(len(self.lanes)))
        blocks = self._blocks
        scheduler = self._policy.scheduler(
            self._block_index[id(self.function.entry)], all_lanes)
        while True:
            pc, mask, merges = scheduler.next()
            if merges is not None and self._trace is not None:
                for merge_pc, active in merges:
                    self._trace.reconverge(
                        self.metrics.cycles, blocks[merge_pc].name, active)
            if pc is None:
                return
            yield from self._execute_block(blocks[pc], mask, scheduler)
            self._steps += 1
            if self._steps > self.config.max_warp_steps:
                raise SimulationError(
                    f"warp exceeded {self.config.max_warp_steps} block steps; "
                    f"likely non-termination in @{self.function.name}")

    def _execute_block(self, block: BasicBlock, mask: Tuple[int, ...],
                       scheduler) -> Iterator[str]:
        if self._trace is not None:
            self._trace.exec_block(self.metrics.cycles, block.name, len(mask))
        if self._obs is not None:
            self._obs(len(mask))
        for instr in block.instructions:
            if isinstance(instr, Phi):
                continue  # applied on edge transfer
            if isinstance(instr, Branch):
                self._execute_branch(instr, block, mask, scheduler)
                return
            if isinstance(instr, Ret):
                scheduler.retire()
                return
            if isinstance(instr, Call) and instr.is_barrier:
                self.metrics.record_barrier(self.config.latency.barrier_latency)
                yield "barrier"
                continue
            self._execute_simple(instr, mask)

    # ---- straight-line execution ------------------------------------------------

    def _execute_simple(self, instr: Instruction, mask: Tuple[int, ...]) -> None:
        latency = self.config.latency.latency(instr)
        if isinstance(instr, Load):
            addresses = []
            for lane in mask:
                addr = self._read(instr.pointer, lane)
                if addr is UNDEF:
                    raise SimulationError(f"load through undef address: {instr!r}")
                addresses.append(addr)
                self._write(instr, lane, self.memory.load(addr))
            self._record_memory(instr.address_space, addresses, latency)
            return
        if isinstance(instr, Store):
            addresses = []
            for lane in mask:
                addr = self._read(instr.pointer, lane)
                if addr is UNDEF:
                    raise SimulationError(f"store through undef address: {instr!r}")
                addresses.append(addr)
                self.memory.store(addr, self._read(instr.value, lane))
            self._record_memory(instr.address_space, addresses, latency)
            return
        # Pure per-lane computation.
        if is_strict(instr):
            # Through the semantics table; any undef operand of a strict
            # op is an undef result.
            operands = instr.operands
            try:
                for lane in mask:
                    values = [self._read(operand, lane) for operand in operands]
                    self._write(instr, lane, UNDEF if UNDEF in values
                                else eval_strict(instr, values))
            except EvalError as exc:
                raise SimulationError(f"{exc}: {instr!r}") from exc
        else:
            for lane in mask:
                self._write(instr, lane, self._evaluate(instr, lane))
        self.metrics.record_alu(len(mask), latency)

    def _record_memory(self, static_space: int, addresses: List[int], latency: int) -> None:
        account_memory(self.metrics, self.config, static_space, addresses,
                       latency)

    # ---- control flow --------------------------------------------------------------

    def _transfer(self, pred: BasicBlock, succ: BasicBlock, mask: Tuple[int, ...]) -> None:
        """Evaluate ``succ``'s φs for ``mask`` lanes arriving from ``pred``
        (parallel read-then-write semantics)."""
        phis = succ.phis
        if not phis:
            return
        staged: List[Tuple[Phi, List[object]]] = []
        for phi in phis:
            incoming = phi.incoming_for(pred)
            staged.append((phi, [self._read(incoming, lane) for lane in mask]))
        for phi, values in staged:
            for lane, value in zip(mask, values):
                self._write(phi, lane, value)

    def _execute_branch(self, branch: Branch, block: BasicBlock,
                        mask: Tuple[int, ...], scheduler) -> None:
        latency = self.config.latency.branch_latency
        profile = self.config.profile_branches
        index = self._block_index
        if not branch.is_conditional:
            target = branch.true_successor
            self.metrics.record_branch(latency, divergent=False,
                                       block_name=block.name, profile=profile)
            if self._trace is not None:
                self._trace.branch(self.metrics.cycles, block.name, len(mask))
            self._transfer(block, target, mask)
            scheduler.advance(index[id(target)])
            return

        taken: List[int] = []
        not_taken: List[int] = []
        for lane in mask:
            cond = self._read(branch.condition, lane)
            if cond is UNDEF:
                raise SimulationError(f"branch on undef condition: {branch!r}")
            (taken if cond else not_taken).append(lane)

        if not not_taken or not taken:
            target = branch.true_successor if taken else branch.false_successor
            self.metrics.record_branch(latency, divergent=False,
                                       block_name=block.name, profile=profile)
            if self._trace is not None:
                self._trace.branch(self.metrics.cycles, block.name, len(mask))
            self._transfer(block, target, mask)
            scheduler.advance(index[id(target)])
            return

        # Divergence: the policy decides how the two sides are scheduled
        # and where (or whether) they reconverge; the rpc hint is the
        # immediate post-dominator's index, -1 when the sides never
        # rejoin (multiple rets).
        self.metrics.record_branch(latency, divergent=True,
                                   block_name=block.name, profile=profile)
        if self._trace is not None:
            self._trace.diverge(self.metrics.cycles, block.name,
                                len(taken), len(not_taken))
        rpc = immediate_postdominator(self._pdt, block)
        scheduler.diverge(index[id(branch.true_successor)],
                          index[id(branch.false_successor)],
                          tuple(taken), tuple(not_taken),
                          -1 if rpc is None else index[id(rpc)])
        self._transfer(block, branch.false_successor, tuple(not_taken))
        self._transfer(block, branch.true_successor, tuple(taken))

    # ---- expression evaluation --------------------------------------------------------

    def _evaluate(self, instr: Instruction, lane: int):
        """The non-strict pure ops: what is lazy, or machine state."""
        if isinstance(instr, Select):
            cond = self._read(instr.condition, lane)
            if cond is UNDEF:
                # Not an observation point: LLVM's `select undef, a, b` is
                # defined (either operand), and legal speculation (late
                # if-conversion hoisting a CFM select above its guard) can
                # execute one on lanes that never use the result.  Propagate
                # undef; the trap still fires if it reaches a branch, an
                # address, or a stored value.
                return UNDEF
            chosen = instr.true_value if cond else instr.false_value
            return self._read(chosen, lane)
        if isinstance(instr, GetElementPtr):
            base = self._read(instr.base, lane)
            index = self._read(instr.index, lane)
            if base is UNDEF or index is UNDEF:
                return UNDEF
            return base + index * sizeof(instr.base.type.pointee)
        if isinstance(instr, Call):
            return self._geometry(instr, lane)
        raise SimulationError(f"cannot evaluate {instr!r}")

    def _geometry(self, call: Call, lane: int):
        name = call.callee
        if name == IntrinsicName.TID_X:
            return self.lanes[lane]
        if name == IntrinsicName.NTID_X:
            return self.block_dim
        if name == IntrinsicName.CTAID_X:
            return self.block_id
        if name == IntrinsicName.NCTAID_X:
            return self.grid_dim
        raise SimulationError(f"unknown intrinsic @{name}")
