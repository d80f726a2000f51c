"""The reference block evaluator: a tree-walking interpreter over IR.

One of the two datapaths :class:`repro.simt.warp.Warp` drives (the other
is the µop executor, :mod:`repro.simt.fastpath`).  It reads operands
from a dict register file keyed by SSA value, evaluates strict ops
through the instruction-semantics table (:mod:`repro.ir.scalars`), goes
through :class:`~repro.simt.memory.BlockMemoryView` for every access, and
derives its successor, φ and post-dominator facts from the IR itself.
It deliberately imports nothing from :mod:`repro.simt.lowering`: being
a second opinion on lowering's control-flow metadata and run functions
is its value (``tests/simt/test_executor_diff.py`` compares the two).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

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
from repro.ir.scalars import EvalError, eval_strict, is_strict
from repro.ir.values import Argument, Constant, Undef, Value

from .config import MachineConfig
from .memory import BlockMemoryView, sizeof
from .metrics import Metrics
from .warp import SimulationError, UNDEF, account_memory
from .warp import TERM_BR, TERM_CBR, TERM_NONE, TERM_RET


#: the special-register bank's rows, in the block scheduler's order
_GEOMETRY = (IntrinsicName.TID_X, IntrinsicName.NTID_X,
             IntrinsicName.CTAID_X, IntrinsicName.NCTAID_X)


class ReferenceBlock(NamedTuple):
    """One IR block as the driver sees it."""

    name: str
    #: the non-φ instructions before the terminator
    body: List[Instruction]
    term: tuple


class ReferenceProgram:
    """What every warp of a launch shares: the function's blocks with
    their control-flow facts, computed once per launch from the IR."""

    def __init__(self, function: Function) -> None:
        self.function_name = function.name
        blocks = list(function.blocks)
        index = {id(block): i for i, block in enumerate(blocks)}
        pdt = compute_postdominator_tree(function)

        def edge(pred: BasicBlock, succ: BasicBlock) -> tuple:
            return tuple((phi, phi.incoming_for(pred)) for phi in succ.phis)

        self.entry_index = index[id(function.entry)]
        self.blocks: List[ReferenceBlock] = []
        for block in blocks:
            body: List[Instruction] = []
            term: tuple = (TERM_NONE,)
            for instr in block.instructions:
                if isinstance(instr, Phi):
                    continue  # applied on edge transfer
                if isinstance(instr, Ret):
                    term = (TERM_RET,)
                    break
                if isinstance(instr, Branch):
                    true_succ = instr.true_successor
                    if not instr.is_conditional:
                        term = (TERM_BR, index[id(true_succ)],
                                edge(block, true_succ))
                        break
                    false_succ = instr.false_successor
                    rpc = immediate_postdominator(pdt, block)
                    term = (TERM_CBR, instr.condition,
                            index[id(true_succ)], index[id(false_succ)],
                            -1 if rpc is None else index[id(rpc)],
                            edge(block, true_succ), edge(block, false_succ),
                            instr)
                    break
                body.append(instr)
            self.blocks.append(ReferenceBlock(block.name, body, term))


class ReferenceEvaluator:
    """One warp's datapath over a :class:`ReferenceProgram`."""

    def __init__(
        self,
        program: ReferenceProgram,
        config: MachineConfig,
        args: Dict[Argument, object],
        sregs: Tuple[List[int], ...],
        memory: BlockMemoryView,
        metrics: Metrics,
    ) -> None:
        self.program = program
        self.config = config
        self.args = args
        self.memory = memory
        self.metrics = metrics
        self._registers: Dict[Value, List[object]] = {}
        self._geometry = dict(zip(_GEOMETRY, sregs))

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

    # ---- the block-evaluator protocol (see repro.simt.warp) ---------------

    def execute(self, block: ReferenceBlock, mask: Tuple[int, ...], resume):
        pending = iter(block.body) if resume is None else resume
        for instr in pending:
            if isinstance(instr, Call) and instr.is_barrier:
                self.metrics.record_barrier(self.config.latency.barrier_latency)
                return pending
            self._execute_simple(instr, mask)
        return None

    def condition(self, cond: Value, mask: Tuple[int, ...]) -> Dict[int, object]:
        return {lane: self._read(cond, lane) for lane in mask}

    def transfer(self, edge, mask: Tuple[int, ...]) -> None:
        staged = [(phi, [self._read(incoming, lane) for lane in mask])
                  for phi, incoming in edge]
        for phi, values in staged:
            for lane, value in zip(mask, values):
                self._write(phi, lane, value)

    # ---- straight-line execution ------------------------------------------

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
            account_memory(self.metrics, self.config, instr.address_space,
                           addresses, latency)
            return
        if isinstance(instr, Store):
            addresses = []
            for lane in mask:
                addr = self._read(instr.pointer, lane)
                if addr is UNDEF:
                    raise SimulationError(f"store through undef address: {instr!r}")
                addresses.append(addr)
                self.memory.store(addr, self._read(instr.value, lane))
            account_memory(self.metrics, self.config, instr.address_space,
                           addresses, latency)
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

    # ---- expression evaluation --------------------------------------------

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
            row = self._geometry.get(instr.callee)
            if row is None:
                raise SimulationError(f"unknown intrinsic @{instr.callee}")
            return row[lane]
        raise SimulationError(f"cannot evaluate {instr!r}")
