"""Static instruction latency model.

One latency table serves two customers, exactly as in the paper:

* CFM's melding-profitability metrics ``FP_B``/``FP_S``/``FP_I`` (§IV-C)
  use ``lat(i)`` and the per-opcode weight ``w_i``;
* the SIMT simulator charges the same latencies per issued instruction,
  so the profitability heuristic and the measured cycles agree about what
  is expensive.

Values are loosely modelled on the AMD GCN/Vega pipeline the paper used:
most VALU operations take 4 cycles per wavefront, LDS (shared memory)
operations are several times more expensive than ALU work but far cheaper
than global (vector) memory — the paper's §VI-D observation that melding
shared-memory instructions pays off the most depends on this ordering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict

from repro.ir.types import AddressSpace
from repro.ir.instructions import (
    Call,
    Instruction,
    Load,
    Opcode,
    Store,
)


_DEFAULT_OPCODE_LATENCY: Dict[str, int] = {
    Opcode.ADD: 4, Opcode.SUB: 4, Opcode.AND: 4, Opcode.OR: 4, Opcode.XOR: 4,
    Opcode.SHL: 4, Opcode.LSHR: 4, Opcode.ASHR: 4,
    Opcode.MUL: 8,
    Opcode.SDIV: 40, Opcode.UDIV: 40, Opcode.SREM: 40, Opcode.UREM: 40,
    Opcode.FADD: 4, Opcode.FSUB: 4, Opcode.FMUL: 4, Opcode.FNEG: 4,
    Opcode.FDIV: 32,
    Opcode.ICMP: 4, Opcode.FCMP: 4,
    Opcode.SELECT: 4,
    Opcode.GEP: 4,
    Opcode.ZEXT: 4, Opcode.SEXT: 4, Opcode.TRUNC: 4, Opcode.SITOFP: 4,
    Opcode.FPTOSI: 4, Opcode.BITCAST: 0,
    Opcode.BR: 16,
    Opcode.RET: 4,
    Opcode.PHI: 0,   # resolved on edges; no issue slot
    Opcode.CALL: 4,  # pure intrinsics (tid etc.); barrier handled separately
}

_DEFAULT_MEMORY_LATENCY: Dict[int, int] = {
    AddressSpace.SHARED: 32,
    AddressSpace.GLOBAL: 300,
    AddressSpace.FLAT: 320,
}


@dataclass
class LatencyModel:
    """``lat(i)`` of §IV-C.

    Only the simulator's table is configurable
    (:attr:`repro.simt.MachineConfig.latency`); CFM's profitability
    metrics always score with :data:`DEFAULT_LATENCY_MODEL`.
    """

    opcode_latency: Dict[str, int] = field(
        default_factory=lambda: dict(_DEFAULT_OPCODE_LATENCY))
    memory_latency: Dict[int, int] = field(
        default_factory=lambda: dict(_DEFAULT_MEMORY_LATENCY))
    barrier_latency: int = 16

    def latency(self, instr: Instruction) -> int:
        """Static latency of one instruction."""
        if isinstance(instr, (Load, Store)):
            return self.memory_latency[instr.address_space]
        if isinstance(instr, Call):
            if instr.is_barrier:
                return self.barrier_latency
            return self.opcode_latency[Opcode.CALL]
        return self.opcode_latency[instr.opcode]

    @property
    def select_latency(self) -> int:
        """``l_sel`` in the ``FP_I`` formula."""
        return self.opcode_latency[Opcode.SELECT]

    @property
    def branch_latency(self) -> int:
        return self.opcode_latency[Opcode.BR]


DEFAULT_LATENCY_MODEL = LatencyModel()


def latency_token(model: LatencyModel) -> str:
    """Stable text identity of a latency model's observable contents.

    The one key of everything latency-dependent: the lowered-program
    memo, the compile cache's ``cfm:`` pipeline ids and the
    ``machine_key`` of stored programs — so
    two models with equal tables share entries regardless of object
    identity, in this process and on disk.
    """
    return json.dumps((sorted(model.opcode_latency.items()),
                       sorted(model.memory_latency.items()),
                       model.barrier_latency), separators=(",", ":"))
