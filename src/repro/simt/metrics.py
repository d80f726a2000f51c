"""Execution metrics: cycles, ALU utilization, memory instruction counts.

These mirror the ``rocprof`` counters the paper reports:

* **cycles** — the simulator's per-warp issue-cycle count, used to compute
  the Figure-7/8 speedups (``baseline.cycles / cfm.cycles``);
* **ALU utilization** (Figure 9) — active lanes per ALU issue, divided by
  the warp width: divergence leaves lanes masked off and drags this down;
* **memory instruction counters** (Figure 10) — per-warp issue counts of
  vector-memory (global), LDS (shared) and FLAT instructions, as in the
  Vega ISA manual the paper cites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.ir.types import AddressSpace


@dataclass
class Metrics:
    """Aggregated counters for one launch (or one warp)."""

    cycles: int = 0
    instructions_issued: int = 0
    alu_issues: int = 0
    alu_active_lanes: int = 0
    warp_size: int = 32
    #: per-address-space memory instruction issue counts
    memory_issues: Dict[int, int] = field(default_factory=dict)
    memory_transactions: int = 0
    barriers: int = 0
    branches: int = 0
    divergent_branches: int = 0

    # ---- recording -------------------------------------------------------

    def record_alu(self, active_lanes: int, latency: int) -> None:
        self.alu_issues += 1
        self.alu_active_lanes += active_lanes
        self.instructions_issued += 1
        self.cycles += latency

    def record_memory(self, space: int, latency: int, transactions: int) -> None:
        self.memory_issues[space] = self.memory_issues.get(space, 0) + 1
        self.memory_transactions += transactions
        self.instructions_issued += 1
        self.cycles += latency

    def record_branch(self, latency: int, divergent: bool) -> None:
        self.branches += 1
        if divergent:
            self.divergent_branches += 1
        self.instructions_issued += 1
        self.cycles += latency

    def record_barrier(self, latency: int) -> None:
        self.barriers += 1
        self.instructions_issued += 1
        self.cycles += latency

    # ---- aggregation ------------------------------------------------------

    def merge(self, other: "Metrics") -> None:
        """Accumulate another warp's counters into this one.

        Both sides must agree on ``warp_size`` — ``alu_utilization``
        divides the pooled active-lane count by one width, so mixing
        widths would silently skew it.  A side that has not issued any
        ALU work yet (a freshly-constructed accumulator) adopts the other
        side's width instead of raising.
        """
        if self.warp_size != other.warp_size:
            if self.alu_issues == 0:
                self.warp_size = other.warp_size
            elif other.alu_issues != 0:
                raise ValueError(
                    f"cannot merge Metrics with warp_size="
                    f"{other.warp_size} into warp_size={self.warp_size}: "
                    f"alu_utilization would be meaningless")
        self.cycles += other.cycles
        self.instructions_issued += other.instructions_issued
        self.alu_issues += other.alu_issues
        self.alu_active_lanes += other.alu_active_lanes
        self.memory_transactions += other.memory_transactions
        self.barriers += other.barriers
        self.branches += other.branches
        self.divergent_branches += other.divergent_branches
        for space, count in other.memory_issues.items():
            self.memory_issues[space] = self.memory_issues.get(space, 0) + count

    # ---- derived quantities --------------------------------------------------

    @property
    def alu_utilization(self) -> float:
        """Fraction of SIMD lanes doing useful ALU work per ALU issue
        (Figure 9 reports this as a percentage)."""
        if self.alu_issues == 0:
            return 0.0
        return self.alu_active_lanes / (self.alu_issues * self.warp_size)

    @property
    def vector_memory_issues(self) -> int:
        return self.memory_issues.get(AddressSpace.GLOBAL, 0)

    @property
    def shared_memory_issues(self) -> int:
        return self.memory_issues.get(AddressSpace.SHARED, 0)

    @property
    def flat_memory_issues(self) -> int:
        return self.memory_issues.get(AddressSpace.FLAT, 0)

    def as_dict(self) -> Dict[str, object]:
        """Lossless JSON-serializable snapshot (report CLI, sweep trace).

        Contains every raw counter, so ``Metrics.from_dict(m.as_dict())``
        round-trips exactly; derived quantities (``alu_utilization``,
        the per-space issue counts) are included for readability but
        ignored on the way back in.
        """
        return {
            "cycles": self.cycles,
            "instructions_issued": self.instructions_issued,
            "alu_issues": self.alu_issues,
            "alu_active_lanes": self.alu_active_lanes,
            "warp_size": self.warp_size,
            "alu_utilization": round(self.alu_utilization, 4),
            "memory_issues": {str(space): count
                              for space, count in sorted(self.memory_issues.items())},
            "vector_memory_issues": self.vector_memory_issues,
            "shared_memory_issues": self.shared_memory_issues,
            "flat_memory_issues": self.flat_memory_issues,
            "memory_transactions": self.memory_transactions,
            "branches": self.branches,
            "divergent_branches": self.divergent_branches,
            "barriers": self.barriers,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Metrics":
        """Inverse of :meth:`as_dict` (derived fields are recomputed)."""
        return cls(
            cycles=int(data.get("cycles", 0)),
            instructions_issued=int(data.get("instructions_issued", 0)),
            alu_issues=int(data.get("alu_issues", 0)),
            alu_active_lanes=int(data.get("alu_active_lanes", 0)),
            warp_size=int(data.get("warp_size", 32)),
            memory_issues={int(space): int(count) for space, count
                           in dict(data.get("memory_issues", {})).items()},
            memory_transactions=int(data.get("memory_transactions", 0)),
            barriers=int(data.get("barriers", 0)),
            branches=int(data.get("branches", 0)),
            divergent_branches=int(data.get("divergent_branches", 0)),
        )

    def summary(self) -> str:
        return (
            f"cycles={self.cycles} issued={self.instructions_issued} "
            f"alu_util={self.alu_utilization:.1%} "
            f"vmem={self.vector_memory_issues} lds={self.shared_memory_issues} "
            f"flat={self.flat_memory_issues} branches={self.branches} "
            f"(divergent={self.divergent_branches}) barriers={self.barriers}"
        )
