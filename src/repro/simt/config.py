"""Machine model for the SIMT simulator.

:class:`MachineConfig` is **the single machine description**: warp
width, latency table, the warp executor *and* the reconvergence
policy all live here, and every launch surface — ``GPU``,
``run_kernel``, ``repro.launch``, difftest's ``run_oracle``, the
evaluation sweeps — accepts one uniform ``machine=`` argument (None
means :data:`DEFAULT_CONFIG`).

The defaults are Vega-flavoured (the paper's GPU): SIMD execution of one
warp/wavefront per issue, LDS much cheaper than global memory, and
64-byte memory coalescing segments.  ``warp_size`` defaults to 32 so the
paper's block-size sweeps (32..1024) divide evenly; the AMD wavefront
width of 64 is a one-line change and is exercised in tests/ablations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.latency import LatencyModel

from .reconvergence import RECONVERGENCE_POLICIES

#: recognized ``MachineConfig.executor`` values
EXECUTORS = ("fast", "reference")

#: bytes per coalesced global-memory transaction
COALESCE_SEGMENT_BYTES = 64
#: log2 of COALESCE_SEGMENT_BYTES: ``addr >> shift`` is ``addr // bytes``
_COALESCE_SHIFT = COALESCE_SEGMENT_BYTES.bit_length() - 1
assert 1 << _COALESCE_SHIFT == COALESCE_SEGMENT_BYTES
#: extra cycles charged per additional memory transaction
EXTRA_TRANSACTION_CYCLES = 32


@dataclass
class MachineConfig:
    """Tunable parameters of the simulated GPU.

    Instances compare by contents.  A lowered µop program sees only
    :attr:`latency`, so program caches key on that alone
    (:func:`repro.simt.get_program`).
    """

    warp_size: int = 32
    #: static latency table; by default equal to the one CFM's
    #: profitability heuristics score with (DEFAULT_LATENCY_MODEL)
    latency: LatencyModel = field(default_factory=LatencyModel)
    #: max steps per warp before the simulator assumes non-termination
    max_warp_steps: int = 2_000_000
    #: block evaluator: "fast" runs lowered µop programs (simt.fastpath),
    #: "reference" walks the IR directly (simt.reference) — bit-identical
    #: semantics, held together by tests/simt/test_executor_diff.py
    executor: str = "fast"
    #: reconvergence policy: "ipdom" (classic post-dominator stack) or
    #: "min-pc" (stack-less path list with fusion); see
    #: repro.simt.reconvergence.  Device memory is policy-invariant for
    #: race-free kernels; cycles/divergence observables are per-policy.
    reconvergence: str = "ipdom"

    def __post_init__(self) -> None:
        for name in ("warp_size", "max_warp_steps"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; "
                f"expected one of {EXECUTORS}")
        if self.reconvergence not in RECONVERGENCE_POLICIES:
            raise ValueError(
                f"unknown reconvergence policy {self.reconvergence!r}; "
                f"expected one of {RECONVERGENCE_POLICIES}")

    def transactions_for(self, addresses) -> int:
        """Number of coalescing segments touched by the given byte
        addresses (at least 1 when any lane is active).

        ``addresses`` is a list, or a ``range`` as a dense warp access
        gives.  A range whose positive step is at most one segment leaves
        no segment between its first and last address untouched, so its
        count is arithmetic.
        """
        if not addresses:
            return 0
        shift = _COALESCE_SHIFT
        if (type(addresses) is range
                and 0 < addresses.step <= COALESCE_SEGMENT_BYTES):
            return (addresses[-1] >> shift) - (addresses[0] >> shift) + 1
        return len({addr >> shift for addr in addresses})


DEFAULT_CONFIG = MachineConfig()
