"""SIMT GPU simulator: warps, pluggable reconvergence, metrics.

This package substitutes for the paper's AMD Vega 64 + rocprof setup: it
executes kernels warp-by-warp in lockstep under a reconvergence policy
(the divergence mechanism CFM optimizes) and reports the same counter
families the paper measures.

:class:`MachineConfig` is the single machine description — warp size,
latency model, executor, reconvergence policy — accepted uniformly as
``machine=`` by every launch surface.  Two executors share the machine
semantics (see ``docs/performance.md``): the tree-walking **reference**
interpreter (:class:`Warp`) and the lowered **fast** path
(:class:`FastWarp` over a :class:`LoweredProgram`), selected via
``MachineConfig.executor``.  Two reconvergence policies share the
scheduling logic (:mod:`repro.simt.reconvergence`): the classic
``"ipdom"`` stack and the stack-less ``"min-pc"`` path list, selected
via ``MachineConfig.reconvergence``.
"""

from .config import (
    DEFAULT_CONFIG,
    EXECUTORS,
    MachineConfig,
)
from .fastpath import FastWarp
from .lowering import (
    PROGRAM_SCHEMA,
    LoweredProgram,
    ProgramDecodeError,
    clear_lowering_memo,
    get_program,
    invalidate_lowering,
    latency_token_key,
    lower_function,
    lower_symbolic,
    materialize_program,
    seed_program,
)
from .machine import GPU, Buffer, run_kernel
from .memory import DeviceMemory, MemoryError_, sizeof
from .metrics import Metrics
from .reconvergence import (
    RECONVERGENCE_POLICIES,
    IPDOMPolicy,
    MinPCPolicy,
    ReconvergencePolicy,
    get_policy,
)
from .warp import SimulationError, UNDEF, Warp

__all__ = [
    "DEFAULT_CONFIG", "EXECUTORS", "MachineConfig",
    "RECONVERGENCE_POLICIES", "ReconvergencePolicy",
    "IPDOMPolicy", "MinPCPolicy", "get_policy",
    "GPU", "Buffer", "run_kernel",
    "DeviceMemory", "MemoryError_", "sizeof",
    "Metrics",
    "SimulationError", "UNDEF", "Warp",
    "FastWarp", "LoweredProgram", "PROGRAM_SCHEMA", "ProgramDecodeError",
    "clear_lowering_memo", "get_program", "invalidate_lowering",
    "lower_function",
    "latency_token_key", "lower_symbolic", "materialize_program",
    "seed_program",
]
