"""SIMT GPU simulator: warps, pluggable reconvergence, metrics.

This package substitutes for the paper's AMD Vega 64 + rocprof setup: it
executes kernels warp-by-warp in lockstep under a reconvergence policy
(the divergence mechanism CFM optimizes) and reports the same counter
families the paper measures.

:class:`MachineConfig` is the single machine description — warp size,
latency model, executor, reconvergence policy — accepted uniformly as
``machine=`` by every launch surface.  One warp driver (:class:`Warp`:
path scheduling, barriers, the branch protocol, tracing, the step
guard) runs every launch; ``MachineConfig.executor`` selects the *block
evaluator* it drives (see ``docs/simulator.md``) — the tree-walking
**reference** interpreter (:class:`ReferenceEvaluator`, facts from the
IR) or the lowered **fast** path (:class:`FastEvaluator` over a
:class:`LoweredProgram`).  ``MachineConfig.reconvergence`` selects the
driver's scheduling policy (:mod:`repro.simt.reconvergence`): the
classic ``"ipdom"`` stack or the stack-less ``"min-pc"`` path list.
"""

from .config import (
    DEFAULT_CONFIG,
    EXECUTORS,
    MachineConfig,
)
from .fastpath import FastEvaluator
from .lowering import (
    PROGRAM_SCHEMA,
    LoweredProgram,
    ProgramDecodeError,
    get_program,
    lower_function,
    lower_symbolic,
    materialize_program,
    seed_program,
)
from .machine import GPU, Buffer, run_kernel
from .memory import DeviceMemory, MemoryError_, sizeof
from .metrics import Metrics
from .reference import ReferenceEvaluator
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
    "FastEvaluator", "ReferenceEvaluator",
    "LoweredProgram", "PROGRAM_SCHEMA", "ProgramDecodeError",
    "get_program", "lower_function", "lower_symbolic",
    "materialize_program", "seed_program",
]
