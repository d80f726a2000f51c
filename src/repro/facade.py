"""The public facade: :func:`compile`, :func:`launch`, :func:`meld`.

Everything an external user (or an internal client like the differential
tester, the examples and the benchmark suite) needs is reachable from
``import repro`` — no deep imports into ``repro.ir`` / ``repro.core`` /
``repro.simt`` internals required::

    import repro

    k = repro.KernelBuilder("scale", params=[("data", repro.GLOBAL_I32_PTR)])
    ...build the kernel...
    report = repro.compile(k, level="O3", cfm=True)
    result = repro.launch(k.module, grid=1, block=32, args={"data": values})

Each facade entry point accepts any "kernel-like" object — a raw
:class:`~repro.ir.Function`, a :class:`~repro.kernels.KernelBuilder`, or
a :class:`~repro.kernels.KernelCase` — and transforms the underlying IR
in place, mirroring how a real driver owns the module it compiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.analysis import DivergenceInfo, cached_divergence
from repro.compile_cache import CompileCache
from repro.core import CFMConfig, CFMPass, CFMStats
from repro.ir import Function, Module, Type, I32
from repro.kernels.common import KernelCase
from repro.kernels.dsl import KernelBuilder
from repro.pipeline import (
    CompileResult,
    KernelLike,
    as_function,
    compile_arm,
)
from repro.simt import DEFAULT_CONFIG, GPU, Buffer, MachineConfig, Metrics

#: recognized ``compile(level=...)`` values
COMPILE_LEVELS = ("none", "O3")

#: what :func:`compile` returns — the driver's one result type
CompileReport = CompileResult


def _as_module(module: Union[Module, KernelLike]) -> Module:
    if isinstance(module, Module):
        return module
    if isinstance(module, (KernelBuilder, KernelCase)):
        return module.module
    if isinstance(module, Function):
        if module.module is None:
            raise ValueError(f"function @{module.name} belongs to no module")
        return module.module
    raise TypeError(f"expected a Module or kernel-like object, got {module!r}")


def compile(kernel: KernelLike, level: str = "O3",
            cfm: Union[bool, CFMConfig] = False,
            verify: bool = True,
            cache: Optional[CompileCache] = None,
            machine: Optional[MachineConfig] = None) -> CompileReport:
    """Compile ``kernel`` in place and return a :class:`CompileReport`.

    ``level="O3"`` runs the baseline pipeline (the paper's HIPCC ``-O3``
    stand-in) to a fixpoint; ``level="none"`` leaves the IR untouched.
    ``cfm=True`` (or a :class:`CFMConfig` for tuned melding) then inserts
    the CFM pass plus the §V-A late cleanups — exactly the evaluation
    harness's ``-O3 + CFM`` arm.

    ``cache`` and ``machine`` (default: the default machine) are the
    compile driver's: see :func:`repro.pipeline.compile_arm` for what is
    keyed, replayed and pre-seeded.
    """
    if level not in COMPILE_LEVELS:
        raise ValueError(
            f"unknown level {level!r}; expected one of {COMPILE_LEVELS}")
    return compile_arm(
        kernel, (level == "O3", "cfm" if cfm else None),
        cfm if isinstance(cfm, CFMConfig) else None, cache=cache,
        machine=machine if machine is not None else DEFAULT_CONFIG,
        verify=verify)


@dataclass
class LaunchResult:
    """Outcome of one :func:`launch`: final buffer contents + counters."""

    outputs: Dict[str, List[int]]
    metrics: Metrics


def launch(module: Union[Module, KernelLike], grid: int, block: int,
           args: Mapping[str, object],
           kernel: Optional[str] = None,
           machine: Optional[MachineConfig] = None,
           element_types: Optional[Mapping[str, Type]] = None,
           gpu: Optional[GPU] = None,
           trace_label: Optional[str] = None) -> LaunchResult:
    """Launch a kernel over ``grid`` blocks of ``block`` threads.

    ``args`` maps parameter names to scalars (Python ints/floats) or
    buffer contents (any non-string sequence; copied to device memory and
    read back into :attr:`LaunchResult.outputs`).  ``kernel`` defaults to
    the module's only function.  Pass an existing :class:`GPU` (see
    ``GPU.reset``) to reuse one machine across many launches.

    ``machine`` (a :class:`MachineConfig`) is the whole machine
    description — executor, reconvergence policy, latency model.  An
    existing ``gpu`` already carries its machine, so combining ``gpu=``
    with ``machine=`` is rejected as ambiguous.

    Under ``repro.trace(...)`` the launch records per-warp divergence
    events on its own trace process, named ``trace_label`` (default
    ``launch:<kernel>``).
    """
    module = _as_module(module)
    if gpu is not None and machine is not None:
        raise ValueError(
            "launch(gpu=..., machine=...) is ambiguous: the GPU already "
            "carries its machine, which wins; construct it as "
            "GPU(module, machine) instead")
    if kernel is None:
        names = list(module.functions)
        if len(names) != 1:
            raise ValueError(
                f"module has {len(names)} kernels ({', '.join(names)}); "
                f"pass kernel=<name>")
        kernel = names[0]

    device = gpu if gpu is not None else GPU(module, machine)
    bound: Dict[str, object] = {}
    handles: Dict[str, Buffer] = {}
    for name, value in args.items():
        if isinstance(value, Buffer):
            bound[name] = value
        elif isinstance(value, (str, bytes)):
            raise TypeError(f"argument {name!r} must be a scalar or sequence")
        elif isinstance(value, Sequence):
            etype = (element_types or {}).get(name, I32)
            handles[name] = device.alloc(name, etype, list(value))
            bound[name] = handles[name]
        else:
            bound[name] = value
    metrics = device.launch(kernel, grid, block, bound,
                            trace_label=trace_label)
    outputs = {name: handle.data for name, handle in handles.items()}
    return LaunchResult(outputs=outputs, metrics=metrics)


def meld(kernel: KernelLike, config: Optional[CFMConfig] = None) -> CFMStats:
    """Run the paper's CFM pass (alone, no -O3 / late cleanups) on
    ``kernel`` in place and return its :class:`CFMStats`."""
    return CFMPass(config).run(as_function(kernel)).stats


def analyze(kernel: KernelLike) -> DivergenceInfo:
    """Divergence analysis of ``kernel`` (§II-B), memoized per function.

    The same per-function memo backs the CFM pass and the lint rules, so
    ``repro.analyze(k)`` right after ``repro.compile`` / ``repro.lint``
    reuses their fixpoint instead of re-running it (and vice versa).
    An entry is read only while the function's IR is the one it was
    computed from (``repro.ir.fingerprint``), so any edit — a pass or
    the caller's own — makes the next call recompute.
    """
    return cached_divergence(as_function(kernel))
