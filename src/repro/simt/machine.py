"""Grid/block execution and the host-side launch API.

The :class:`GPU` owns device memory and launches kernels over a grid of
thread blocks.  Each block's warps run round-robin with generator-based
barrier synchronization (``__syncthreads`` yields); non-uniform barrier
arrival — undefined behaviour on hardware — raises an error here.

The cycle model is deliberately simple and documented: total cycles are
the *sum of per-warp issue cycles*, i.e. the number of issue slots the
kernel consumes on a single-issue SIMD core.  Absolute numbers do not
match any real GPU, but ratios (the paper's speedups) track the quantity
CFM improves: issued-instruction × latency volume, which divergence
doubles and melding halves back.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.ir.function import Function, Module
from repro.ir.types import Type, I32
from repro.ir.values import Argument
from repro.obs import (
    WarpTrace,
    current_registry,
    current_tracer,
    flush_warp_trace,
    runtime_sink,
)

from .config import DEFAULT_CONFIG, MachineConfig
from .fastpath import FastEvaluator
from .lowering import get_program
from .memory import DeviceMemory, Segment
from .metrics import Metrics
from .reference import ReferenceEvaluator, ReferenceProgram
from .warp import SimulationError, Warp


class Buffer:
    """Host handle to a device global-memory allocation."""

    def __init__(self, segment: Segment) -> None:
        self._segment = segment

    @property
    def address(self) -> int:
        return self._segment.base

    @property
    def data(self) -> List:
        """Current device contents (a copy)."""
        return list(self._segment.data)

    def write(self, values: Sequence) -> None:
        if len(values) > self._segment.count:
            raise ValueError(
                f"writing {len(values)} elements into buffer of "
                f"{self._segment.count}")
        for i, value in enumerate(values):
            self._segment.data[i] = value

    def __len__(self) -> int:
        return self._segment.count


class GPU:
    """A simulated GPU bound to one module.

    A GPU can be reused across many launches (a long fuzzing run drives
    thousands through one machine): :meth:`reset` drops every host
    allocation and per-block shared window so no device-memory state
    leaks from one experiment into the next, and the context-manager
    form resets on exit::

        with GPU(module) as gpu:
            buf = gpu.alloc("data", I32, values)
            gpu.launch("kernel", grid, block, {"data": buf})
    """

    def __init__(self, module: Module,
                 machine: Optional[MachineConfig] = None) -> None:
        self.module = module
        #: the machine description
        self.machine = machine if machine is not None else DEFAULT_CONFIG
        self.memory = DeviceMemory(module)
        #: launches since construction (reset() does not clear it)
        self.launch_count = 0

    def reset(self) -> None:
        """Return the device to its just-constructed state.

        Host buffers, module globals and every block's shared window are
        reallocated from the module's declarations; outstanding
        :class:`Buffer` handles from before the reset go stale and must
        not be passed to later launches.
        """
        self.memory = DeviceMemory(self.module)

    def __enter__(self) -> "GPU":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.reset()

    def alloc(self, name: str, element_type: Type, init: Union[int, Sequence]) -> Buffer:
        """Allocate a global buffer; ``init`` is a size or initial data."""
        if isinstance(init, int):
            segment = self.memory.allocate_buffer(name, element_type, init)
        else:
            segment = self.memory.allocate_buffer(name, element_type, len(init))
            for i, value in enumerate(init):
                segment.data[i] = value
        return Buffer(segment)

    def launch(
        self,
        kernel: Union[str, Function],
        grid_dim: int,
        block_dim: int,
        args: Dict[str, object],
        trace_label: Optional[str] = None,
    ) -> Metrics:
        """Run ``kernel`` over ``grid_dim`` blocks of ``block_dim`` threads.

        ``args`` maps parameter names to Python ints/floats or
        :class:`Buffer` handles (passed as device addresses).

        Under an enabled ambient tracer (``repro.obs``) the launch claims
        its own trace pid (named ``trace_label``, defaulting to
        ``launch:<kernel>``) and records per-warp divergence events; with
        the default no-op tracer nothing is allocated.
        """
        if grid_dim < 1 or block_dim < 1:
            raise ValueError(
                f"launch geometry must be positive, got grid_dim={grid_dim} "
                f"block_dim={block_dim}")
        function = (self.module.function(kernel)
                    if isinstance(kernel, str) else kernel)
        self.launch_count += 1
        bound = self._bind_args(function, args)
        # One evaluator factory per launch; each warp binds it to its own
        # lanes.  Fast: over the lowered program (memoized across launches
        # by fingerprint + latency token, so a hit costs one fingerprint
        # walk).  Reference: over its own control-flow facts, from the IR.
        if self.machine.executor == "fast":
            bind = partial(FastEvaluator, get_program(function, self.machine),
                           self.machine, bound)
        else:
            bind = partial(ReferenceEvaluator, ReferenceProgram(function),
                           self.machine, bound)
        tracer = current_tracer()
        pid = 0
        if tracer.enabled:
            pid = tracer.next_launch_pid()
            tracer.process_name(pid, trace_label or f"launch:{function.name}")
        # Aggregate metrics (repro.obs.metrics) mirror the tracer: one
        # sink per launch when the ambient registry is enabled, None —
        # and therefore zero per-site work — otherwise.
        sink = runtime_sink(current_registry(), self.machine.reconvergence,
                            self.machine.executor, self.machine.warp_size)
        total = Metrics(warp_size=self.machine.warp_size)
        try:
            for block_id in range(grid_dim):
                block_metrics = self._run_block(function, block_id, grid_dim,
                                                block_dim, bind, tracer, pid,
                                                sink)
                total.merge(block_metrics)
        except SimulationError:
            if sink is not None:
                sink.trap()
            raise
        if sink is not None:
            sink.launch_done(total)
        return total

    def run(self, kernel: Union[str, Function], grid_dim: int,
            block_dim: int, args: Mapping[str, object],
            element_types: Optional[Mapping[str, Type]] = None,
            trace_label: Optional[str] = None) -> tuple:
        """Launch with host-side ``args``: each sequence is copied into a
        fresh buffer (``I32`` unless ``element_types`` says otherwise),
        in ``args`` order, and read back into the returned ``(outputs,
        metrics)``; scalars and :class:`Buffer` handles pass through."""
        bound: Dict[str, object] = {}
        handles: Dict[str, Buffer] = {}
        for name, value in args.items():
            if isinstance(value, (str, bytes)):
                raise TypeError(
                    f"argument {name!r} must be a scalar or sequence")
            if isinstance(value, Sequence):
                value = handles[name] = self.alloc(
                    name, (element_types or {}).get(name, I32), value)
            bound[name] = value
        metrics = self.launch(kernel, grid_dim, block_dim, bound,
                              trace_label=trace_label)
        return {name: handle.data for name, handle in handles.items()}, metrics

    def _bind_args(self, function: Function, args: Dict[str, object]) -> Dict[Argument, object]:
        bound: Dict[Argument, object] = {}
        missing = [a.name for a in function.args if a.name not in args]
        if missing:
            raise ValueError(f"missing kernel arguments: {missing}")
        for arg in function.args:
            value = args[arg.name]
            if isinstance(value, Buffer):
                if not arg.type.is_pointer:
                    raise TypeError(f"buffer passed for scalar param %{arg.name}")
                bound[arg] = value.address
            else:
                bound[arg] = value
        return bound

    def _run_block(self, function: Function, block_id: int, grid_dim: int,
                   block_dim: int, bind, tracer, pid: int, sink) -> Metrics:
        view = self.memory.shared_for_block(block_id)
        warp_size = self.machine.warp_size
        tracing = tracer.enabled
        obs = sink.block if sink is not None else None
        traces: List[WarpTrace] = []
        warps: List[Warp] = []
        for start in range(0, block_dim, warp_size):
            lanes = list(range(start, min(start + warp_size, block_dim)))
            n = len(lanes)
            trace = None
            if tracing:
                trace = WarpTrace(block_id, len(warps))
                traces.append(trace)
            # The warp's special-register bank, one row per geometry
            # intrinsic in SREG-tag order (tid, ntid, ctaid, nctaid).
            sregs = (lanes, [block_dim] * n, [block_id] * n, [grid_dim] * n)
            metrics = Metrics(warp_size=warp_size)
            warps.append(Warp(bind(sregs, view, metrics), n, self.machine,
                              metrics, trace, obs))

        generators = [warp.run() for warp in warps]
        active = list(range(len(warps)))
        while active:
            at_barrier: List[int] = []
            finished: List[int] = []
            for index in active:
                try:
                    event = next(generators[index])
                    if event != "barrier":  # pragma: no cover - future events
                        raise SimulationError(f"unknown warp event {event!r}")
                    at_barrier.append(index)
                except StopIteration:
                    finished.append(index)
            if at_barrier and finished:
                raise SimulationError(
                    f"non-uniform barrier: warps {at_barrier} wait while "
                    f"warps {finished} exited @{function.name}")
            active = at_barrier

        block_metrics = Metrics(warp_size=warp_size)
        for warp in warps:
            block_metrics.merge(warp.metrics)
            if sink is not None:
                sink.warp_done(warp.metrics)
        if tracing:
            # Deterministic thread ids: warps numbered grid-wide in
            # (block, warp) order, so identical runs emit identical tids.
            for index, trace in enumerate(traces):
                tid = block_id * len(warps) + index
                flush_warp_trace(tracer, pid, tid, trace)
        return block_metrics


def run_kernel(
    module: Module,
    kernel: Union[str, Function],
    grid_dim: int,
    block_dim: int,
    buffers: Dict[str, Sequence],
    scalars: Optional[Dict[str, object]] = None,
    element_types: Optional[Dict[str, Type]] = None,
    machine: Optional[MachineConfig] = None,
    trace_label: Optional[str] = None,
) -> tuple:
    """One-shot convenience: allocate, launch, and read back.

    ``machine`` (a :class:`MachineConfig`) is the whole machine
    description.
    Returns ``(outputs, metrics)`` where ``outputs`` maps each buffer name
    to its final contents.
    """
    return GPU(module, machine).run(kernel, grid_dim, block_dim,
                                    {**(scalars or {}), **buffers},
                                    element_types, trace_label)
