"""``sim_hot``: launches only.  Everything is built, compiled and lowered
in set-up; an iteration launches the seven opcode-class kernels and both
arms of every Fig. 7 synthetic kernel on the fast executor, under both
reconvergence policies.  It isolates the lane loop and the policies and
bypasses every compile layer, so a compile-side optimisation predicts no
change here and a lane-loop optimisation shows here first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.evaluation.experiments import (
    DEFAULT_GRID_DIM,
    SYNTHETIC_BLOCK_SIZES,
)
from repro.evaluation.runner import compile_baseline, compile_cfm
from repro.kernels import SYNTHETIC_BUILDERS
from repro.kernels.common import KernelCase
from repro.simt import MachineConfig, get_program, run_kernel

from . import micro
from .harness import (
    Cases,
    Iteration,
    Tracer,
    Workload,
    instruction_count,
    simulation_layers,
    span,
    unit_estimates,
)

POLICIES = ("ipdom", "min-pc")
MACHINES = {policy: MachineConfig(reconvergence=policy)
            for policy in POLICIES}
REFERENCE = MachineConfig(executor="reference")


@dataclass
class Launch:
    """One compiled kernel and its launch recipe."""

    label: str
    #: "o3" / "cfm", or "" for an opcode-class kernel run as built
    arm: str
    module: object
    kernel: str
    grid_dim: int
    block_dim: int
    inputs: Dict[str, List[int]]
    scalars: Dict[str, int]
    #: the kernel case (hand-written output check), synthetic kernels only
    case: Optional[KernelCase] = None

    def run(self, machine: MachineConfig):
        return run_kernel(
            self.module, self.kernel, self.grid_dim, self.block_dim,
            buffers={name: list(data) for name, data in self.inputs.items()},
            scalars=self.scalars, machine=machine)


class SimHot(Workload):
    name = "sim_hot"
    golden_key = "sim_hot"

    def __init__(self, seed, work_dir) -> None:
        super().__init__(seed, work_dir)
        self.launches: List[Launch] = []
        self.static: Cases = {}
        #: (label, arm) -> reference-executor outputs, set by verify()
        self.reference: Dict[Tuple[str, str], Dict[str, List[int]]] = {}

    def setup(self) -> None:
        self.launches = [
            Launch(name, "", module, kernel, micro.GRID_DIM, micro.BLOCK_DIM,
                   micro.buffers(self.seed), {})
            for name, (module, kernel) in micro.build_micro_kernels().items()]
        self.static = {}
        for name, builder in SYNTHETIC_BUILDERS.items():
            for size in SYNTHETIC_BLOCK_SIZES:
                label = f"{name}-{size}"
                facts = self.static[label] = {}
                for arm, compile_arm in (("o3", compile_baseline),
                                         ("cfm", compile_cfm)):
                    case = builder(block_size=size, grid_dim=DEFAULT_GRID_DIM)
                    compiled = compile_arm(case)
                    facts[f"{arm}_instrs"] = instruction_count(case.function)
                    if arm == "cfm":
                        facts["melds"] = len(compiled.cfm_stats.melds)
                    self.launches.append(Launch(
                        label, arm, case.module, case.kernel, case.grid_dim,
                        case.block_dim, case.make_buffers(self.seed),
                        case.scalars, case))
        for launch in self.launches:
            for machine in MACHINES.values():
                get_program(launch.module.function(launch.kernel), machine)

    # ---- one iteration ----------------------------------------------------

    def iteration(self, tracer: Optional[Tracer] = None) -> Iteration:
        iteration = Iteration(cases={label: dict(facts) for label, facts
                                     in self.static.items()})
        pooled = []
        for policy, machine in MACHINES.items():
            for launch in self.launches:
                key = f"{launch.label}:{launch.arm}@{policy}"
                iteration.attempted += 1
                start = time.perf_counter()
                try:
                    with span(tracer, "simt.launch", "simt", case=key):
                        outputs, metrics = launch.run(machine)
                except Exception as exc:  # a failed launch must not stop the run
                    iteration.failures.append(
                        f"{key}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    iteration.units.append((key, time.perf_counter() - start))
                pooled.append(metrics)
                prefix = f"{launch.arm}_" if launch.arm else ""
                iteration.cases.setdefault(
                    f"{launch.label}@{policy}", {}).update({
                        f"{prefix}cycles": metrics.cycles,
                        f"{prefix}issued": metrics.instructions_issued})
                expected = self.reference.get((launch.label, launch.arm))
                if expected is not None and outputs != expected:
                    iteration.failures.append(
                        f"{key}: device memory differs from the reference "
                        f"executor's")
        iteration.layers = simulation_layers(pooled)
        return iteration

    # ---- checks -------------------------------------------------------------

    def verify(self, first: Iteration) -> Tuple[Cases, int, List[str]]:
        """Device memory of every launch must equal the reference
        executor's (computed here, once) under both policies — later
        iterations compare against it as they go — and every synthetic
        kernel must pass its hand-written output check."""
        failures: List[str] = []
        for launch in self.launches:
            outputs, _ = launch.run(REFERENCE)
            self.reference[(launch.label, launch.arm)] = outputs
            if launch.case is not None:
                try:
                    launch.case.verify_outputs(launch.inputs, outputs)
                except AssertionError as exc:
                    failures.append(f"{launch.label}:{launch.arm}: {exc}")
        checked = self.iteration()
        return (first.cases, len(self.launches) + checked.attempted,
                failures + checked.failures)

    # ---- results ------------------------------------------------------------

    def layer_counts(self, cases: Cases,
                     iterations: List[Iteration]) -> Dict[str, float]:
        seconds = unit_estimates(iterations)
        layers = {"kernels.cases": float(len(self.launches))}
        for policy in POLICIES:
            layers[f"simt.{policy}.launch_s"] = sum(
                value for key, value in seconds.items()
                if key.endswith(f"@{policy}"))
        for name in micro.EMITTERS:
            issued = sum(cases[f"{name}@{policy}"]["issued"]
                         for policy in POLICIES)
            spent = sum(seconds[f"{name}:@{policy}"] for policy in POLICIES)
            layers[f"simt.{name}.kinstr_per_s"] = issued / spent / 1e3
        return layers
