"""Shared kernel-case plumbing for the benchmark suite.

A :class:`KernelCase` bundles everything a harness needs to run one
kernel configuration: the module, launch geometry, an input generator,
and a reference checker.  Kernel builders are *parametric in block size*
— the paper treats block size as exogenous and sweeps it (§VI-A), and
loop bounds that the real compiler would see as ``#define`` constants are
baked in so the unroller can do its job.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.ir.function import Function, Module


@dataclass
class KernelCase:
    """One runnable kernel configuration."""

    name: str
    module: Module
    kernel: str
    grid_dim: int
    block_dim: int
    #: seed -> {buffer name: initial contents}
    make_buffers: Callable[[int], Dict[str, List[int]]]
    scalars: Dict[str, int] = field(default_factory=dict)
    #: (inputs, outputs) -> None, raising AssertionError on mismatch
    check: Optional[Callable[[Dict[str, List[int]], Dict[str, List[int]]], None]] = None

    @property
    def function(self) -> Function:
        return self.module.function(self.kernel)

    def verify_outputs(self, inputs: Dict[str, List[int]],
                       outputs: Dict[str, List[int]]) -> None:
        if self.check is not None:
            self.check(inputs, outputs)


def random_ints(rng: random.Random, count: int, lo: int = 0, hi: int = 2**20) -> List[int]:
    return [rng.randrange(lo, hi) for _ in range(count)]


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)
