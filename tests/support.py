"""Shared helpers for the test suite: compact CFG construction, and
sweep tasks run through the scheduler the way ``run_sweep`` runs them."""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.ir import (
    AddressSpace,
    Function,
    I32,
    IRBuilder,
    ICmpPredicate,
    Module,
    pointer,
)
from repro.ir.parser import parse_function, parse_module


def parse(text: str):
    """Parse a single-function module and return the function."""
    return parse_function(text)


def build_diamond(identical: bool = True) -> Function:
    """A divergent diamond: ``entry -> (then|else) -> merge``.

    With ``identical=True`` the two arms perform the same computation on
    different operands (the melding-friendly shape); otherwise the arms
    differ structurally.
    """
    f = Function(
        "diamond",
        [pointer(I32, AddressSpace.GLOBAL), pointer(I32, AddressSpace.GLOBAL)],
        ["a", "b"],
    )
    entry = f.add_block("entry")
    then = f.add_block("then")
    els = f.add_block("else")
    merge = f.add_block("merge")

    b = IRBuilder(entry)
    tid = b.thread_id()
    two = b.const(2)
    rem = b.urem(tid, two, "rem")
    cond = b.icmp(ICmpPredicate.EQ, rem, b.const(0), "cond")
    b.cond_br(cond, then, els)

    b.position_at_end(then)
    pa = b.gep(f.args[0], tid, "pa")
    va = b.load(pa, "va")
    ra = b.add(va, b.const(1), "ra")
    b.store(ra, pa)
    b.br(merge)

    b.position_at_end(els)
    pb = b.gep(f.args[1], tid, "pb")
    vb = b.load(pb, "vb")
    if identical:
        rb = b.add(vb, b.const(1), "rb")
    else:
        rb = b.mul(vb, b.const(3), "rb")
        rb = b.xor(rb, b.const(7), "rb2")
    b.store(rb, pb)
    b.br(merge)

    b.position_at_end(merge)
    b.ret()
    return f


def straightline_function(n_blocks: int = 3) -> Function:
    """``entry -> b1 -> ... -> ret`` with a trivial add in each block."""
    f = Function("straight", [I32], ["x"])
    blocks = [f.add_block(f"b{i}") for i in range(n_blocks)]
    b = IRBuilder(blocks[0])
    value = f.args[0]
    for i, block in enumerate(blocks):
        b.position_at_end(block)
        value = b.add(value, b.const(i + 1))
        if i + 1 < n_blocks:
            b.br(blocks[i + 1])
        else:
            b.ret()
    return f


def edges_of(function: Function) -> List[Tuple[str, str]]:
    """All CFG edges as (pred name, succ name) pairs."""
    result = []
    for block in function.blocks:
        for succ in block.succs:
            result.append((block.name, succ.name))
    return result


def run_sweep_tasks(tasks, workers: int = 1, timeout: Optional[float] = None,
                    retries: Optional[int] = None):
    """Run arbitrary :class:`~repro.evaluation.SweepTask` lists the way
    :func:`~repro.evaluation.run_sweep` runs its own: one scheduler batch
    (inline for ``workers <= 1``), metrics deltas iff an ambient
    registry is installed, then :func:`~repro.evaluation.fold_sweep_metrics`.
    Returns the position-ordered ``TaskOutcome`` list."""
    from repro.evaluation import fold_sweep_metrics, run_task
    from repro.obs import current_registry
    from repro.scheduler import DEFAULT_RETRIES, Scheduler, Task

    collect = current_registry() is not None
    start = time.perf_counter()
    with Scheduler(workers=workers if workers > 1 else 0, timeout=timeout,
                   retries=DEFAULT_RETRIES if retries is None else retries
                   ) as scheduler:
        outcomes = scheduler.run(
            [Task(run_task, task, metrics=collect) for task in tasks])
    fold_sweep_metrics(outcomes, time.perf_counter() - start, scheduler)
    return outcomes
