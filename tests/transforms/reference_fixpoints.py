"""SimplifyCFG and speculation driven the way they were first written.

* :func:`simplify_cfg` merges one straight-line pair per round, then
  starts the next round over: unreachable blocks, redundant branches,
  trivial φs, and a merge scan from block 0 again.
* :func:`speculate_hammocks` rescans from block 0 after every flatten.
* :func:`post_optimize`, CFM's §IV-F cleanup loop, sweeps every block in
  every round.

All three drive the shipped rewrite primitives, so they differ from
:mod:`repro.transforms` and :mod:`repro.core.pass_` only in the order
and number of scans.  They are the oracle for the one-sweep merge, the
resuming speculation scan and the cleanup rounds that revisit only the
blocks the previous round edited, which must apply exactly the same
rewrites in the same order.
"""

from __future__ import annotations

from repro.ir.function import Function
from repro.transforms import simplifycfg as _cfg
from repro.transforms.dce import eliminate_dead_code
from repro.transforms.speculate import _speculate_once


def simplify_cfg(function: Function) -> bool:
    changed = False
    while _simplify_once(function):
        changed = True
    return changed


def _simplify_once(function: Function) -> bool:
    return (
        _cfg.remove_unreachable_blocks(function)
        or _cfg.fold_redundant_branches(function)
        or _cfg.remove_trivial_phis(function)
        or merge_first_straightline_pair(function)
        or _cfg.remove_forwarding_blocks(function)
    )


def merge_first_straightline_pair(function: Function) -> bool:
    """Merge the first mergeable ``B -> S`` in block order, and only it."""
    for block in function.blocks:
        if _cfg._merge_successor(function, block):
            return True
    return False


def speculate_hammocks(function: Function) -> bool:
    changed = False
    while _speculate_once(function.blocks) is not None:
        changed = True
    return changed


def post_optimize(function: Function) -> None:
    changed = True
    while changed:
        changed = False
        changed |= _cfg.fold_redundant_branches(function)
        changed |= _cfg.remove_trivial_phis(function)
        changed |= _cfg.remove_forwarding_blocks(function)
    eliminate_dead_code(function)
