"""Deliberate compiler bugs, injectable on demand.

Mutation testing for the differential harness itself: each entry here is
a *named, reversible* sabotage of one transform, applied as a context
manager.  Running the fuzzer under an injected bug must surface failures
— if it doesn't, the oracle has a blind spot.  The test suite asserts
both that each bug is caught and that the shrinker reduces the witness
to a small repro.

The bugs are semantic classics for this codebase:

``swap-select``
    The melder's value blending (§IV-B/Fig. 4) builds
    ``select cond, a, b`` to choose between the true-path and false-path
    values of a meld.  The bug swaps the arms, so every divergent-value
    merge picks the *other* path's value — a silent miscompile that only
    a differential run notices (the IR stays perfectly well-formed).

``drop-undef-phi``
    The melder's PreProcess construction (Fig. 4 of the paper) gives
    every entry φ an ``undef`` incoming value for edges arriving from
    the *other* melded path.  The bug drops that step, leaving entry φs
    whose incoming blocks no longer cover all predecessors — malformed
    IR, caught by ``verify_function`` via the oracle's per-pass
    verifier hook (a *verifier-class* failure attributed to
    the guilty pass, rather than an output mismatch).

``meld-swap-operand-under-mask``
    After the melder reconciles a divergent operand pair into
    ``select C, vT, vF``, the bug overwrites the false arm with the true
    arm (``select C, vT, vT``).  Whenever the launch geometry makes the
    divergence condition true for every *executing* lane, the false arm
    is dynamically dead: outputs stay bit-identical across all five
    run-and-diff arms, the IR is well-formed, and no lint rule fires.
    Only the symbolic translation validator — which proves the meld
    under **both** mask cases, including the never-executed ``C=false``
    one — reports the region ``INEQUIVALENT`` (a *validate-class*
    failure, the static oracle's blind-spot test).

``drop-barrier``
    DCE treats one barrier call as dead and deletes it.  The IR stays
    well-formed (the verifier is blind), and with one warp per block
    the simulator is blind too — barrier semantics are vacuous inside a
    warp, so every arm still produces bit-identical outputs.  Only the
    *differential-lint* oracle sees it: deleting the barrier between
    the generator's ``shared_stage`` store and its permuted load opens
    a divergent shared-memory race, a new ``shared-memory-race`` ERROR
    the pre-pass IR did not carry, attributed to the DCE pass (a
    *lint-class* failure).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, Iterator

import repro.core.melder as _melder
import repro.transforms as _transforms
from repro.ir.instructions import Call, Select


def _swapped_select(condition, true_value, false_value, name=""):
    return Select(condition, false_value, true_value, name)


@contextlib.contextmanager
def _inject_swap_select() -> Iterator[None]:
    original = _melder.Select
    _melder.Select = _swapped_select
    try:
        yield
    finally:
        _melder.Select = original


@contextlib.contextmanager
def _inject_meld_swap_operand_under_mask() -> Iterator[None]:
    original = _melder.Melder._reconcile

    def buggy(self, melded, value_t, value_f):
        value = original(self, melded, value_t, value_f)
        if isinstance(value, Select):
            # select C, vT, vF  ->  select C, vT, vT: invisible wherever
            # the mask's false case never executes at runtime.
            value.set_operand(2, value.operand(1))
        return value

    _melder.Melder._reconcile = buggy
    try:
        yield
    finally:
        _melder.Melder._reconcile = original


class _WithoutExternalPreds:
    """Proxy for a SESESubgraph that hides its external predecessors."""

    def __init__(self, subgraph):
        self._subgraph = subgraph

    def __getattr__(self, attr):
        return getattr(self._subgraph, attr)

    @property
    def external_preds(self):
        return ()


@contextlib.contextmanager
def _inject_drop_undef_phi() -> Iterator[None]:
    original = _melder.Melder._wire_phi

    def buggy(self, clone, phi, own, other):
        return original(self, clone, phi, own, _WithoutExternalPreds(other))

    _melder.Melder._wire_phi = buggy
    try:
        yield
    finally:
        _melder.Melder._wire_phi = original


def _dce_dropping_barrier(function) -> bool:
    changed = _original_dce(function)
    for block in function.blocks:
        for instr in block.instructions:
            if isinstance(instr, Call) and instr.is_barrier:
                instr.erase_from_parent()
                return True
    return changed


_original_dce = _transforms.eliminate_dead_code


@contextlib.contextmanager
def _inject_drop_barrier() -> Iterator[None]:
    # Pipelines bind the "dce" / "late-dce" steps from the
    # ``repro.transforms`` namespace when they are *built*, and the
    # difftest oracle builds fresh pipelines per arm — patching the
    # package attribute is the right seam.
    _transforms.eliminate_dead_code = _dce_dropping_barrier
    try:
        yield
    finally:
        _transforms.eliminate_dead_code = _original_dce


#: name -> context manager factory; ``with BUGS[name]():`` activates it
BUGS: Dict[str, Callable[[], "contextlib.AbstractContextManager[None]"]] = {
    "swap-select": _inject_swap_select,
    "meld-swap-operand-under-mask": _inject_meld_swap_operand_under_mask,
    "drop-undef-phi": _inject_drop_undef_phi,
    "drop-barrier": _inject_drop_barrier,
}


def inject(name: str) -> "contextlib.AbstractContextManager[None]":
    """Context manager that activates the named bug while entered."""
    try:
        return BUGS[name]()
    except KeyError:
        raise ValueError(
            f"unknown bug {name!r} (available: {sorted(BUGS)})") from None
