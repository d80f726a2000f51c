"""Synthetic benchmarks SB1, SB2, SB3 and their -R variants (§VI-A, Fig. 6).

Each kernel has two nested (constant-bound, hence fully unrollable) loops
whose inner body is a divergent if-then-else keyed on an odd-even mix of
the thread id.  The *if* side operates on arrays ``a``/``b`` staged in
shared memory, the *else* side on ``p``/``q``:

* **SB1** — diamond: the two sides are single blocks with identical
  computations (A2/A3 of Figure 6);
* **SB2** — each side contains an if-then region (B2/B3) with identical
  then-blocks;
* **SB3** — each side contains *two* sequential if-then regions
  (C2,C6 vs C3,C5), so CFM can meld multiple subgraph pairs;
* **-R variants** — same control flow, but the else-side computations are
  different instruction sequences, so instruction alignment is imperfect
  and CFM must insert selects/unpredicated gaps.

Reference semantics are mirrored in plain Python (with 32-bit wrapping)
so tests can validate outputs independently of the simulator.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.ir import I32, ICmpPredicate
from repro.ir.values import Value

from .common import KernelCase, make_rng, random_ints
from .dsl import GLOBAL_I32_PTR, KernelBuilder

#: outer × inner loop trip counts (constants, as the paper's NUM-style
#: defines; both loops fully unroll under -O3)
OUTER_TRIPS = 2
INNER_TRIPS = 2

_MASK = 0xFFFFFFFF


def _wrap32(value: int) -> int:
    value &= _MASK
    return value - (1 << 32) if value >= (1 << 31) else value


# ---- the computation bodies -------------------------------------------------
#
# Every computation exists twice: as DSL emission (building IR) and as a
# Python reference.  Keeping them adjacent makes divergence between the
# two easy to spot in review.


def _emit_compute_main(k: KernelBuilder, x: Value, y: Value, t: Value) -> Value:
    s = k.add(x, y)
    d = k.sub(x, y)
    h = k.ashr(d, k.const(1))
    m = k.xor(s, t)
    return k.add(m, h)


def _ref_compute_main(x: int, y: int, t: int) -> int:
    s = _wrap32(x + y)
    d = _wrap32(x - y)
    h = d >> 1
    m = _wrap32(s ^ t)
    return _wrap32(m + h)


def _emit_compute_alt(k: KernelBuilder, x: Value, y: Value, t: Value) -> Value:
    m = k.mul(x, k.const(3))
    s = k.shl(y, k.const(2))
    o = k.or_(m, k.const(1))
    e = k.xor(o, s)
    return k.sub(e, t)


def _ref_compute_alt(x: int, y: int, t: int) -> int:
    m = _wrap32(x * 3)
    s = _wrap32(y << 2)
    o = _wrap32(m | 1)
    e = _wrap32(o ^ s)
    return _wrap32(e - t)


def _emit_guard(k: KernelBuilder, x: Value, y: Value) -> Value:
    return k.icmp(ICmpPredicate.SGT, x, y)


# ---- kernel builder ------------------------------------------------------------


def _build_synthetic(
    name: str,
    pattern: str,
    randomized: bool,
    block_size: int,
    grid_dim: int,
) -> KernelCase:
    """Shared frame for all six synthetic kernels."""
    k = KernelBuilder(name, params=[("a", GLOBAL_I32_PTR), ("b", GLOBAL_I32_PTR),
                                    ("p", GLOBAL_I32_PTR), ("q", GLOBAL_I32_PTR)])
    sa = k.shared_array("sa", I32, block_size)
    sb = k.shared_array("sb", I32, block_size)
    sp = k.shared_array("sp", I32, block_size)
    sq = k.shared_array("sq", I32, block_size)

    tid = k.thread_id()
    gid = k.global_thread_id()
    for shared, param in ((sa, "a"), (sb, "b"), (sp, "p"), (sq, "q")):
        k.store_at(shared, tid, k.load_at(k.param(param), gid))
    k.barrier()

    # else-side computation differs only in the -R variants
    emit_else = _emit_compute_alt if randomized else _emit_compute_main

    def inner_body(t_const: int, u_const: int) -> None:
        t = k.const(t_const * INNER_TRIPS + u_const)
        mix = k.xor(tid, k.const(u_const))
        parity = k.and_(mix, k.const(1))
        cond = k.icmp(ICmpPredicate.EQ, parity, k.const(0))

        def then_side() -> None:
            _emit_side(k, sa, sb, tid, t, _emit_compute_main, pattern,
                       randomized=False)

        def else_side() -> None:
            _emit_side(k, sp, sq, tid, t, emit_else, pattern,
                       randomized=randomized)

        k.if_(cond, then_side, else_side, name=f"div{t_const}{u_const}")

    for t_const in range(OUTER_TRIPS):
        for u_const in range(INNER_TRIPS):
            inner_body(t_const, u_const)
            k.barrier()

    for shared, param in ((sa, "a"), (sb, "b"), (sp, "p"), (sq, "q")):
        k.store_at(k.param(param), gid, k.load_at(shared, tid))
    k.finish()

    n = block_size * grid_dim

    def make_buffers(seed: int) -> Dict[str, List[int]]:
        rng = make_rng(seed)
        return {name: random_ints(rng, n, 0, 2**16) for name in "abpq"}

    def check(inputs: Dict[str, List[int]], outputs: Dict[str, List[int]]) -> None:
        expected = _reference(pattern, randomized, inputs, block_size, grid_dim)
        for buf in "abpq":
            assert outputs[buf] == expected[buf], f"{name}: buffer {buf} mismatch"

    return KernelCase(name=name, module=k.module, kernel=name,
                      grid_dim=grid_dim, block_dim=block_size,
                      make_buffers=make_buffers, check=check)


def _emit_side(k: KernelBuilder, dst, aux, tid, t, emit_compute, pattern: str,
               randomized: bool) -> None:
    """One side of the divergent branch, shaped per Figure 6.

    The -R else sides also perform an extra shared-memory load, so their
    memory instruction sequences (not just their ALU sequences) fail to
    align perfectly — this reproduces Figure 10's smaller LDS reduction
    for the -R variants.
    """
    def compute(lhs: Value, rhs: Value) -> Value:
        result = emit_compute(k, lhs, rhs, t)
        if randomized:
            extra = k.load_at(aux, tid)
            result = k.xor(result, extra)
        return result

    x = k.load_at(dst, tid)
    y = k.load_at(aux, tid)
    if pattern == "SB1":
        k.store_at(dst, tid, compute(x, y))
        return
    if pattern == "SB2":
        def guarded() -> None:
            k.store_at(dst, tid, compute(x, y))
        k.if_(_emit_guard(k, x, y), guarded, name="g")
        return
    if pattern == "SB3":
        def first() -> None:
            k.store_at(dst, tid, compute(x, y))
        k.if_(_emit_guard(k, x, y), first, name="g1")
        x2 = k.load_at(dst, tid)
        def second() -> None:
            k.store_at(dst, tid, compute(y, x2))
        k.if_(_emit_guard(k, y, x2), second, name="g2")
        return
    raise ValueError(f"unknown pattern {pattern}")


# ---- Python reference ---------------------------------------------------------


def _reference(pattern: str, randomized: bool, inputs: Dict[str, List[int]],
               block_size: int, grid_dim: int) -> Dict[str, List[int]]:
    state = {name: list(values) for name, values in inputs.items()}
    ref_else = _ref_compute_alt if randomized else _ref_compute_main

    def side(dst: List[int], aux: List[int], idx: int, t: int, compute,
             extra_load: bool) -> None:
        def apply(lhs: int, rhs: int) -> int:
            result = compute(lhs, rhs, t)
            if extra_load:
                result = _wrap32(result ^ aux[idx])
            return result

        if pattern == "SB1":
            dst[idx] = apply(dst[idx], aux[idx])
        elif pattern == "SB2":
            if dst[idx] > aux[idx]:
                dst[idx] = apply(dst[idx], aux[idx])
        elif pattern == "SB3":
            x, y = dst[idx], aux[idx]
            if x > y:
                dst[idx] = apply(x, y)
            x2 = dst[idx]
            if y > x2:
                dst[idx] = apply(y, x2)

    for block in range(grid_dim):
        base = block * block_size
        for t_const in range(OUTER_TRIPS):
            for u_const in range(INNER_TRIPS):
                t = t_const * INNER_TRIPS + u_const
                for tid in range(block_size):
                    idx = base + tid
                    if ((tid ^ u_const) & 1) == 0:
                        side(state["a"], state["b"], idx, t,
                             _ref_compute_main, extra_load=False)
                    else:
                        side(state["p"], state["q"], idx, t,
                             ref_else, extra_load=randomized)
    return state


# ---- public constructors -------------------------------------------------------


def build_sb1(block_size: int = 64, grid_dim: int = 2) -> KernelCase:
    return _build_synthetic("sb1", "SB1", False, block_size, grid_dim)


def build_sb1_r(block_size: int = 64, grid_dim: int = 2) -> KernelCase:
    return _build_synthetic("sb1_r", "SB1", True, block_size, grid_dim)


def build_sb2(block_size: int = 64, grid_dim: int = 2) -> KernelCase:
    return _build_synthetic("sb2", "SB2", False, block_size, grid_dim)


def build_sb2_r(block_size: int = 64, grid_dim: int = 2) -> KernelCase:
    return _build_synthetic("sb2_r", "SB2", True, block_size, grid_dim)


def build_sb3(block_size: int = 64, grid_dim: int = 2) -> KernelCase:
    return _build_synthetic("sb3", "SB3", False, block_size, grid_dim)


def build_sb3_r(block_size: int = 64, grid_dim: int = 2) -> KernelCase:
    return _build_synthetic("sb3_r", "SB3", True, block_size, grid_dim)


SYNTHETIC_BUILDERS: Dict[str, Callable[..., KernelCase]] = {
    "SB1": build_sb1,
    "SB1-R": build_sb1_r,
    "SB2": build_sb2,
    "SB2-R": build_sb2_r,
    "SB3": build_sb3,
    "SB3-R": build_sb3_r,
}
