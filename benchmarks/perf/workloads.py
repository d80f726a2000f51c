"""Micro benchmark kernels, one per µop opcode class.

Each workload is a small unoptimized kernel whose inner loop is
dominated by one executor code path (an ``OP_RUN`` of integer, float or
compare/select templates, ``OP_LOAD``/``OP_STORE`` in global or shared
space, divergent ``TERM_CBR``, φ transfer).  The launch shape is identical
everywhere so throughput numbers are comparable across classes.

Built through the public :class:`repro.KernelBuilder` DSL; the modules
are executed as-built (no ``-O3``), so what the executor runs is exactly
what each builder writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro import GLOBAL_I32_PTR, I32, ICmpPredicate, KernelBuilder
from repro.ir import F32

GRID_DIM = 2
BLOCK_DIM = 64
TRIP = 64  # inner-loop iterations per thread


@dataclass(frozen=True)
class MicroWorkload:
    """One compiled micro kernel plus its launch recipe."""

    name: str
    opcode_class: str
    module: object
    kernel: str
    grid_dim: int
    block_dim: int
    make_buffers: Callable[[], Dict[str, List[int]]]


def _data_buffers() -> Dict[str, List[int]]:
    n = GRID_DIM * BLOCK_DIM
    return {"data": [(i * 7 + 3) % 251 for i in range(n)]}


def _loop(k: KernelBuilder, body) -> None:
    k.for_range("i", k.const(0), k.const(TRIP), body)


def build_int_alu() -> MicroWorkload:
    k = KernelBuilder("perf_int_alu", params=[("data", GLOBAL_I32_PTR)])
    gtid = k.global_thread_id()
    x = k.var("x", k.load_at(k.param("data"), gtid))

    def body(i):
        v = k.get(x)
        v = k.add(k.mul(v, k.const(3)), i)
        v = k.xor(v, k.shl(v, k.const(1)))
        v = k.sub(v, k.ashr(v, k.const(2)))
        k.set(x, k.and_(v, k.const(0xFFFF)))

    _loop(k, body)
    k.store_at(k.param("data"), gtid, k.get(x))
    k.finish()
    return MicroWorkload("int_alu", "compute2-int", k.module, "perf_int_alu",
                         GRID_DIM, BLOCK_DIM, _data_buffers)


def build_float_alu() -> MicroWorkload:
    k = KernelBuilder("perf_float_alu", params=[("data", GLOBAL_I32_PTR)])
    gtid = k.global_thread_id()
    seed = k.load_at(k.param("data"), gtid)
    f = k.var("f", k.cast("sitofp", seed, F32))

    def body(i):
        fi = k.cast("sitofp", i, F32)
        v = k.fadd(k.fmul(k.get(f), k.const(0.5, F32)), fi)
        k.set(f, k.fsub(v, k.fneg(k.const(1.25, F32))))

    _loop(k, body)
    k.store_at(k.param("data"), gtid, k.cast("fptosi", k.get(f), I32))
    k.finish()
    return MicroWorkload("float_alu", "compute2-float", k.module,
                         "perf_float_alu", GRID_DIM, BLOCK_DIM, _data_buffers)


def build_cmp_select() -> MicroWorkload:
    k = KernelBuilder("perf_cmp_select", params=[("data", GLOBAL_I32_PTR)])
    gtid = k.global_thread_id()
    x = k.var("x", k.load_at(k.param("data"), gtid))

    def body(i):
        v = k.get(x)
        lo = k.icmp(ICmpPredicate.SLT, v, k.const(128))
        v = k.select(lo, k.add(v, i), k.sub(v, i))
        odd = k.icmp(ICmpPredicate.NE, k.and_(v, k.const(1)), k.const(0))
        k.set(x, k.select(odd, k.mul(v, k.const(3)), v))

    _loop(k, body)
    k.store_at(k.param("data"), gtid, k.get(x))
    k.finish()
    return MicroWorkload("cmp_select", "icmp+select", k.module,
                         "perf_cmp_select", GRID_DIM, BLOCK_DIM, _data_buffers)


def build_global_memory() -> MicroWorkload:
    k = KernelBuilder("perf_global_memory", params=[("data", GLOBAL_I32_PTR)])
    gtid = k.global_thread_id()
    n = k.const(GRID_DIM * BLOCK_DIM)

    def body(i):
        idx = k.srem(k.add(gtid, i), n)
        v = k.load_at(k.param("data"), idx)
        k.store_at(k.param("data"), gtid, k.add(v, k.const(1)))

    _loop(k, body)
    k.finish()
    return MicroWorkload("global_memory", "load/store-global", k.module,
                         "perf_global_memory", GRID_DIM, BLOCK_DIM,
                         _data_buffers)


def build_shared_memory() -> MicroWorkload:
    k = KernelBuilder("perf_shared_memory", params=[("data", GLOBAL_I32_PTR)])
    tile = k.shared_array("tile", I32, BLOCK_DIM)
    tid = k.thread_id()
    gtid = k.global_thread_id()
    k.store_at(tile, tid, k.load_at(k.param("data"), gtid))
    k.barrier()
    nt = k.block_dim()
    acc = k.var("acc", k.const(0))

    def body(i):
        idx = k.srem(k.add(tid, i), nt)
        k.set(acc, k.add(k.get(acc), k.load_at(tile, idx)))

    _loop(k, body)
    k.store_at(k.param("data"), gtid, k.get(acc))
    k.finish()
    return MicroWorkload("shared_memory", "load/store-shared", k.module,
                         "perf_shared_memory", GRID_DIM, BLOCK_DIM,
                         _data_buffers)


def build_branch_divergent() -> MicroWorkload:
    k = KernelBuilder("perf_branch_divergent",
                      params=[("data", GLOBAL_I32_PTR)])
    tid = k.thread_id()
    gtid = k.global_thread_id()
    x = k.var("x", k.load_at(k.param("data"), gtid))
    odd = k.icmp(ICmpPredicate.NE, k.and_(tid, k.const(1)), k.const(0))

    def body(i):
        def then_side():
            k.set(x, k.add(k.get(x), i))

        def else_side():
            k.set(x, k.xor(k.get(x), i))

        # Condition depends on the lane parity: every warp diverges on
        # every iteration, exercising the reconvergence stack + φ merge.
        k.if_(odd, then_side, else_side)

    _loop(k, body)
    k.store_at(k.param("data"), gtid, k.get(x))
    k.finish()
    return MicroWorkload("branch_divergent", "cbr-divergent+phi", k.module,
                         "perf_branch_divergent", GRID_DIM, BLOCK_DIM,
                         _data_buffers)


def build_phi_loop() -> MicroWorkload:
    k = KernelBuilder("perf_phi_loop", params=[("data", GLOBAL_I32_PTR)])
    gtid = k.global_thread_id()
    x = k.var("x", k.load_at(k.param("data"), gtid))

    # Minimal loop body: the uniform back-edge branch and its φ transfer
    # dominate, measuring TERM_CBR + φ bookkeeping throughput.
    def body(i):
        k.set(x, k.add(k.get(x), k.const(1)))

    _loop(k, body)
    k.store_at(k.param("data"), gtid, k.get(x))
    k.finish()
    return MicroWorkload("phi_loop", "loop-phi", k.module, "perf_phi_loop",
                         GRID_DIM, BLOCK_DIM, _data_buffers)


MICRO_BUILDERS: Dict[str, Callable[[], MicroWorkload]] = {
    "int_alu": build_int_alu,
    "float_alu": build_float_alu,
    "cmp_select": build_cmp_select,
    "global_memory": build_global_memory,
    "shared_memory": build_shared_memory,
    "branch_divergent": build_branch_divergent,
    "phi_loop": build_phi_loop,
}
