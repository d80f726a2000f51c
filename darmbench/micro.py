"""Seven small kernels, one per µop opcode class of the fast executor.

Each runs as built (no ``-O3``), so the executor sees exactly what the
builder wrote: a 64-trip loop whose body is dominated by one class of
µop, reading ``data`` and writing ``out``.  The loop bodies follow
``benchmarks/perf/workloads.py`` (the BENCH_PR6 micro set); they are
spelled out again here because the benchmark may depend only on the
program and on files under its own directory.  Unlike that set, no
thread reads a cell another thread writes, so device memory does not
depend on the warp schedule and one reference run checks both
reconvergence policies.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro import GLOBAL_I32_PTR, I32, ICmpPredicate, KernelBuilder
from repro.ir import F32

GRID_DIM = 2
BLOCK_DIM = 64
TRIP = 64

#: (module, kernel name)
MicroKernel = Tuple[object, str]


def buffers(seed: int) -> Dict[str, List[int]]:
    count = GRID_DIM * BLOCK_DIM
    return {"data": [((i + seed) * 7 + 3) % 251 for i in range(count)],
            "out": [0] * count}


def _kernel(name: str, emit: Callable[[KernelBuilder, object], object]
            ) -> MicroKernel:
    """``out[gtid] = emit(k, data[gtid])``; ``emit`` writes the loop."""
    k = KernelBuilder(f"micro_{name}", params=[("data", GLOBAL_I32_PTR),
                                               ("out", GLOBAL_I32_PTR)])
    gtid = k.global_thread_id()
    result = emit(k, k.load_at(k.param("data"), gtid))
    k.store_at(k.param("out"), gtid, result)
    k.finish()
    return k.module, f"micro_{name}"


def _loop(k: KernelBuilder, body: Callable[[object], None]) -> None:
    k.for_range("i", k.const(0), k.const(TRIP), body)


def _int_alu(k, first):
    x = k.var("x", first)

    def body(i):
        v = k.add(k.mul(k.get(x), k.const(3)), i)
        v = k.xor(v, k.shl(v, k.const(1)))
        v = k.sub(v, k.ashr(v, k.const(2)))
        k.set(x, k.and_(v, k.const(0xFFFF)))

    _loop(k, body)
    return k.get(x)


def _float_alu(k, first):
    f = k.var("f", k.cast("sitofp", first, F32))

    def body(i):
        v = k.fadd(k.fmul(k.get(f), k.const(0.5, F32)),
                   k.cast("sitofp", i, F32))
        k.set(f, k.fsub(v, k.fneg(k.const(1.25, F32))))

    _loop(k, body)
    return k.cast("fptosi", k.get(f), I32)


def _cmp_select(k, first):
    x = k.var("x", first)

    def body(i):
        v = k.get(x)
        low = k.icmp(ICmpPredicate.SLT, v, k.const(128))
        v = k.select(low, k.add(v, i), k.sub(v, i))
        odd = k.icmp(ICmpPredicate.NE, k.and_(v, k.const(1)), k.const(0))
        k.set(x, k.select(odd, k.mul(v, k.const(3)), v))

    _loop(k, body)
    return k.get(x)


def _global_memory(k, first):
    gtid = k.global_thread_id()
    count = k.const(GRID_DIM * BLOCK_DIM)

    def body(i):
        v = k.load_at(k.param("data"), k.srem(k.add(gtid, i), count))
        k.store_at(k.param("out"), gtid, k.add(v, i))

    _loop(k, body)
    return k.load_at(k.param("out"), gtid)


def _shared_memory(k, first):
    tile = k.shared_array("tile", I32, BLOCK_DIM)
    k.store_at(tile, k.thread_id(), first)
    k.barrier()
    acc = k.var("acc", k.const(0))

    def body(i):
        index = k.srem(k.add(k.thread_id(), i), k.block_dim())
        k.set(acc, k.add(k.get(acc), k.load_at(tile, index)))

    _loop(k, body)
    return k.get(acc)


def _branch_divergent(k, first):
    x = k.var("x", first)
    # lane parity: every warp diverges on every trip
    odd = k.icmp(ICmpPredicate.NE, k.and_(k.thread_id(), k.const(1)),
                 k.const(0))

    def body(i):
        k.if_(odd, lambda: k.set(x, k.add(k.get(x), i)),
              lambda: k.set(x, k.xor(k.get(x), i)))

    _loop(k, body)
    return k.get(x)


def _phi_loop(k, first):
    x = k.var("x", first)
    # minimal body: the back edge and its φ transfer dominate
    _loop(k, lambda i: k.set(x, k.add(k.get(x), k.const(1))))
    return k.get(x)


#: opcode class -> loop emitter, in reporting order
EMITTERS = {"int_alu": _int_alu, "float_alu": _float_alu,
            "cmp_select": _cmp_select, "global_memory": _global_memory,
            "shared_memory": _shared_memory,
            "branch_divergent": _branch_divergent, "phi_loop": _phi_loop}


def build_micro_kernels() -> Dict[str, MicroKernel]:
    return {name: _kernel(name, emit) for name, emit in EMITTERS.items()}
