"""Bottom-up merge sort (§VI-A).

Each thread block sorts its bucket in shared memory: pass ``w`` merges
runs of width ``w`` into ``2w``; thread ``t`` of the active set merges
the pair starting at ``t * 2w``.  The merge loop's take-left/take-right
decision is *data dependent*, producing the simple diamond divergence the
paper notes branch fusion could also handle — CFM melds the two sides
(shared-memory load + store + pointer bump each).

Ping-pong between two shared buffers is avoided by a copy-back step per
pass (every thread copies one element), keeping the kernel free of
extra address-selection divergence that the original doesn't have.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ir import I32, ICmpPredicate, const_bool

from .common import KernelCase, make_rng, random_ints
from .dsl import GLOBAL_I32_PTR, KernelBuilder


def build_mergesort(block_size: int = 64, grid_dim: int = 2) -> KernelCase:
    num = block_size
    k = KernelBuilder("mergesort", params=[("values", GLOBAL_I32_PTR)])
    src = k.shared_array("src", I32, num)
    dst = k.shared_array("dst", I32, num)

    tid = k.thread_id()
    gid = k.global_thread_id()
    k.store_at(src, tid, k.load_at(k.param("values"), gid))
    k.barrier()

    width = k.var("width", k.const(1))

    def pass_cond():
        return k.icmp(ICmpPredicate.SLT, width.value, k.const(num))

    def pass_body():
        w = width.value
        two_w = k.shl(w, k.const(1), "two_w")
        pairs = k.udiv(k.const(num), two_w, "pairs")
        active = k.icmp(ICmpPredicate.ULT, tid, pairs)

        def merge_pair():
            base = k.mul(tid, two_w, "base")
            i = k.var("i", k.const(0))
            j = k.var("j", k.const(0))

            def merge_cond():
                total = k.add(i.value, j.value)
                return k.icmp(ICmpPredicate.SLT, total, two_w)

            def merge_body():
                left_done = k.icmp(ICmpPredicate.SGE, i.value, w)
                right_done = k.icmp(ICmpPredicate.SGE, j.value, w)
                take_left = k.var("take_left", const_bool(False))

                def right_exhausted():
                    k.set(take_left, const_bool(True))

                def probe():
                    def left_exhausted():
                        k.set(take_left, const_bool(False))

                    def compare():
                        left_val = k.load_at(src, k.add(base, i.value))
                        right_idx = k.add(k.add(base, w), j.value)
                        right_val = k.load_at(src, right_idx)
                        k.set(take_left,
                              k.icmp(ICmpPredicate.SLE, left_val, right_val))

                    k.if_(left_done, left_exhausted, compare, name="probe")

                k.if_(right_done, right_exhausted, probe, name="exh")

                out_idx = k.add(base, k.add(i.value, j.value), "out")

                def take_from_left():
                    value = k.load_at(src, k.add(base, i.value))
                    k.store_at(dst, out_idx, value)
                    k.set(i, k.add(i.value, k.const(1)))

                def take_from_right():
                    value = k.load_at(src, k.add(k.add(base, w), j.value))
                    k.store_at(dst, out_idx, value)
                    k.set(j, k.add(j.value, k.const(1)))

                k.if_(take_left.value, take_from_left, take_from_right,
                      name="pick")

            k.while_(merge_cond, merge_body, name="merge")

        k.if_(active, merge_pair, name="active")
        k.barrier()
        k.store_at(src, tid, k.load_at(dst, tid))
        k.barrier()
        k.set(width, k.shl(width.value, k.const(1)))

    k.while_(pass_cond, pass_body, name="pass")
    k.store_at(k.param("values"), gid, k.load_at(src, tid))
    k.finish()

    n = block_size * grid_dim

    def make_buffers(seed: int) -> Dict[str, List[int]]:
        rng = make_rng(seed)
        return {"values": random_ints(rng, n, 0, 2**20)}

    def check(inputs: Dict[str, List[int]], outputs: Dict[str, List[int]]) -> None:
        for block in range(grid_dim):
            bucket_in = inputs["values"][block * num:(block + 1) * num]
            bucket_out = outputs["values"][block * num:(block + 1) * num]
            assert bucket_out == sorted(bucket_in), \
                f"mergesort: bucket {block} not sorted"

    return KernelCase(name="mergesort", module=k.module, kernel="mergesort",
                      grid_dim=grid_dim, block_dim=block_size,
                      make_buffers=make_buffers, check=check)
