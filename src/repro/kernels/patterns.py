"""The three control-flow/instruction patterns of Table I.

Table I compares what each technique can meld:

| pattern                                   | tail merging | branch fusion | CFM |
|-------------------------------------------|:---:|:---:|:---:|
| diamond, identical instruction sequences  |  ✓  |  ✓  |  ✓  |
| diamond, distinct instruction sequences   |  ✗  |  ✓  |  ✓  |
| complex control flow                      |  ✗  |  ✗  |  ✓  |

Each builder returns a kernel whose only tid-dependent divergence is the
pattern itself, so "technique succeeded" is observable as the divergent
branch disappearing (or strictly decreasing, for the complex pattern).
"""

from __future__ import annotations

from typing import Dict, List

from repro.ir import ICmpPredicate

from .common import KernelCase, make_rng, random_ints
from .dsl import GLOBAL_I32_PTR, KernelBuilder


def build_diamond_identical(block_size: int = 32, grid_dim: int = 1) -> KernelCase:
    """Both sides execute the *same instructions on the same operands* —
    the only case classic tail merging handles."""
    k = KernelBuilder("diamond_identical", params=[("data", GLOBAL_I32_PTR)])
    tid = k.thread_id()
    gid = k.global_thread_id()
    parity = k.and_(tid, k.const(1))
    cond = k.icmp(ICmpPredicate.EQ, parity, k.const(0))

    def side():
        value = k.load_at(k.param("data"), gid)
        bumped = k.add(value, k.const(7))
        scaled = k.mul(bumped, k.const(3))
        k.store_at(k.param("data"), gid, scaled)

    k.if_(cond, side, side, name="diamond")
    k.finish()

    n = block_size * grid_dim

    def make_buffers(seed: int) -> Dict[str, List[int]]:
        return {"data": random_ints(make_rng(seed), n, 0, 2**10)}

    def check(inputs, outputs):
        for i, value in enumerate(inputs["data"]):
            assert outputs["data"][i] == (value + 7) * 3

    return KernelCase("diamond_identical", k.module, "diamond_identical",
                      grid_dim, block_size, make_buffers, check=check)


def build_diamond_distinct(block_size: int = 32, grid_dim: int = 1) -> KernelCase:
    """Same diamond shape, side-specific operands and opcodes — beyond
    tail merging, within branch fusion's (and CFM's) reach."""
    k = KernelBuilder("diamond_distinct", params=[("a", GLOBAL_I32_PTR),
                                                  ("b", GLOBAL_I32_PTR)])
    tid = k.thread_id()
    gid = k.global_thread_id()
    parity = k.and_(tid, k.const(1))
    cond = k.icmp(ICmpPredicate.EQ, parity, k.const(0))

    def then_side():
        value = k.load_at(k.param("a"), gid)
        result = k.mul(k.add(value, k.const(5)), k.const(3))
        k.store_at(k.param("a"), gid, result)

    def else_side():
        value = k.load_at(k.param("b"), gid)
        result = k.mul(k.sub(value, k.const(2)), k.const(9))
        k.store_at(k.param("b"), gid, result)

    k.if_(cond, then_side, else_side, name="diamond")
    k.finish()

    n = block_size * grid_dim

    def make_buffers(seed: int) -> Dict[str, List[int]]:
        rng = make_rng(seed)
        return {"a": random_ints(rng, n, 0, 2**10),
                "b": random_ints(rng, n, 0, 2**10)}

    def check(inputs, outputs):
        for i in range(n):
            tid = i % block_size
            if tid % 2 == 0:
                assert outputs["a"][i] == (inputs["a"][i] + 5) * 3
                assert outputs["b"][i] == inputs["b"][i]
            else:
                assert outputs["b"][i] == (inputs["b"][i] - 2) * 9
                assert outputs["a"][i] == inputs["a"][i]

    return KernelCase("diamond_distinct", k.module, "diamond_distinct",
                      grid_dim, block_size, make_buffers, check=check)


def build_complex_pattern(block_size: int = 32, grid_dim: int = 1) -> KernelCase:
    """Each side of the divergent branch is a sequence of two if-then
    regions (the SB3 shape of Figure 6) — only CFM melds this."""
    k = KernelBuilder("complex_cf", params=[("a", GLOBAL_I32_PTR),
                                            ("b", GLOBAL_I32_PTR)])
    tid = k.thread_id()
    gid = k.global_thread_id()
    parity = k.and_(tid, k.const(1))
    cond = k.icmp(ICmpPredicate.EQ, parity, k.const(0))

    def make_side(param: str):
        def side():
            value = k.load_at(k.param(param), gid)
            big = k.icmp(ICmpPredicate.SGT, value, k.const(512))

            def clip_high():
                k.store_at(k.param(param), gid, k.sub(value, k.const(512)))

            k.if_(big, clip_high, name="hi")
            value2 = k.load_at(k.param(param), gid)
            small = k.icmp(ICmpPredicate.SLT, value2, k.const(64))

            def boost_low():
                k.store_at(k.param(param), gid, k.add(value2, k.const(64)))

            k.if_(small, boost_low, name="lo")

        return side

    k.if_(cond, make_side("a"), make_side("b"), name="complex")
    k.finish()

    n = block_size * grid_dim

    def make_buffers(seed: int) -> Dict[str, List[int]]:
        rng = make_rng(seed)
        return {"a": random_ints(rng, n, 0, 2**10),
                "b": random_ints(rng, n, 0, 2**10)}

    def reference(value: int) -> int:
        if value > 512:
            value -= 512
        if value < 64:
            value += 64
        return value

    def check(inputs, outputs):
        for i in range(n):
            tid = i % block_size
            if tid % 2 == 0:
                assert outputs["a"][i] == reference(inputs["a"][i])
                assert outputs["b"][i] == inputs["b"][i]
            else:
                assert outputs["b"][i] == reference(inputs["b"][i])
                assert outputs["a"][i] == inputs["a"][i]

    return KernelCase("complex_cf", k.module, "complex_cf",
                      grid_dim, block_size, make_buffers, check=check)


PATTERN_BUILDERS = {
    "diamond-identical": build_diamond_identical,
    "diamond-distinct": build_diamond_distinct,
    "complex": build_complex_pattern,
}
