"""Property-based fuzzing of the CFM pass on randomly generated kernels.

Hypothesis generates kernels with random control-flow shapes (diamonds,
nested if-then regions, sequences of regions) filled with random
instruction mixes over shared and global memory, then checks that
`-O3 + CFM + late passes` computes exactly what the unoptimized kernel
computes, on random inputs.  This explores corners no hand-written
benchmark hits: partially-aligned sides, empty arms' neighbours,
region/single-block mixes, divergence under multiple conditions.
"""

from typing import Callable, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CFMConfig, run_cfm
from repro.ir import I32, ICmpPredicate, verify_function
from repro.kernels.dsl import GLOBAL_I32_PTR, KernelBuilder
from repro.simt import run_kernel
from repro.transforms import (
    eliminate_dead_code,
    optimize,
    simplify_cfg,
    speculate_hammocks,
)

BLOCK = 16

#: small, closed set of operations the generated bodies draw from;
#: each entry: (name, emit(k, x, y) -> Value)
_OPS = [
    ("add", lambda k, x, y: k.add(x, y)),
    ("sub", lambda k, x, y: k.sub(x, y)),
    ("mul", lambda k, x, y: k.mul(x, y)),
    ("xor", lambda k, x, y: k.xor(x, y)),
    ("and", lambda k, x, y: k.and_(x, y)),
    ("or", lambda k, x, y: k.or_(x, y)),
    ("shl1", lambda k, x, y: k.shl(x, k.const(1))),
    ("ashr1", lambda k, x, y: k.ashr(x, k.const(2))),
    ("min", lambda k, x, y: k.smin(x, y)),
    ("max", lambda k, x, y: k.smax(x, y)),
]


@st.composite
def side_specs(draw):
    """One side of a divergent branch: a list of (op indices, guard?)."""
    n_segments = draw(st.integers(1, 2))
    segments = []
    for _ in range(n_segments):
        ops = draw(st.lists(st.integers(0, len(_OPS) - 1), min_size=1,
                            max_size=4))
        guarded = draw(st.booleans())
        threshold = draw(st.integers(-50, 50))
        segments.append((ops, guarded, threshold))
    return segments


@st.composite
def kernel_specs(draw):
    true_side = draw(side_specs())
    false_side = draw(side_specs())
    cond_kind = draw(st.sampled_from(["parity", "half", "stripe"]))
    false_uses_own_array = draw(st.booleans())
    return (true_side, false_side, cond_kind, false_uses_own_array)


def _emit_side(k: KernelBuilder, segments, array, tid) -> None:
    for ops, guarded, threshold in segments:
        value = k.load_at(array, tid)

        def body(value=value, ops=ops):
            acc = value
            for op_index in ops:
                _, emit = _OPS[op_index]
                acc = emit(k, acc, k.const(7 + op_index))
            k.store_at(array, tid, acc)

        if guarded:
            guard = k.icmp(ICmpPredicate.SGT, value, k.const(threshold))
            k.if_(guard, body, name="g")
        else:
            body()


def build_fuzz_kernel(spec) -> KernelBuilder:
    true_side, false_side, cond_kind, false_uses_own = spec
    k = KernelBuilder("fuzz", params=[("a", GLOBAL_I32_PTR),
                                      ("b", GLOBAL_I32_PTR)])
    tid = k.thread_id()
    if cond_kind == "parity":
        cond = k.icmp(ICmpPredicate.EQ, k.and_(tid, k.const(1)), k.const(0))
    elif cond_kind == "half":
        cond = k.icmp(ICmpPredicate.SLT, tid, k.const(BLOCK // 2))
    else:
        cond = k.icmp(ICmpPredicate.EQ, k.and_(tid, k.const(2)), k.const(0))

    a, b = k.param("a"), k.param("b")
    false_array = b if false_uses_own else a

    # When both sides touch the same array the branch partitions the
    # threads, so per-thread slots still have a single writer.
    k.if_(cond,
          lambda: _emit_side(k, true_side, a, tid),
          lambda: _emit_side(k, false_side, false_array, tid),
          name="fuzz")
    k.finish()
    return k


def run_fuzz(spec, seed: int, config=None) -> None:
    rng_values = [(seed * 2654435761 + i * 40503) % 199 - 99
                  for i in range(2 * BLOCK)]
    buffers = {"a": rng_values[:BLOCK], "b": rng_values[BLOCK:]}

    reference = build_fuzz_kernel(spec)
    out_ref, _ = run_kernel(reference.module, "fuzz", 1, BLOCK,
                            buffers={k: list(v) for k, v in buffers.items()})

    melded = build_fuzz_kernel(spec)
    optimize(melded.function)
    run_cfm(melded.function, config)
    simplify_cfg(melded.function)
    speculate_hammocks(melded.function)
    simplify_cfg(melded.function)
    eliminate_dead_code(melded.function)
    verify_function(melded.function)
    out_melded, _ = run_kernel(melded.module, "fuzz", 1, BLOCK,
                               buffers={k: list(v) for k, v in buffers.items()})
    assert out_ref == out_melded, f"CFM miscompiled fuzz kernel {spec!r}"


@given(spec=kernel_specs(), seed=st.integers(0, 2**20))
@settings(max_examples=60, deadline=None)
def test_cfm_fuzzed_kernels(spec, seed):
    run_fuzz(spec, seed)


@given(spec=kernel_specs(), seed=st.integers(0, 2**20))
@settings(max_examples=25, deadline=None)
def test_cfm_fuzzed_kernels_no_pure_unpredication(spec, seed):
    run_fuzz(spec, seed, CFMConfig(split_pure_runs=False))


@given(spec=kernel_specs(), seed=st.integers(0, 2**20))
@settings(max_examples=25, deadline=None)
def test_cfm_fuzzed_kernels_zero_threshold(spec, seed):
    # Meld *everything* meldable, however unprofitable: stress codegen.
    run_fuzz(spec, seed, CFMConfig(profitability_threshold=0.0))
