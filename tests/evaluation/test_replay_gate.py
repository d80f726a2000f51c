"""A reducer arm compiles the same on a cache-replayed ``-O3`` module as
on the live one.

``CompileCache`` hands a hit back as a module parsed from the stored
text, so every arm that runs after a cached ``-O3`` stage (the CFM arm of
every Fig. 7/8 comparison) melds IR the parser built, not IR the passes
built.  Literals are interned, so the parser's constants and ``undef``s
are the very objects the passes would have used; this gate pins that
over generated kernels: for each reducer arm, the decision log, the
instruction count, and the simulated cycles and outputs must be equal
whether the reducer ran on the live ``-O3`` result or on a replayed one.
"""

from __future__ import annotations

import pytest

import repro
from repro.compile_cache import CompileCache
from repro.difftest.generator import build_kernel, generate_spec, make_inputs
from repro.pipeline import ARM_STAGES, compile_arm

SEEDS = range(50)
REDUCER_ARMS = ("o3-cfm", "o3-tail", "o3-bf")
INPUT_SEEDS = (0, 1)


def _observe(spec, kernel, result):
    """What a compile shows: decisions, size, cycles and outputs."""
    decisions = ([d.as_dict() for d in result.cfm_stats.decisions]
                 if result.cfm_stats is not None else None)
    size = sum(1 for _ in kernel.function.instructions())
    runs = [repro.launch(kernel.module, spec.grid_dim, spec.block_dim,
                         make_inputs(spec, seed)) for seed in INPUT_SEEDS]
    return (decisions, size, [run.metrics.cycles for run in runs],
            [run.outputs for run in runs])


def _live(spec, arm):
    kernel = build_kernel(spec)
    return _observe(spec, kernel, compile_arm(kernel, arm))


def _replayed(spec, arm, cache):
    """``arm``'s reducer stage run on the cached ``-O3`` module, as
    ``compile_arm`` runs the CFM arm after a ``"o3"`` hit."""
    kernel = build_kernel(spec)
    assert compile_arm(kernel, "o3", cache=cache).o3_cached
    reducer = ARM_STAGES[arm][1]
    return _observe(spec, kernel, compile_arm(kernel, (False, reducer)))


@pytest.mark.parametrize("seed", SEEDS)
def test_reducers_compile_alike_on_replayed_o3(seed):
    spec = generate_spec(seed)
    cache = CompileCache()
    compile_arm(build_kernel(spec), "o3", cache=cache)  # stores the entry
    for arm in REDUCER_ARMS:
        assert _replayed(spec, arm, cache) == _live(spec, arm), arm
