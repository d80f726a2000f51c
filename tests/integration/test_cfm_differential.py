"""Differential correctness of the full pipeline: for every kernel, any
block size and any random input, `-O3 + CFM + late passes` must compute
exactly what `-O3` computes.

These are the highest-value tests in the repository: they exercise the
entire stack (DSL → IR → analyses → unroller → melder → unpredication →
cleanups → SIMT simulator) and any miscompile anywhere surfaces as an
output mismatch or a verifier/simulator trap.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CFMConfig, run_cfm
from repro.evaluation.runner import compile_baseline, compile_cfm, execute
from repro.ir import verify_function
from repro.kernels import ALL_BUILDERS
from repro.kernels.patterns import PATTERN_BUILDERS


ALL = {**ALL_BUILDERS, **PATTERN_BUILDERS}


def run_both(name, block_size, grid_dim, seed, config=None):
    base_case = ALL[name](block_size=block_size, grid_dim=grid_dim)
    cfm_case = ALL[name](block_size=block_size, grid_dim=grid_dim)
    compile_baseline(base_case)
    compile_cfm(cfm_case, config)
    verify_function(cfm_case.function)
    base = execute(base_case, seed=seed)
    melded = execute(cfm_case, seed=seed)
    assert base.outputs == melded.outputs, f"{name}: CFM changed outputs"
    return base, melded


@pytest.mark.parametrize("name", sorted(ALL))
def test_cfm_preserves_semantics(name):
    run_both(name, block_size=16, grid_dim=2, seed=77)


@pytest.mark.parametrize("name", ["SB1", "SB3-R", "BIT", "PCM"])
@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=8, deadline=None)
def test_cfm_differential_random_inputs(name, seed):
    run_both(name, block_size=16, grid_dim=1, seed=seed)


@given(
    name=st.sampled_from(sorted(ALL)),
    block_exp=st.integers(3, 6),  # block sizes 8..64
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=12, deadline=None)
def test_cfm_differential_random_configs(name, block_exp, seed):
    run_both(name, block_size=2 ** block_exp, grid_dim=1, seed=seed)


@pytest.mark.parametrize("name", ["BIT", "MS", "SB2"])
def test_cfm_without_unpredication_of_pure_runs(name):
    run_both(name, block_size=16, grid_dim=1, seed=3,
             config=CFMConfig(split_pure_runs=False))


@pytest.mark.parametrize("name", ["SB1", "SB2", "SB3", "BIT", "PCM"])
def test_cfm_improves_divergent_kernels(name):
    base, melded = run_both(name, block_size=32, grid_dim=1, seed=9)
    assert melded.metrics.cycles < base.metrics.cycles, \
        f"{name}: expected a speedup"


def test_cfm_is_idempotent_at_fixpoint():
    """After CFM reaches its fixpoint, rerunning melds nothing new."""
    case = ALL["BIT"](block_size=16, grid_dim=1)
    compile_cfm(case)
    stats = run_cfm(case.function)
    assert not stats.melds


def test_cfm_leaves_divergence_free_kernels_alone():
    """A kernel with no divergent branch must be untouched (LUD at large
    blocks remains statically divergent, so use a uniform kernel)."""
    from repro.kernels.dsl import GLOBAL_I32_PTR, KernelBuilder

    k = KernelBuilder("uniform", params=[("p", GLOBAL_I32_PTR)])
    tid = k.thread_id()
    k.store_at(k.param("p"), tid, k.mul(tid, k.const(3)))
    k.finish()
    stats = run_cfm(k.function)
    assert not stats.melds
    assert stats.regions_considered == 0
