"""Sparse divergence analysis against the round-robin reference.

Every benchmark kernel and 100 generated kernels, after ``-O3`` and
again after CFM: both the divergent value set and the divergent branch
blocks must match the oracle in ``reference_divergence.py`` exactly.
"""

import pytest

from repro import CFMPass
from repro.analysis import compute_divergence
from repro.difftest.generator import build_kernel, generate_spec
from repro.kernels import ALL_BUILDERS, EXTRA_BUILDERS
from repro.transforms import optimize

from tests.analysis.reference_divergence import reference_divergence

KERNELS = {**ALL_BUILDERS, **EXTRA_BUILDERS}


def assert_matches_reference(function):
    info = compute_divergence(function)
    values, branch_blocks = reference_divergence(function)
    assert info.divergent_values == values
    assert info.divergent_branch_blocks == branch_blocks


def check_after_o3_and_cfm(function):
    optimize(function)
    assert_matches_reference(function)
    CFMPass().run(function)
    assert_matches_reference(function)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_matches_reference(name):
    check_after_o3_and_cfm(KERNELS[name](64).function)


@pytest.mark.parametrize("seed", range(100))
def test_generated_kernel_matches_reference(seed):
    check_after_o3_and_cfm(build_kernel(generate_spec(seed)).function)


def test_divergent_argument_matches_reference():
    function = KERNELS["SB1"](32).function
    args = [function.args[-1]]
    info = compute_divergence(function, divergent_args=args)
    values, branch_blocks = reference_divergence(function, args)
    assert info.divergent_values == values
    assert info.divergent_branch_blocks == branch_blocks
