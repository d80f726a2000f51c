"""Acceptance gate: every benchmark kernel is lint-clean at every level.

This is the standing contract every future transform PR inherits: the
paper's kernels carry no error-severity diagnostic before OR after any
of the five compile pipelines (no-opt, -O3, -O3+CFM, tail-merging,
branch-fusion).  A new rule or a new pass that breaks this must either
fix the IR or justify a suppression here.
"""

import pytest

import repro
from repro.lint import LINT_LEVELS, lint_at_level


@pytest.mark.parametrize("name", sorted(repro.ALL_BUILDERS))
@pytest.mark.parametrize("level", LINT_LEVELS)
def test_kernel_lint_clean(name, level):
    case = repro.ALL_BUILDERS[name]()
    report = lint_at_level(case, level)
    assert report.ok, (
        f"{name} @ {level}:\n{report.render()}")


def test_levels_cover_the_difftest_matrix():
    # The lint sweep and the difftest oracle gate the same arms: both
    # tuples are the compile driver's.
    from repro.difftest.oracle import ALL_ARMS
    from repro.pipeline import ARMS
    assert LINT_LEVELS is ALL_ARMS is ARMS
