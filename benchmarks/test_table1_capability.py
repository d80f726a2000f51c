"""Table I: which technique melds which control-flow pattern.

Paper's matrix:

| pattern                                  | tail merging | branch fusion | CFM |
|------------------------------------------|:---:|:---:|:---:|
| diamond, identical instruction sequences |  ✓  |  ✓  |  ✓  |
| diamond, distinct instruction sequences  |  ✗  |  ✓  |  ✓  |
| complex control flow                     |  ✗  |  ✗  |  ✓  |
"""

import pytest

from repro import format_table1, table1


@pytest.fixture(scope="module")
def rows():
    return table1()


def test_table1_regenerates(rows):
    print()
    print(format_table1(rows))


def test_matrix_matches_paper(rows):
    expected = {
        ("diamond-identical", "tail-merging"): True,
        ("diamond-identical", "branch-fusion"): True,
        ("diamond-identical", "cfm"): True,
        ("diamond-distinct", "tail-merging"): False,
        ("diamond-distinct", "branch-fusion"): True,
        ("diamond-distinct", "cfm"): True,
        ("complex", "tail-merging"): False,
        ("complex", "branch-fusion"): False,
        ("complex", "cfm"): True,
    }
    actual = {(r.pattern, r.technique): r.melds for r in rows}
    assert actual == expected


def test_every_transform_is_sound(rows):
    for row in rows:
        assert row.outputs_correct, f"{row.pattern}/{row.technique} miscompiled"
