"""Property tests for the Value/User use-list machinery.

The melder's correctness rests entirely on use lists staying consistent
under arbitrary sequences of `set_operand` / `replace_all_uses_with` —
these tests drive random mutation sequences and then re-derive the use
lists from the operand lists, asserting they match exactly.
"""

from hypothesis import given, settings, strategies as st

from repro.ir import (Argument, BinaryOp, I32, Opcode, Select, const_bool,
                      const_int)


def check_use_lists(values):
    """Recompute expected uses from operands; compare with the actual."""
    expected = {id(v): [] for v in values}
    for value in values:
        if not hasattr(value, "operands"):
            continue
        for index, operand in enumerate(value.operands):
            if id(operand) in expected:
                expected[id(operand)].append((value, index))
    for value in values:
        actual = sorted(value.uses, key=lambda u: (id(u[0]), u[1]))
        exp = sorted(expected[id(value)], key=lambda u: (id(u[0]), u[1]))
        assert actual == exp, f"use list diverged for {value!r}"


@st.composite
def mutation_scripts(draw):
    """A DAG of binary ops plus a list of mutations to apply."""
    n_values = draw(st.integers(3, 10))
    builders = []
    for i in range(n_values):
        # Each op reads two earlier values (or constants).
        lhs = draw(st.integers(-2, i - 1))
        rhs = draw(st.integers(-2, i - 1))
        builders.append((lhs, rhs))
    mutations = draw(st.lists(
        st.tuples(
            st.sampled_from(["set", "rauw"]),
            st.integers(0, n_values - 1),   # target value
            st.integers(0, 1),              # operand slot (for set)
            st.integers(-2, n_values - 1),  # replacement source
        ),
        max_size=12))
    return builders, mutations


def materialize(builders):
    values = []
    for lhs_idx, rhs_idx in builders:
        def pick(idx):
            if idx < 0:
                return const_int(idx, I32)
            return values[idx]
        values.append(BinaryOp(Opcode.ADD, pick(lhs_idx), pick(rhs_idx)))
    return values


@given(mutation_scripts())
@settings(max_examples=120, deadline=None)
def test_use_lists_consistent_under_mutation(script):
    builders, mutations = script
    values = materialize(builders)
    check_use_lists(values)
    for kind, target, slot, source in mutations:
        replacement = (const_int(source, I32) if source < 0
                       else values[source])
        if kind == "set":
            values[target].set_operand(slot, replacement)
        else:
            if replacement is not values[target]:
                values[target].replace_all_uses_with(replacement)
        check_use_lists(values)


@given(mutation_scripts())
@settings(max_examples=60, deadline=None)
def test_rauw_leaves_no_stale_uses(script):
    builders, _ = script
    values = materialize(builders)
    fresh = const_int(999, I32)
    for value in values:
        value.replace_all_uses_with(fresh)
        assert value.num_uses == 0 or all(
            user is value for user, _ in value.uses
        ), "self-uses are the only thing RAUW may leave behind"


def test_drop_all_operands_is_idempotent():
    a, b = Argument(I32, "a", 0), Argument(I32, "b", 1)
    op = BinaryOp(Opcode.ADD, a, b)
    op.drop_all_operands()
    op.drop_all_operands()
    assert a.num_uses == 0 and op.num_operands == 0


def test_select_three_slot_bookkeeping():
    cond = const_bool(True)
    a, b = Argument(I32, "a", 0), Argument(I32, "b", 1)
    sel = Select(cond, a, b)
    sel.set_operand(1, b)
    assert (sel, 1) in b.uses and (sel, 2) in b.uses
    assert a.num_uses == 0
    sel.set_operand(2, a)
    assert (sel, 2) in a.uses
    assert (sel, 1) in b.uses and (sel, 2) not in b.uses
