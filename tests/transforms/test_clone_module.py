"""``clone_module``: an exact, independent copy of a module.

The differential oracle compiles each reducer arm on a clone of the
post-``-O3`` module instead of re-running ``-O3``, so the clone must be
the IR the passes built in every respect a pass can observe: printed
text, names and ``unique_name`` state, use-list order, predecessor
order and φ incoming order.  Checked on every Fig. 7/8 kernel after
``-O3`` and on generator seeds 0–99: the clone is exact under the
old→new map, running a reducer on it leaves the original as it was, and
each reducer compiles the clone exactly as it compiles the original
(the pattern of ``tests/evaluation/test_replay_gate.py``).
"""

from __future__ import annotations

import pytest

import repro
from repro.difftest import build_kernel, generate_spec
from repro.ir import Branch, Phi, fingerprint
from repro.ir.values import _Literal
from repro.pipeline import ARM_STAGES, compile_arm
from repro.transforms import clone_module

SEEDS = range(100)
PAPER_KERNELS = sorted(repro.ALL_BUILDERS)
REDUCERS = [ARM_STAGES[arm][1] for arm in ("o3-cfm", "o3-tail", "o3-bf")]
#: attributes holding IR references; every other one must be equal
REFERENCES = {"_uses", "_operands", "_successors", "_incoming_blocks",
              "_instructions", "_preds", "parent"}


def _paper_o3(name):
    case = repro.ALL_BUILDERS[name]()
    compile_arm(case, "o3")
    return case.module


def _seed_o3(seed):
    builder = build_kernel(generate_spec(seed))
    compile_arm(builder, "o3")
    return builder.module


def _module(source):
    kind, key = source
    return _paper_o3(key) if kind == "paper" else _seed_o3(key)


SOURCES = ([("paper", name) for name in PAPER_KERNELS]
           + [("seed", seed) for seed in SEEDS])
IDS = [f"{kind}-{key}" for kind, key in SOURCES]


def _value_map(original, clone):
    """old → new for every global, function, argument, block and
    instruction, paired by name and position."""
    assert list(clone.globals) == list(original.globals)
    assert list(clone.functions) == list(original.functions)
    pairs = {}
    for name, var in original.globals.items():
        pairs[var] = clone.globals[name]
    for name, function in original.functions.items():
        twin = clone.functions[name]
        pairs[function] = twin
        assert len(twin.args) == len(function.args)
        pairs.update(zip(function.args, twin.args))
        assert len(twin.blocks) == len(function.blocks)
        for block, twin_block in zip(function.blocks, twin.blocks):
            pairs[block] = twin_block
            assert len(twin_block) == len(block)
            pairs.update(zip(block.instructions, twin_block.instructions))
    return pairs


def _mapped(pairs, value):
    if value is None or isinstance(value, _Literal):
        return value
    return pairs[value]


def _assert_exact(original, clone):
    pairs = _value_map(original, clone)
    originals = {id(value) for value in pairs}
    for old, new in pairs.items():
        assert new is not old and id(new) not in originals
        assert type(new) is type(old)
        if old in original.functions.values():
            assert new.name == old.name and new.module is clone
            assert new._taken_names == old._taken_names
            assert new._taken_names is not old._taken_names
            assert new.memo == {}
            continue
        assert vars(new).keys() == vars(old).keys()
        for attr, value in vars(old).items():
            if attr not in REFERENCES:
                assert vars(new)[attr] == value, (old, attr)
        # use-list order, user for user and slot for slot
        # (values compare by identity)
        assert new._uses == [(pairs[u], i) for u, i in old._uses]
        if hasattr(old, "_operands"):
            assert new._operands \
                == [_mapped(pairs, value) for value in old._operands]
            assert new.parent is pairs[old.parent]
        if isinstance(old, Branch):
            assert [pairs[b] for b in old._successors] == new._successors
        if isinstance(old, Phi):  # φ incoming order
            assert [pairs[b] for b in old._incoming_blocks] \
                == new._incoming_blocks
        if hasattr(old, "_preds"):  # predecessor order
            assert [pairs[b] for b in old._preds] == new._preds
            assert new.parent is pairs[old.parent]
    # Printing assigns names, so it comes after the name checks.
    assert repro.print_module(clone) == repro.print_module(original)


@pytest.mark.parametrize("source", SOURCES, ids=IDS)
def test_clone_is_exact(source):
    original = _module(source)
    _assert_exact(original, clone_module(original))


@pytest.mark.parametrize("source", SOURCES, ids=IDS)
def test_clone_is_independent(source):
    original = _module(source)
    text = repro.print_module(original)
    state = {name: (fingerprint(f), dict(f._taken_names))
             for name, f in original.functions.items()}
    clone = clone_module(original)
    for function in clone.functions.values():
        compile_arm(function, (False, "cfm"))
    assert repro.print_module(original) == text
    assert {name: (fingerprint(f), f._taken_names)
            for name, f in original.functions.items()} == state


def _reducer_run(function, reducer):
    result = compile_arm(function, (False, reducer))
    decisions = ([d.as_dict() for d in result.cfm_stats.decisions]
                 if result.cfm_stats is not None else None)
    return decisions, repro.print_module(function.module)


@pytest.mark.parametrize("source", SOURCES, ids=IDS)
def test_reducers_compile_the_clone_as_the_original(source):
    for reducer in REDUCERS:
        original = _module(source)
        clone = clone_module(original)
        for name, function in original.functions.items():
            assert _reducer_run(clone.functions[name], reducer) \
                == _reducer_run(function, reducer), reducer
