"""A warm cache hit is launch-ready without parsing the IR.

``CompileCache.lookup`` hands back a module whose function bodies are
still text (``parse_module_deferred``) with the stored µop program
seeded on it.  Held here:

* **equivalence** — forcing a deferred body yields the module an eager
  parse yields, and a launch off a never-parsed hit is bit-identical to
  a launch off an eagerly parsed module: device memory, every
  :class:`~repro.simt.Metrics` counter, the WarpTrace stream, under both
  reconvergence policies, over every kernel builder and the difftest
  generator corpus × the five arms (``REPRO_EXECUTOR_DIFF_SEEDS`` widens
  the corpus, as for the executor differential);
* **nothing parses on the replay path** — a warm ``compare`` parses no
  body and lowers nothing;
* **traps** — rendering a trap message is what parses the body, and the
  message is the one the eager path and the reference executor raise;
* **touch before launch** — reading the blocks first keeps the seeded
  program, mutating them re-lowers;
* **edges** — deepcopy, pickle, ``add_block``, a program that does not
  fit the body.
"""

from __future__ import annotations

import copy
import os
import pickle

import pytest

import repro
from repro.compile_cache import CompileCache
from repro.difftest.generator import build_kernel, generate_spec, make_inputs
from repro.evaluation import compare
from repro.ir import parser, print_module
from repro.ir.parser import parse_module, parse_module_deferred
from repro.kernels import ALL_BUILDERS, build_sb1
from repro.obs import Tracer, use
from repro.pipeline import ARMS, compile_arm
from repro.simt import (
    DEFAULT_CONFIG,
    RECONVERGENCE_POLICIES,
    MachineConfig,
    SimulationError,
    get_program,
    lower_symbolic,
    lowering,
)

SEED_COUNT = int(os.environ.get("REPRO_EXECUTOR_DIFF_SEEDS", "10"))


def _replayed(module, machine=DEFAULT_CONFIG, program=None):
    """``module`` as a warm hit hands it back: bodies deferred, its
    lowered program (or ``program``) seeded."""
    cache = CompileCache()
    key = CompileCache.key("test", print_module(module))
    (function,) = module.functions.values()
    cache.store(key, module, 0.0, [], machine=machine,
                program=program or lower_symbolic(function, machine.latency))
    hit = cache.lookup(key, machine=machine)
    assert hit.program is not None
    assert all(f.deferred for f in hit.module.functions.values())
    return hit.module


def _observe(module, grid, block, args, machine):
    """Every observable of one launch (a trap is one too)."""
    tracer = Tracer()
    try:
        with use(tracer):
            result = repro.launch(module, grid, block, args, machine=machine)
    except SimulationError as exc:
        return "trap", str(exc)
    events = [{k: v for k, v in e.items()
               if k not in ("ts", "dur") or e.get("cat") == "sim"}
              for e in tracer.events]
    return result.outputs, result.metrics.as_dict(), events


def _assert_replays_like_eager(module, grid, block, args, where):
    text = print_module(module)
    forced = parse_module_deferred(text)
    assert all(f.deferred for f in forced.functions.values())
    assert print_module(forced) == text, where
    for policy in RECONVERGENCE_POLICIES:
        machine = MachineConfig(reconvergence=policy)
        hit = _replayed(module, machine)
        replay = _observe(hit, grid, block, args, machine)
        eager = _observe(parse_module(text), grid, block, args, machine)
        assert replay == eager, f"{where} under {policy}"
        assert replay[0] == "trap" or \
            all(f.deferred for f in hit.functions.values()), where


@pytest.fixture
def count_parses_and_lowerings(monkeypatch):
    """``(bodies parsed, functions lowered)``, as lists of names."""
    parsed, lowered = [], []
    real_parse = parser._parse_function_body
    real_lower = lowering.lower_function
    monkeypatch.setattr(
        parser, "_parse_function_body",
        lambda *args: (parsed.append(args[-1].name), real_parse(*args))[1])
    monkeypatch.setattr(
        lowering, "lower_function",
        lambda function, latency: (lowered.append(function.name),
                                   real_lower(function, latency))[1])
    return parsed, lowered


# ---------------------------------------------------------------------------
# (1) equivalence


@pytest.mark.parametrize("name", sorted(ALL_BUILDERS))
def test_every_builder_replays_like_an_eager_parse(name):
    for arm in ARMS:
        case = ALL_BUILDERS[name](block_size=16, grid_dim=1)
        compile_arm(case, arm)
        args = {**case.make_buffers(7), **case.scalars}
        _assert_replays_like_eager(case.module, case.grid_dim, case.block_dim,
                                   args, f"{name} {arm}")


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_generated_kernels_replay_like_an_eager_parse(seed):
    spec = generate_spec(seed)
    for arm in ARMS:
        builder = build_kernel(spec)
        compile_arm(builder, arm)
        _assert_replays_like_eager(builder.module, spec.grid_dim,
                                   spec.block_dim, make_inputs(spec, 0),
                                   f"seed {seed} {arm}")


# ---------------------------------------------------------------------------
# (2) nothing parses on the replay path


def test_a_warm_compare_parses_no_body_and_lowers_nothing(
        tmp_path, count_parses_and_lowerings):
    parsed, lowered = count_parses_and_lowerings
    cold = compare(build_sb1, block_size=16, grid_dim=1,
                   cache=CompileCache(disk=tmp_path))
    assert parsed == ["sb1"]  # the CFM arm's "o3" fall-through melds it
    assert lowered == []  # the cold launches run what the stores seeded
    del parsed[:], lowered[:]
    cache = CompileCache(disk=tmp_path)
    warm = compare(build_sb1, block_size=16, grid_dim=1, cache=cache)
    assert cache.counters()["disk_hits"] == 2
    assert cache.counters()["misses"] == 0
    assert (parsed, lowered) == ([], [])
    assert warm.baseline.as_dict() == cold.baseline.as_dict()
    assert warm.melded.as_dict() == cold.melded.as_dict()


# ---------------------------------------------------------------------------
# (3) traps


TRAPS = {
    "load": ("%v = load i32, i32 addrspace(1)* undef",
             "load through undef address: %v = load i32, "
             "i32 addrspace(1)* undef"),
    "sdiv": ("%v = sdiv i32 7, %z",
             "integer division by zero: %v = sdiv i32 7, %z"),
    "shl": ("%v = shl i32 1, %w",
            "shift amount 40 >= width 32: %v = shl i32 1, %w"),
    "fptosi": ("%f = fdiv float 1.0, 0.0\n  %v = fptosi float %f to i32",
               "fptosi of non-finite value inf: "
               "%v = fptosi float %f to i32"),
    "branch": ("%v = add i32 %z, 1\n  br i1 undef, label %exit, label %exit",
               "branch on undef condition: "
               "br i1 undef, label %exit, label %exit"),
}


@pytest.mark.parametrize("site", sorted(TRAPS))
def test_a_trap_message_is_what_parses_the_body(site,
                                                count_parses_and_lowerings):
    parsed, lowered = count_parses_and_lowerings
    body, message = TRAPS[site]
    if site != "branch":
        body += "\n  br label %exit"
    text = f"""
define void @k(i32 addrspace(1)* %out, i32 %z, i32 %w) {{
entry:
  {body}
exit:
  store i32 %v, i32 addrspace(1)* %out
  ret void
}}
"""
    args = {"out": [0], "z": 0, "w": 40}
    for executor in ("reference", "fast"):
        eager = _observe(parse_module(text), 1, 1, args,
                         MachineConfig(executor=executor))
        assert eager == ("trap", message)
    hit = _replayed(parse_module(text))
    del parsed[:], lowered[:]
    program = get_program(hit.functions["k"], DEFAULT_CONFIG)
    assert parsed == []
    assert _observe(hit, 1, 1, args, DEFAULT_CONFIG) == ("trap", message)
    assert parsed == ["k"] and lowered == []
    # the parse confirmed the seed: still the program that trapped
    assert get_program(hit.functions["k"], DEFAULT_CONFIG) is program
    assert lowered == []


# ---------------------------------------------------------------------------
# (4) touch before launch


def _compiled_sb1():
    case = build_sb1(block_size=16, grid_dim=1)
    compile_arm(case, "o3-cfm")
    return case


def test_reading_the_blocks_before_launch_keeps_the_seeded_program(
        count_parses_and_lowerings):
    parsed, lowered = count_parses_and_lowerings
    case = _compiled_sb1()
    case.module = _replayed(case.module)
    seeded = get_program(case.function, DEFAULT_CONFIG)
    assert len(case.function.blocks) == 1  # lint, instruction_count, ...
    assert parsed == ["sb1"] and not case.function.deferred
    assert get_program(case.function, DEFAULT_CONFIG) is seeded
    assert lowered == []


def test_mutating_the_parsed_body_before_launch_relowers(
        count_parses_and_lowerings):
    _, lowered = count_parses_and_lowerings
    case = _compiled_sb1()
    case.module = _replayed(case.module)
    seeded = get_program(case.function, DEFAULT_CONFIG)
    store = [i for i in case.function.instructions()
             if i.opcode == "store"][-1]
    store.erase_from_parent()
    assert get_program(case.function, DEFAULT_CONFIG) is not seeded
    assert lowered == ["sb1"]


def test_a_program_that_does_not_fit_the_body_is_dropped_at_the_parse(
        count_parses_and_lowerings):
    """The block-name / µop-count cross-check eager materialization runs
    up front runs when the body is parsed."""
    _, lowered = count_parses_and_lowerings
    case = _compiled_sb1()
    program = lower_symbolic(case.function, DEFAULT_CONFIG.latency)
    program["blocks"][0]["ops"].pop()
    hit = _replayed(case.module, program=program)
    function = hit.functions["sb1"]
    stale = get_program(function, DEFAULT_CONFIG)
    function.blocks
    assert get_program(function, DEFAULT_CONFIG) is not stale
    assert lowered == ["sb1"]


# ---------------------------------------------------------------------------
# (5) edges


def test_a_deepcopy_of_a_hit_is_a_hit(count_parses_and_lowerings):
    """A copy of a hit is a hit: still deferred, its own seeded program
    bound to its own arguments and body."""
    parsed, lowered = count_parses_and_lowerings
    case = _compiled_sb1()
    text = print_module(case.module)
    args = {**case.make_buffers(7), **case.scalars}
    hit = _replayed(case.module)
    del parsed[:]
    clone = copy.deepcopy(hit)
    assert clone.functions["sb1"].deferred and hit.functions["sb1"].deferred
    assert _observe(clone, 1, 16, args, DEFAULT_CONFIG) == \
        _observe(parse_module(text), 1, 16, args, DEFAULT_CONFIG)
    assert parsed == ["sb1"] and lowered == ["sb1"]  # the eager side only
    program = get_program(clone.functions["sb1"], DEFAULT_CONFIG)
    assert print_module(clone) == text
    assert parsed == ["sb1", "sb1"] and hit.functions["sb1"].deferred
    assert get_program(clone.functions["sb1"], DEFAULT_CONFIG) is program


def test_a_pickle_of_a_deferred_module_carries_the_text():
    """(``pickle.loads`` of any module fails on the interned types, with
    or without a deferred body.)"""
    deferred = parse_module_deferred(print_module(_compiled_sb1().module))
    assert b"getelementptr" in pickle.dumps(deferred)
    assert deferred.functions["sb1"].deferred


def test_add_block_on_a_deferred_function_parses_first():
    function = parse_module_deferred(
        print_module(_compiled_sb1().module)).functions["sb1"]
    block = function.add_block("entry")
    assert not function.deferred
    assert [b.name for b in function.blocks] == ["entry", "entry.1"]
    assert block.name == "entry.1"


def test_headers_are_real_before_the_body_is():
    module = _compiled_sb1().module
    deferred = parse_module_deferred(print_module(module))
    function = deferred.functions["sb1"]
    assert function.deferred and function.module is deferred
    assert [(a.name, a.type) for a in function.args] == \
        [(a.name, a.type) for a in module.functions["sb1"].args]
    assert list(deferred.globals) == list(module.globals)
    assert function.deferred
    assert "blocks" in repr(function) and not function.deferred
