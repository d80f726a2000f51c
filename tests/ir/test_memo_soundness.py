"""``Function.memo`` is sound over every pass state.

The analysis bundle and the lowered programs are both memoized on the
function and read back only while ``repro.ir.fingerprint`` is the one
stamped on the entry; no pass invalidates anything by hand.  A pass hook
reads both memos after every pass of every Fig. 7/8 kernel and of
generated kernels under all five oracle arms — so each read meets an
entry stamped on the previous state — and requires each to equal a
fresh computation on the current IR: the same divergent values and
divergent branch blocks, and a program with the same block names and
µop counts.  Bodies replayed from the compile cache, with and without a
seeded program, go through the same check.  Storing an entry drops the
entries stamped on another state of the IR, so a compiled kernel keeps
no memo of the IR it was compiled from.
"""

import pytest

import repro
from repro.analysis import cached_divergence, compute_divergence
from repro.compile_cache import CompileCache
from repro.difftest import build_kernel, generate_spec
from repro.ir import IRBuilder, memo_lookup, memo_store
from repro.pipeline import ARMS, compile_arm
from repro.simt import DEFAULT_CONFIG, get_program, lower_function
from repro.simt.lowering import OP_RUN

from tests.support import build_diamond


def _shape(program):
    """Block names and µop counts (a fused run counts its µops)."""
    return [(block.name, sum(op[4] if op[0] == OP_RUN else 1
                             for op in block.ops))
            for block in program.blocks]


class MemoChecker:
    """Pass hook comparing both memos with fresh results."""

    def __init__(self) -> None:
        self.states = 0
        self.mismatches = []

    def check(self, label, function) -> None:
        self.states += 1
        cached, fresh = cached_divergence(function), compute_divergence(function)
        # Identity sets: stricter than comparing the values' names.
        if (cached.divergent_values != fresh.divergent_values
                or cached.divergent_branch_blocks
                != fresh.divergent_branch_blocks):
            self.mismatches.append((function.name, label, "divergence"))
        program = get_program(function, DEFAULT_CONFIG)
        if _shape(program) != _shape(lower_function(function,
                                                    DEFAULT_CONFIG.latency)):
            self.mismatches.append((function.name, label, "program"))

    def __call__(self, pass_name, function, result) -> None:
        self.check(pass_name, function)

    def compile(self, kernel, arm, cache=None):
        self.check("input", kernel.function)
        return compile_arm(kernel, arm, cache=cache, machine=DEFAULT_CONFIG,
                           after_each=[self])


@pytest.mark.parametrize("name", sorted(repro.ALL_BUILDERS))
def test_paper_kernels_every_pass_state(name):
    checker = MemoChecker()
    for arm in ARMS:
        checker.compile(repro.ALL_BUILDERS[name](), arm)
    assert checker.mismatches == []
    assert checker.states > 20


@pytest.mark.parametrize("seeds", [range(start, start + 10)
                                   for start in range(0, 50, 10)],
                         ids=lambda seeds: f"{seeds.start}-{seeds.stop - 1}")
def test_generated_kernels_all_arms(seeds):
    checker = MemoChecker()
    for seed in seeds:
        spec = generate_spec(seed)
        for arm in ARMS:
            checker.compile(build_kernel(spec), arm)
    assert checker.mismatches == []


@pytest.mark.parametrize("name", sorted(repro.ALL_BUILDERS))
def test_replayed_bodies(name):
    """The ``-O3`` entry replayed under the CFM pass's hooks, then a
    full hit whose seeded program must survive the parse its check
    forces: the launch memo still answers with the seeded object."""
    checker = MemoChecker()
    cache = CompileCache()
    checker.compile(repro.ALL_BUILDERS[name](), "o3", cache)
    checker.compile(repro.ALL_BUILDERS[name](), "o3-cfm", cache)
    replayed = compile_arm(repro.ALL_BUILDERS[name](), "o3-cfm", cache=cache,
                           machine=DEFAULT_CONFIG).function
    assert replayed.deferred
    seeded = get_program(replayed, DEFAULT_CONFIG)
    assert replayed.deferred  # launching parses nothing
    checker.check("replayed", replayed)
    assert get_program(replayed, DEFAULT_CONFIG) is seeded
    assert checker.mismatches == []


def test_store_drops_entries_of_another_ir_state():
    f = build_diamond()
    memo_store(f, "a", 1)
    memo_store(f, "b", 2)
    assert (memo_lookup(f, "a"), memo_lookup(f, "b")) == (1, 2)
    IRBuilder(f.add_block("appendix")).ret()
    assert memo_lookup(f, "a") is None
    memo_store(f, "b", 3)
    assert list(f.memo) == ["b"]


@pytest.mark.parametrize("name", sorted(repro.ALL_BUILDERS))
def test_launched_kernel_memoizes_only_its_program(name):
    """The CFM pass reads the analysis memo of the IR it then melds;
    once the compiled kernel is lowered, that stale bundle (and the
    pre-meld IR it references) is gone."""
    case = repro.ALL_BUILDERS[name]()
    function = compile_arm(case, "o3-cfm").function
    program = get_program(function, DEFAULT_CONFIG)
    assert [entry[1] for entry in function.memo.values()] == [program]
