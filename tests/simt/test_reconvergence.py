"""Unit tests for the warp path scheduler and its two selection rules.

The corpus-wide differential (``test_executor_diff``) holds both
executors bit-identical under every rule; this file pins down the
scheduler mechanics themselves — min-PC path fusion, divergent loop
exits, barriers under a partial mask — drives :class:`PathScheduler`
against the two schedulers it replaced, and covers the
:class:`~repro.simt.MachineConfig` token rules the machine API is built
on.
"""

from __future__ import annotations

from functools import partial
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import GLOBAL_I32_PTR, ICmpPredicate, KernelBuilder, run_kernel
from repro.difftest.generator import generate_spec, make_inputs
from repro.difftest.oracle import ALL_ARMS, _compile_arm
from repro.evaluation.experiments import (
    DEFAULT_GRID_DIM,
    SYNTHETIC_BLOCK_SIZES,
)
from repro.evaluation.runner import compile_baseline, compile_cfm
from repro.ir import I32
from repro.kernels import SYNTHETIC_BUILDERS
from repro.simt import (
    RECONVERGENCE_POLICIES,
    MachineConfig,
    SimulationError,
    get_program,
)
from repro.simt.memory import MemoryError_
from repro.simt.reconvergence import PathScheduler

from tests.support import parse

EXECUTORS = ("reference", "fast")


def _run_all(module, kernel, buffers, scalars=None, grid=2, block=8):
    """Run every executor × policy combination; assert executor parity
    per policy and memory identity across policies; return per-policy
    ``(outputs, metrics_dict)`` from the fast executor."""
    per_policy = {}
    for policy in RECONVERGENCE_POLICIES:
        results = {}
        for executor in EXECUTORS:
            machine = MachineConfig(executor=executor, reconvergence=policy)
            outputs, metrics = run_kernel(
                module, kernel, grid, block,
                buffers={k: list(v) for k, v in buffers.items()},
                scalars=scalars, machine=machine)
            results[executor] = (outputs, metrics.as_dict())
        assert results["fast"] == results["reference"], \
            f"executors disagree under {policy}"
        per_policy[policy] = results["fast"]
    memories = {policy: result[0] for policy, result in per_policy.items()}
    baseline = memories[RECONVERGENCE_POLICIES[0]]
    for policy, memory in memories.items():
        assert memory == baseline, \
            f"device memory differs between policies ({policy})"
    return per_policy


# ---- scheduler mechanics, driven directly ---------------------------------


class TestMinPCScheduler:
    def test_path_fusion_at_colliding_pc(self):
        # Diamond: entry(0) -> {1, 2} -> join(3).  Both sides advance to
        # the join; the collision fuses them into one full-mask path
        # with exactly one merge notification.
        s = PathScheduler("min-pc", 0, (0, 1, 2, 3))
        pc, mask, merges = s.next()
        assert (pc, mask, merges) == (0, (0, 1, 2, 3), None)
        s.diverge(1, 2, (0, 1), (2, 3), 3)

        pc, mask, merges = s.next()
        assert (pc, mask, merges) == (1, (0, 1), None)
        s.advance(3)

        pc, mask, merges = s.next()
        assert (pc, mask, merges) == (2, (2, 3), None)
        s.advance(3)

        pc, mask, merges = s.next()
        assert (pc, mask) == (3, (0, 1, 2, 3))
        assert merges == [(3, 4)]
        s.retire()
        assert s.next() == (None, (), None)

    def test_minimum_pc_path_runs_first(self):
        # After divergence the lower-PC side always steps next, no
        # matter which side was "taken".
        s = PathScheduler("min-pc", 0, (0, 1))
        s.next()
        s.diverge(5, 2, (0,), (1,), -1)  # true side has the higher PC
        pc, mask, _ = s.next()
        assert (pc, mask) == (2, (1,))
        s.retire()
        pc, mask, _ = s.next()
        assert (pc, mask) == (5, (0,))
        s.retire()
        assert s.next()[0] is None

    def test_fused_mask_is_lane_ordered(self):
        # Fusion merges masks in lane order regardless of path order.
        s = PathScheduler("min-pc", 0, (0, 1, 2, 3))
        s.next()
        s.diverge(1, 2, (1, 3), (0, 2), 3)
        s.next()           # path (1, 3) at pc 1
        s.advance(3)
        s.next()           # path (0, 2) at pc 2
        s.advance(3)
        pc, mask, merges = s.next()
        assert (pc, mask) == (3, (0, 1, 2, 3))
        assert merges == [(3, 4)]

    def test_ignores_rpc(self):
        # Stack-less: the post-dominator hint changes nothing.
        for rpc in (-1, 7):
            s = PathScheduler("min-pc", 0, (0, 1))
            s.next()
            s.diverge(1, 2, (0,), (1,), rpc)
            assert s.next()[0] == 1


class TestIPDOMScheduler:
    def test_reconverges_at_rpc(self):
        # Diamond under the stack: true side runs first, each side pops
        # at the rpc, and the holder resumes with the full mask.
        s = PathScheduler("ipdom", 0, (0, 1, 2, 3))
        s.next()
        s.diverge(1, 2, (0, 1), (2, 3), 3)

        pc, mask, merges = s.next()
        assert (pc, mask, merges) == (1, (0, 1), None)
        s.advance(3)

        pc, mask, merges = s.next()
        assert (pc, mask) == (2, (2, 3))
        assert merges == [(3, 2)]  # true side popped into the false side
        s.advance(3)

        pc, mask, merges = s.next()
        assert (pc, mask) == (3, (0, 1, 2, 3))
        assert merges == [(3, 4)]  # false side popped into the holder
        s.retire()
        assert s.next() == (None, (), None)

    def test_no_rpc_runs_sides_to_retirement(self):
        # rpc == -1 (both sides ret): no holder, sides never merge.
        s = PathScheduler("ipdom", 0, (0, 1))
        s.next()
        s.diverge(1, 2, (0,), (1,), -1)
        pc, mask, _ = s.next()
        assert (pc, mask) == (1, (0,))
        s.retire()
        pc, mask, merges = s.next()
        assert (pc, mask, merges) == (2, (1,), None)
        s.retire()
        assert s.next()[0] is None


# ---- the reference: the two schedulers PathScheduler replaced -------------


class _IPDOMScheduler:
    """The classic reconvergence stack, entries ``[pc, rpc, mask]``.

    ``rpc == -1`` marks "no reconvergence point" (an entry that runs to
    ``ret``); the true side is pushed last so it executes first, exactly
    as the pre-policy executors did.
    """

    __slots__ = ("_stack",)

    def __init__(self, entry_pc: int, mask: Tuple[int, ...]) -> None:
        self._stack: List[list] = [[entry_pc, -1, mask]]

    def next(self):
        stack = self._stack
        merges = None
        while stack:
            entry = stack[-1]
            pc = entry[0]
            if entry[1] >= 0 and pc == entry[1]:
                # pc reached its reconvergence point: pop, lanes merge
                # into the entry below (the reconvergence holder).
                stack.pop()
                if merges is None:
                    merges = []
                merges.append((pc, len(stack[-1][2]) if stack else 0))
                continue
            return pc, entry[2], merges
        return None, (), merges

    def advance(self, pc: int) -> None:
        self._stack[-1][0] = pc

    def retire(self) -> None:
        self._stack.pop()

    def diverge(self, true_pc: int, false_pc: int,
                taken: Tuple[int, ...], not_taken: Tuple[int, ...],
                rpc: int) -> None:
        stack = self._stack
        if rpc < 0:
            # No common post-dominator (multiple rets): both sides run
            # to completion independently and never merge.
            stack.pop()
            stack.append([false_pc, -1, not_taken])
            stack.append([true_pc, -1, taken])
        else:
            stack[-1][0] = rpc  # current entry becomes the holder
            stack.append([false_pc, rpc, not_taken])
            stack.append([true_pc, rpc, taken])


class _MinPCScheduler:
    """Stack-less path list, simtx-style: ``[pc, mask]`` paths.

    ``next()`` first fuses every group of paths sharing a PC (one
    reconvergence notification per fused group, masks merged in lane
    order), then steps the path with the minimum PC.  A divergent branch
    simply replaces the current path with its two sides — no
    post-dominator bookkeeping, so ``rpc`` is ignored.
    """

    __slots__ = ("_paths", "_current")

    def __init__(self, entry_pc: int, mask: Tuple[int, ...]) -> None:
        self._paths: List[list] = [[entry_pc, mask]]
        self._current = 0

    def next(self):
        paths = self._paths
        if not paths:
            return None, (), None
        merges = None
        if len(paths) > 1:
            by_pc = {}
            fused = None
            for path in paths:
                kept = by_pc.get(path[0])
                if kept is None:
                    by_pc[path[0]] = path
                else:
                    kept[1] = kept[1] + path[1]
                    if fused is None:
                        fused = set()
                    fused.add(path[0])
            if fused is not None:
                for pc in fused:
                    by_pc[pc][1] = tuple(sorted(by_pc[pc][1]))
                self._paths = paths = [by_pc[pc] for pc in sorted(by_pc)]
                merges = [(pc, len(by_pc[pc][1])) for pc in sorted(fused)]
        current = 0
        lowest = paths[0][0]
        for index in range(1, len(paths)):
            if paths[index][0] < lowest:
                lowest = paths[index][0]
                current = index
        self._current = current
        path = paths[current]
        return path[0], path[1], merges

    def advance(self, pc: int) -> None:
        self._paths[self._current][0] = pc

    def retire(self) -> None:
        self._paths.pop(self._current)

    def diverge(self, true_pc: int, false_pc: int,
                taken: Tuple[int, ...], not_taken: Tuple[int, ...],
                rpc: int) -> None:
        current = self._current
        self._paths[current] = [true_pc, taken]
        self._paths.insert(current + 1, [false_pc, not_taken])


REFERENCE = {"ipdom": _IPDOMScheduler, "min-pc": _MinPCScheduler}

PCS = st.integers(0, 7)
RPCS = st.sampled_from((-1,) + tuple(range(8)))


@settings(max_examples=300, deadline=None)
@given(rule=st.sampled_from(RECONVERGENCE_POLICIES),
       lanes=st.integers(1, 8), data=st.data())
def test_path_scheduler_matches_the_schedulers_it_replaced(rule, lanes, data):
    # One random walk of next/advance/retire/diverge drives both; every
    # step must hand the warp driver the same (pc, mask, merges).
    mask = tuple(range(lanes))
    new = PathScheduler(rule, 0, mask)
    old = REFERENCE[rule](0, mask)
    for _ in range(60):
        step = new.next()
        assert step == old.next()
        pc, mask, _ = step
        if pc is None:
            return
        ops = ["advance", "retire"] + (["diverge"] if len(mask) > 1 else [])
        op = data.draw(st.sampled_from(ops))
        if op == "advance":
            target = data.draw(PCS)
            new.advance(target)
            old.advance(target)
        elif op == "retire":
            new.retire()
            old.retire()
        else:
            # A disjoint partition of the path's lanes, both sides
            # non-empty and in lane order, as the warp driver builds it.
            bits = data.draw(st.lists(st.booleans(), min_size=len(mask),
                                      max_size=len(mask))
                             .filter(lambda b: any(b) and not all(b)))
            taken = tuple(lane for lane, bit in zip(mask, bits) if bit)
            not_taken = tuple(lane for lane, bit in zip(mask, bits)
                              if not bit)
            args = (data.draw(PCS), data.draw(PCS), taken, not_taken,
                    data.draw(RPCS))
            new.diverge(*args)
            old.diverge(*args)


# ---- the mask-order invariant ---------------------------------------------


class _OrderCheckedScheduler(PathScheduler):
    """A :class:`PathScheduler` that records every mask ``next()`` hands
    out which is not a strictly ascending subset of the warp's lanes."""

    __slots__ = ("lanes", "violations", "partial")

    #: every instance, in construction order
    seen: List["_OrderCheckedScheduler"] = []

    def __init__(self, rule: str, entry_pc: int,
                 mask: Tuple[int, ...]) -> None:
        super().__init__(rule, entry_pc, mask)
        self.lanes = len(mask)
        self.violations = [] if mask == tuple(range(len(mask))) else [mask]
        self.partial = 0
        self.seen.append(self)

    def next(self):
        pc, mask, merges = super().next()
        if pc is not None:
            if not (all(a < b for a, b in zip(mask, mask[1:]))
                    and mask and 0 <= mask[0] and mask[-1] < self.lanes):
                self.violations.append(mask)
            self.partial += len(mask) < self.lanes
        return pc, mask, merges


def _assert_masks_ascend(monkeypatch, launches):
    """Run ``launches`` (callables taking ``machine=``) under both
    policies with every warp's scheduler order-checked; return the
    schedulers."""
    monkeypatch.setattr("repro.simt.warp.PathScheduler",
                        _OrderCheckedScheduler)
    monkeypatch.setattr(_OrderCheckedScheduler, "seen", [])
    for policy in RECONVERGENCE_POLICIES:
        for launch in launches:
            try:
                launch(machine=MachineConfig(reconvergence=policy))
            except (SimulationError, MemoryError_):
                pass  # a trap ends the run; its masks still count
    schedulers = _OrderCheckedScheduler.seen
    assert schedulers, "no warp ran through the checked scheduler"
    bad = [s.violations for s in schedulers if s.violations]
    assert not bad, f"masks out of lane order: {bad[:3]}"
    return schedulers


@pytest.mark.parametrize("seed", range(20))
def test_masks_ascend_on_generated_kernels(monkeypatch, seed):
    # ``len(mask) == lane_count`` then means "every lane, in lane
    # order": the fast executor's whole-row shortcuts rest on it.
    spec = generate_spec(seed)
    launches = []
    for arm in ALL_ARMS:
        report = _compile_arm(arm, spec, None)
        if report.failure is None and report.builder is not None:
            launches.append(partial(
                repro.launch, report.builder.module, spec.grid_dim,
                spec.block_dim, make_inputs(spec, 0)))
    assert launches
    _assert_masks_ascend(monkeypatch, launches)


def test_masks_ascend_on_fig7_kernels(monkeypatch):
    launches = []
    for builder in SYNTHETIC_BUILDERS.values():
        for compile_arm in (compile_baseline, compile_cfm):
            case = builder(block_size=SYNTHETIC_BLOCK_SIZES[0],
                           grid_dim=DEFAULT_GRID_DIM)
            compile_arm(case)
            launches.append(partial(
                run_kernel, case.module, case.kernel, case.grid_dim,
                case.block_dim, case.make_buffers(0), case.scalars))
    schedulers = _assert_masks_ascend(monkeypatch, launches)
    assert any(s.partial for s in schedulers), "no warp ever diverged"


# ---- the selection rules --------------------------------------------------


def test_policy_registry():
    assert RECONVERGENCE_POLICIES == ("ipdom", "min-pc")
    for name in RECONVERGENCE_POLICIES:
        # Every rule name builds a scheduler that runs a warp to the end.
        s = PathScheduler(name, 0, (0, 1))
        assert s.next() == (0, (0, 1), None)
        s.retire()
        assert s.next() == (None, (), None)


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown reconvergence policy 'sdc'"):
        MachineConfig(reconvergence="sdc")


@pytest.mark.parametrize("field, value", [
    ("warp_size", -32), ("warp_size", 0), ("max_warp_steps", 0)])
def test_non_positive_machine_sizes_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive"):
        MachineConfig(**{field: value})


# ---- MachineConfig identity & resolution ----------------------------------


def test_machine_config_equality_and_shared_program():
    a = MachineConfig()
    assert a == MachineConfig()
    minpc = MachineConfig(reconvergence="min-pc")
    reference = MachineConfig(executor="reference")
    assert a != minpc and a != reference
    # Policy and executor are observable fields but not lowering inputs:
    # all three machines share one program entry per latency model.
    function = parse("define void @k() {\nentry:\n  ret void\n}\n")
    program = get_program(function, a)
    assert get_program(function, minpc) is program
    assert get_program(function, reference) is program


# ---- min-PC end-to-end corners --------------------------------------------


DIVERGENT_LOOP = """
define void @divloop(i32 addrspace(1)* %p) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %next, %latch ]
  %acc = phi i32 [ 0, %entry ], [ %acc2, %latch ]
  %cont = icmp slt i32 %i, %tid
  br i1 %cont, label %latch, label %exit
latch:
  %acc2 = add i32 %acc, %i
  %next = add i32 %i, 1
  br label %header
exit:
  %bid = call i32 @llvm.gpu.ctaid.x()
  %bdim = call i32 @llvm.gpu.ntid.x()
  %base = mul i32 %bid, %bdim
  %gtid = add i32 %base, %tid
  %ptr = getelementptr i32, i32 addrspace(1)* %p, i32 %gtid
  store i32 %acc, i32 addrspace(1)* %ptr
  ret void
}
"""


def test_divergent_loop_exit():
    # Lane ``tid`` iterates ``tid`` times, so one lane leaves the loop
    # per iteration.  Under min-PC the leavers park at the exit block
    # (higher PC than the header) and fuse pairwise as each new lane
    # arrives; the loop keeps priority until every lane is out.
    f = parse(DIVERGENT_LOOP)
    per_policy = _run_all(f.module, "divloop", {"p": [-1] * 16})
    expected = [tid * (tid - 1) // 2 for tid in range(8)] * 2
    assert per_policy["min-pc"][0]["p"] == expected
    # Path fusion must not lose or duplicate lanes: every lane retires
    # exactly once and the loop's trip counts stay per-lane exact.
    assert per_policy["ipdom"][1]["cycles"] == \
        per_policy["min-pc"][1]["cycles"]


# ---- the barrier site, under divergence -----------------------------------

CELLS = [(executor, policy) for executor in EXECUTORS
         for policy in RECONVERGENCE_POLICIES]


@pytest.mark.parametrize("executor, policy", CELLS)
def test_barrier_under_divergent_mask(executor, policy):
    # Only the odd lanes reach the barrier inside the branch: the warp
    # must still yield exactly once there and resume with the partial
    # mask intact — in every cell of executor x policy.
    k = KernelBuilder("part_barrier", params=[("data", GLOBAL_I32_PTR)])
    tile = k.shared_array("tile", I32, 8)
    tid = k.thread_id()
    gtid = k.global_thread_id()
    odd = k.icmp(ICmpPredicate.NE, k.and_(tid, k.const(1)), k.const(0))

    def then_side():
        k.store_at(tile, tid, k.mul(tid, k.const(5)))
        k.barrier()

    k.if_(odd, then_side)
    k.store_at(k.param("data"), gtid, k.load_at(tile, tid))
    k.finish()

    def launch(which):
        return run_kernel(
            k.module, "part_barrier", 2, 8, buffers={"data": [0] * 16},
            machine=MachineConfig(executor=which, reconvergence=policy))

    outputs, metrics = launch(executor)
    # Odd lanes stored tid*5 into the shared tile; even lanes read the
    # zero-initialized slots.  Both blocks see a fresh tile window.
    assert outputs["data"] == [0, 5, 0, 15, 0, 25, 0, 35] * 2
    assert metrics.barriers == 2  # one issue per single-warp block
    assert metrics.as_dict() == launch("reference")[1].as_dict()


#: Block 64 = two warps; warp 0 splits at ``tid < 16``, warp 1 is uniform.
BARRIER_IN_THEN_ONLY = """
@tile = shared [64 x i32]

define void @k(i32 addrspace(1)* %p) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %c = icmp slt i32 %tid, 16
  br i1 %c, label %then, label %join
then:
  %t = getelementptr i32, i32 addrspace(3)* @tile, i32 %tid
  store i32 %tid, i32 addrspace(3)* %t
  call void @llvm.gpu.barrier()
  br label %join
join:
  ret void
}
"""

BARRIER_ON_BOTH_SIDES = """
@tile = shared [64 x i32]

define void @k(i32 addrspace(1)* %p) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %t = getelementptr i32, i32 addrspace(3)* @tile, i32 %tid
  %c = icmp slt i32 %tid, 16
  br i1 %c, label %then, label %else
then:
  store i32 1, i32 addrspace(3)* %t
  call void @llvm.gpu.barrier()
  br label %join
else:
  store i32 2, i32 addrspace(3)* %t
  call void @llvm.gpu.barrier()
  br label %join
join:
  ret void
}
"""


@pytest.mark.parametrize("executor, policy", CELLS)
@pytest.mark.parametrize("text", [BARRIER_IN_THEN_ONLY, BARRIER_ON_BOTH_SIDES],
                         ids=["then-only", "both-sides"])
def test_barrier_on_a_divergent_path_across_warps(text, executor, policy):
    # The one barrier site releases per *path*: a warp split around a
    # barrier yields once for each side that reaches it.  Warp 0 (lanes
    # < 16 vs the rest) therefore arrives a different number of times
    # than the uniform warp 1 — once vs never in the first shape, twice
    # vs once in the second — and the block scheduler answers with the
    # typed non-uniform-barrier trap in every cell.  The tight step
    # guard shows the trap is reached directly: a warp left spinning at
    # the barrier would die of "non-termination" instead, and a hang
    # would never return.  (docs/simulator.md, "Known simplifications".)
    f = parse(text)
    machine = MachineConfig(executor=executor, reconvergence=policy,
                            max_warp_steps=8)
    with pytest.raises(SimulationError, match=(
            r"non-uniform barrier: warps \[0\] wait while warps \[1\] "
            r"exited @k")):
        run_kernel(f.module, "k", 1, 64, buffers={"p": [0]}, machine=machine)


UNSTRUCTURED_TAIL = """
define void @tail(i32 addrspace(1)* %p) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %c1 = icmp slt i32 %tid, 4
  br i1 %c1, label %a, label %b
a:
  %c2 = icmp eq i32 %tid, 0
  br i1 %c2, label %d, label %c
b:
  br label %c
c:
  %v = mul i32 %tid, 7
  %bid = call i32 @llvm.gpu.ctaid.x()
  %bdim = call i32 @llvm.gpu.ntid.x()
  %base = mul i32 %bid, %bdim
  %gtid = add i32 %base, %tid
  %ptr = getelementptr i32, i32 addrspace(1)* %p, i32 %gtid
  store i32 %v, i32 addrspace(1)* %ptr
  br label %d
d:
  ret void
}
"""


def test_min_pc_fuses_shared_tail_ipdom_cannot():
    # Unstructured shape: block c is a shared tail of both outer sides
    # but NOT the post-dominator of the entry branch (lane 0 skips it).
    # The IPDOM stack serializes the outer sides, so c executes twice;
    # min-PC fuses the a->c and b->c paths at c's PC and executes it
    # once with the combined mask — strictly fewer cycles.  This is the
    # kernel behind the per-policy goldens (test_policy_goldens).
    f = parse(UNSTRUCTURED_TAIL)
    per_policy = _run_all(f.module, "tail", {"p": [-1] * 16})
    expected = [-1 if tid % 8 == 0 else (tid % 8) * 7 for tid in range(16)]
    assert per_policy["min-pc"][0]["p"] == expected
    assert per_policy["min-pc"][1]["cycles"] < \
        per_policy["ipdom"][1]["cycles"]
