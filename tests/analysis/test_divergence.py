"""Tests for the GPU divergence analysis."""

import repro
from repro.analysis import cached_divergence, compute_divergence
from repro.analysis import compute_loop_info
from repro.analysis.divergence import _join_blocks, _live_outs
from repro.ir import I32, Call, Constant, IntrinsicName, Load

from tests.support import build_diamond, parse


class TestSeeds:
    def test_tid_is_divergent(self):
        f = build_diamond()
        info = compute_divergence(f)
        tid = next(i for i in f.instructions()
                   if isinstance(i, Call) and i.callee == IntrinsicName.TID_X)
        assert info.is_divergent(tid)

    def test_arguments_uniform_by_default(self):
        f = build_diamond()
        info = compute_divergence(f)
        assert info.is_uniform(f.args[0])
        assert info.is_uniform(f.args[1])

    def test_explicit_divergent_argument(self):
        f = parse("""
define void @k(i32 %x) {
entry:
  %y = add i32 %x, 1
  ret void
}
""")
        info = compute_divergence(f, divergent_args=[f.args[0]])
        assert info.is_divergent(f.args[0])
        y = f.entry.instructions[0]
        assert info.is_divergent(y)


class TestDataDependence:
    def test_taint_propagates_through_arithmetic(self):
        f = parse("""
define void @k(i32 addrspace(1)* %p, i32 %n) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %a = add i32 %tid, 1
  %b = mul i32 %a, 2
  %u = add i32 %n, 3
  ret void
}
""")
        info = compute_divergence(f)
        entry = f.entry
        tid, a, b, u = entry.instructions[:4]
        assert info.is_divergent(a)
        assert info.is_divergent(b)
        assert info.is_uniform(u)

    def test_load_divergent_iff_pointer_divergent(self):
        f = parse("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %dptr = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  %dval = load i32, i32 addrspace(1)* %dptr
  %uptr = getelementptr i32, i32 addrspace(1)* %p, i32 0
  %uval = load i32, i32 addrspace(1)* %uptr
  ret void
}
""")
        info = compute_divergence(f)
        loads = [i for i in f.instructions() if isinstance(i, Load)]
        assert info.is_divergent(loads[0])
        assert info.is_uniform(loads[1])


class TestBranchClassification:
    def test_divergent_branch_detected(self):
        f = build_diamond()
        info = compute_divergence(f)
        assert info.has_divergent_branch(f.entry)

    def test_uniform_branch_not_divergent(self):
        f = parse("""
define void @k(i32 %n) {
entry:
  %c = icmp slt i32 %n, 10
  br i1 %c, label %a, label %b
a:
  br label %b
b:
  ret void
}
""")
        info = compute_divergence(f)
        assert not info.has_divergent_branch(f.entry)
        assert info.divergent_branch_blocks == set()


class TestSyncDependence:
    def test_phi_at_divergent_join_is_divergent(self):
        f = parse("""
define void @k(i32 %n) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %c = icmp slt i32 %tid, %n
  br i1 %c, label %a, label %b
a:
  br label %m
b:
  br label %m
m:
  %p = phi i32 [ 1, %a ], [ 2, %b ]
  ret void
}
""")
        info = compute_divergence(f)
        phi = f.block_by_name("m").phis[0]
        # Incoming values are uniform constants, but WHICH one arrives
        # depends on the thread: sync dependence.
        assert info.is_divergent(phi)

    def test_phi_at_uniform_join_stays_uniform(self):
        f = parse("""
define void @k(i32 %n) {
entry:
  %c = icmp slt i32 %n, 10
  br i1 %c, label %a, label %b
a:
  br label %m
b:
  br label %m
m:
  %p = phi i32 [ 1, %a ], [ 2, %b ]
  ret void
}
""")
        info = compute_divergence(f)
        phi = f.block_by_name("m").phis[0]
        assert info.is_uniform(phi)

    def test_loop_live_out_temporal_divergence(self):
        # Threads leave the loop at different iterations -> values defined
        # in the loop and used OUTSIDE it are divergent (temporal
        # divergence), while the counter stays uniform for active threads.
        f = parse("""
define void @k(i32 addrspace(1)* %out) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %ni, %h ]
  %ni = add i32 %i, 1
  %c = icmp slt i32 %ni, %tid
  br i1 %c, label %h, label %exit
exit:
  %p = getelementptr i32, i32 addrspace(1)* %out, i32 0
  store i32 %ni, i32 addrspace(1)* %p
  ret void
}
""")
        info = compute_divergence(f)
        assert info.has_divergent_branch(f.block_by_name("h"))
        h = f.block_by_name("h")
        ni = h.instructions[1]
        assert ni.name == "ni"
        # %ni is used in %exit, outside the loop: temporally divergent.
        assert info.is_divergent(ni)

    def test_loop_internal_value_stays_uniform(self):
        # The same loop, but nothing escapes: the counter phi is uniform
        # across the still-active threads.
        f = parse("""
define void @k() {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %ni, %h ]
  %ni = add i32 %i, 1
  %c = icmp slt i32 %ni, %tid
  br i1 %c, label %h, label %exit
exit:
  ret void
}
""")
        info = compute_divergence(f)
        phi = f.block_by_name("h").phis[0]
        assert info.is_uniform(phi)

    def test_join_blocks_nested_diamonds(self):
        # Two divergent diamonds, one nested in the outer's then-path.
        # Each branch's joins are ITS OWN merge point: the inner merge is
        # reachable from only one outer successor, so it joins only the
        # inner branch; the outer merge is the outer branch's IPDOM.
        f = parse("""
define void @k(i32 %n) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %c = icmp slt i32 %tid, %n
  br i1 %c, label %a, label %b
a:
  %c2 = icmp slt i32 %tid, 4
  br i1 %c2, label %it, label %if
it:
  br label %im
if:
  br label %im
im:
  %pi = phi i32 [ 1, %it ], [ 2, %if ]
  br label %m
b:
  br label %m
m:
  %po = phi i32 [ %pi, %im ], [ 0, %b ]
  ret void
}
""")
        blocks = {name: f.block_by_name(name) for name in
                  ("entry", "a", "im", "m")}
        assert _join_blocks(blocks["entry"]) == {blocks["m"]}
        assert _join_blocks(blocks["a"]) == {blocks["im"]}
        info = compute_divergence(f)
        assert info.is_divergent(blocks["im"].phis[0])
        assert info.is_divergent(blocks["m"].phis[0])

    def test_join_blocks_cut_at_loop_reconvergence(self):
        # A divergent diamond INSIDE a uniform loop: the joins of the
        # diamond's branch stop at its IPDOM (the latch), never flowing
        # around the backedge into the loop header — the simulator
        # reconverges the warp at the IPDOM, so the header phi stays
        # uniform.
        f = parse("""
define void @k(i32 %n) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %ni, %l ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %x
body:
  %d = icmp slt i32 %tid, %i
  br i1 %d, label %t, label %f
t:
  br label %l
f:
  br label %l
l:
  %p = phi i32 [ 1, %t ], [ 2, %f ]
  %ni = add i32 %i, 1
  br label %h
x:
  ret void
}
""")
        body, latch, header = (f.block_by_name(n) for n in ("body", "l", "h"))
        assert _join_blocks(body) == {latch}
        info = compute_divergence(f)
        assert info.is_divergent(latch.phis[0])       # the diamond's join
        assert info.is_uniform(header.phis[0])        # NOT tainted via backedge
        assert not info.has_divergent_branch(header)  # uniform exit

    def test_join_blocks_non_conditional(self):
        f = parse("""
define void @k() {
entry:
  br label %x
x:
  ret void
}
""")
        assert _join_blocks(f.entry) == set()

    def test_transitive_branch_divergence(self):
        # A uniform-looking branch whose condition depends on a
        # sync-divergent phi must itself become divergent.
        f = parse("""
define void @k(i32 %n) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %c = icmp slt i32 %tid, %n
  br i1 %c, label %a, label %b
a:
  br label %m
b:
  br label %m
m:
  %p = phi i32 [ 1, %a ], [ 2, %b ]
  %c2 = icmp eq i32 %p, 1
  br i1 %c2, label %x, label %y
x:
  br label %y
y:
  ret void
}
""")
        info = compute_divergence(f)
        assert info.has_divergent_branch(f.block_by_name("m"))


LOOP_LIVE_OUT = """
define void @k(i32 addrspace(1)* %out) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %ni, %h ]
  %ni = add i32 %i, 1
  %c = icmp slt i32 %ni, %tid
  br i1 %c, label %h, label %exit
exit:
  %p = getelementptr i32, i32 addrspace(1)* %out, i32 0
  store i32 %ni, i32 addrspace(1)* %p
  ret void
}
"""


class TestTemporalDivergenceUnit:
    """The temporal-divergence step in isolation: ``_live_outs`` names
    what a divergently-exiting loop taints, and the fixpoint applies it
    to such loops only."""

    def test_live_out_of_divergently_exiting_loop(self):
        f = parse(LOOP_LIVE_OUT)
        phi, ni = f.block_by_name("h").instructions[:2]
        (loop,) = compute_loop_info(f).loops
        # Only the value USED outside the loop is temporally divergent;
        # the phi never escapes and stays as-is.
        assert _live_outs(loop) == [ni]
        info = compute_divergence(f)
        assert info.is_divergent(ni)
        assert phi in info.divergent_values  # via data dependence on %ni

    def test_no_divergent_exit_no_marking(self):
        # The same loop leaving on a uniform condition: nothing to mark.
        f = parse(LOOP_LIVE_OUT.replace("%ni, %tid", "%ni, 8"))
        h = f.block_by_name("h")
        info = compute_divergence(f)
        assert not info.has_divergent_branch(h)
        assert info.is_uniform(h.instructions[1])

    def test_idempotent_second_call(self):
        from tests.analysis.reference_divergence import mark_temporal_divergence

        f = parse(LOOP_LIVE_OUT)
        info = compute_divergence(f)
        # Fixpoint discipline: the reference's temporal sweep finds
        # nothing new in the sparse analysis' result.
        assert mark_temporal_divergence(
            f, info.divergent_values, info.divergent_branch_blocks) is False


class TestDivergenceMemo:
    def test_cached_returns_same_object(self):
        f = build_diamond()
        assert cached_divergence(f) is cached_divergence(f)

    def test_in_place_operand_rewrite_misses(self):
        # Replacing every use of SB1's ``tid`` by a constant changes no
        # block and no block length, only operands: the memo must see
        # it without being told.
        case = repro.ALL_BUILDERS["SB1"](block_size=32)
        f = case.function
        assert repro.analyze(f).divergent_branch_blocks
        tid = next(i for i in f.instructions()
                   if isinstance(i, Call) and i.callee == IntrinsicName.TID_X)
        tid.replace_all_uses_with(Constant(I32, 0))
        cached, fresh = repro.analyze(f), compute_divergence(f)
        assert cached.divergent_branch_blocks == fresh.divergent_branch_blocks
        assert cached.divergent_values == fresh.divergent_values
        assert not fresh.divergent_branch_blocks

    def test_structural_change_misses_automatically(self):
        from repro.ir import IRBuilder

        f = build_diamond()
        first = cached_divergence(f)
        # Growing the function changes the fingerprint: no stale hit
        # even without an explicit invalidate.
        block = f.add_block("appendix")
        IRBuilder(block).ret()
        assert cached_divergence(f) is not first

    def test_memo_does_not_keep_function_alive(self):
        # DivergenceInfo references its function; a process-level table
        # of results (even a weak-keyed one) would pin every analysed
        # function for the life of the process.
        import gc
        import weakref

        f = build_diamond()
        cached_divergence(f)
        ref = weakref.ref(f)
        del f
        gc.collect()
        assert ref() is None
