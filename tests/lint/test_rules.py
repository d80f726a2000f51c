"""Each built-in rule: one minimal triggering kernel + one clean twin.

The triggering kernels here are the same ones docs/lint.md's rule
catalog shows — keep the two in sync.
"""

import pytest

import repro
from repro.lint import lint_kernel, run_lint
from repro.obs import MeldingDecision

from tests.support import parse


def _diamond_with_barrier(guarded: bool):
    """Barrier either under a divergent if (guarded) or at top level."""
    k = repro.KernelBuilder("k", params=[("data", repro.GLOBAL_I32_PTR)])
    tid = k.thread_id()
    odd = k.icmp(repro.ICmpPredicate.EQ, k.and_(tid, k.const(1)), k.const(1))
    if guarded:
        k.if_(odd, lambda: k.barrier())
    else:
        k.if_(odd, lambda: k.store_at(k.param("data"), tid, tid))
        k.barrier()
    k.finish()
    return k.function


class TestBarrierDivergence:
    def test_barrier_under_divergent_if_is_error(self):
        report = run_lint(_diamond_with_barrier(guarded=True))
        findings = report.by_rule("barrier-divergence")
        assert len(findings) == 1
        assert findings[0].is_error
        assert "divergent" in findings[0].message

    def test_top_level_barrier_is_clean(self):
        report = run_lint(_diamond_with_barrier(guarded=False))
        assert report.by_rule("barrier-divergence") == []
        assert report.ok

    def test_barrier_in_divergently_exiting_loop_is_error(self):
        # The loop body is control-dependent on the divergent exit: part
        # of the warp may still be looping when the rest has left.
        f = parse("""
define void @k() {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %ni, %h ]
  call void @llvm.gpu.barrier()
  %ni = add i32 %i, 1
  %c = icmp slt i32 %ni, %tid
  br i1 %c, label %h, label %x
x:
  ret void
}
""")
        report = run_lint(f, rules=["barrier-divergence"])
        assert len(report.by_rule("barrier-divergence")) == 1

    def test_barrier_in_uniform_loop_is_clean(self):
        f = parse("""
define void @k(i32 %n) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %ni, %h ]
  call void @llvm.gpu.barrier()
  %ni = add i32 %i, 1
  %c = icmp slt i32 %ni, %n
  br i1 %c, label %h, label %x
x:
  ret void
}
""")
        report = run_lint(f, rules=["barrier-divergence"])
        assert report.ok


def _staged_kernel(with_barrier: bool, neighbour: str = "mul"):
    """store shared[tid]; [barrier]; load shared[<neighbour index>]."""
    k = repro.KernelBuilder("k", params=[("data", repro.GLOBAL_I32_PTR)])
    tid = k.thread_id()
    buf = k.shared_array("buf", repro.I32, 64)
    k.store_at(buf, tid, k.load_at(k.param("data"), tid))
    if with_barrier:
        k.barrier()
    if neighbour == "mul":
        index = k.mul(tid, k.const(2))       # different divergent term
    elif neighbour == "bucket":
        index = k.add(tid, k.const(1))       # same term + uniform offset
    else:
        index = tid                           # same term exactly
    k.store_at(k.param("data"), tid, k.load_at(buf, index))
    k.finish()
    return k.function


class TestSharedMemoryRace:
    def test_unbarriered_neighbour_load_is_error(self):
        report = run_lint(_staged_kernel(with_barrier=False))
        findings = report.by_rule("shared-memory-race")
        assert len(findings) == 1
        assert findings[0].is_error
        assert "'buf'" in findings[0].message

    def test_barrier_cuts_the_race(self):
        assert run_lint(_staged_kernel(with_barrier=True)).ok

    def test_same_divergent_term_is_thread_private(self):
        # add(tid, 1) shares tid with the store index: each thread stays
        # in its own slot group — the generator's bucket discipline.
        assert run_lint(_staged_kernel(False, neighbour="bucket")).ok

    def test_same_index_value_is_clean(self):
        assert run_lint(_staged_kernel(False, neighbour="same")).ok

    def test_uniform_store_index_is_clean(self):
        f = parse("""
define void @k(i32 addrspace(3)* %buf) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %p0 = getelementptr i32, i32 addrspace(3)* %buf, i32 0
  store i32 7, i32 addrspace(3)* %p0
  %pt = getelementptr i32, i32 addrspace(3)* %buf, i32 %tid
  %v = load i32, i32 addrspace(3)* %pt
  ret void
}
""")
        assert run_lint(f, rules=["shared-memory-race"]).ok


class TestUndefUse:
    def test_branch_on_undef_is_error(self):
        f = parse("""
define void @k() {
entry:
  br i1 undef, label %a, label %b
a:
  br label %b
b:
  ret void
}
""")
        findings = run_lint(f, rules=["undef-use"]).by_rule("undef-use")
        assert len(findings) == 1
        assert findings[0].is_error

    def test_select_on_undef_is_warning(self):
        f = parse("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %v = select i1 undef, i32 1, i32 2
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 0
  store i32 %v, i32 addrspace(1)* %g
  ret void
}
""")
        findings = run_lint(f, rules=["undef-use"]).by_rule("undef-use")
        assert len(findings) == 1
        assert findings[0].severity == "warning"

    def test_store_of_undef_is_warning(self):
        f = parse("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 0
  store i32 undef, i32 addrspace(1)* %g
  ret void
}
""")
        report = run_lint(f, rules=["undef-use"])
        assert len(report.warnings) == 1

    def test_phi_undef_incoming_exempt(self):
        # SSA repair and unpredication create these legally (Fig. 3c).
        f = parse("""
define void @k(i1 %c) {
entry:
  br i1 %c, label %a, label %m
a:
  br label %m
m:
  %p = phi i32 [ 1, %a ], [ undef, %entry ]
  ret void
}
""")
        assert run_lint(f, rules=["undef-use"]).diagnostics == []


class TestDeadStore:
    def test_overwritten_store_is_warning(self):
        f = parse("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 0
  store i32 1, i32 addrspace(1)* %g
  store i32 2, i32 addrspace(1)* %g
  ret void
}
""")
        findings = run_lint(f, rules=["dead-store"]).by_rule("dead-store")
        assert len(findings) == 1
        assert findings[0].severity == "warning"

    def test_intervening_load_clears(self):
        f = parse("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 0
  store i32 1, i32 addrspace(1)* %g
  %v = load i32, i32 addrspace(1)* %g
  store i32 2, i32 addrspace(1)* %g
  ret void
}
""")
        assert run_lint(f, rules=["dead-store"]).diagnostics == []


class TestUnreachableBlock:
    def test_orphan_block_is_warning(self):
        f = parse("""
define void @k() {
entry:
  ret void
orphan:
  ret void
}
""")
        findings = run_lint(f).by_rule("unreachable-block")
        assert [d.block for d in findings] == ["orphan"]


GUARDED = """
define void @k(i1 %c) {
entry:
  br i1 %c, label %g, label %m
g:
  br label %m
m:
  ret void
}
"""

UNGUARDED = """
define void @k() {
entry:
  br label %g
g:
  br label %m
m:
  ret void
}
"""


def _decision(**overrides):
    base = dict(iteration=1, region_entry="entry", action="melded",
                reason="", threshold=0.1)
    base.update(overrides)
    return MeldingDecision(**base)


class TestMeldLegality:
    def test_uniform_branch_meld_is_error(self):
        f = parse(GUARDED)
        report = run_lint(f, rules=["meld-legality"],
                          decisions=[_decision(branch_divergent=False)])
        findings = report.by_rule("meld-legality")
        assert len(findings) == 1
        assert "uniform" in findings[0].message

    def test_divergent_branch_meld_is_clean(self):
        f = parse(GUARDED)
        report = run_lint(f, rules=["meld-legality"],
                          decisions=[_decision(branch_divergent=True)])
        assert report.ok

    def test_guard_block_must_sit_behind_conditional(self):
        bad = run_lint(parse(UNGUARDED), rules=["meld-legality"],
                       decisions=[_decision(branch_divergent=True,
                                            guard_blocks=["g"])])
        assert len(bad.by_rule("meld-legality")) == 1
        good = run_lint(parse(GUARDED), rules=["meld-legality"],
                        decisions=[_decision(branch_divergent=True,
                                             guard_blocks=["g"])])
        assert good.ok

    def test_vanished_guard_block_skipped(self):
        # A later pass may fold the guard away entirely — nothing to audit.
        report = run_lint(parse(GUARDED), rules=["meld-legality"],
                          decisions=[_decision(branch_divergent=True,
                                               guard_blocks=["gone"])])
        assert report.ok

    def test_rejected_decisions_not_audited(self):
        report = run_lint(
            parse(GUARDED), rules=["meld-legality"],
            decisions=[_decision(action="rejected-unprofitable",
                                 branch_divergent=False)])
        assert report.ok

    def test_cfm_compile_decisions_audit_clean(self):
        # End to end: a real compile's decision log passes its own audit.
        case = repro.ALL_BUILDERS["SB1"]()
        compiled = repro.compile(case, cfm=True)
        assert compiled.melds > 0
        report = repro.lint(compiled)
        assert "meld-legality" in report.rules_run
        assert report.ok

    def test_lint_kernel_reads_a_compile_reports_decision_log(self):
        compiled = repro.compile(repro.ALL_BUILDERS["SB1"](), cfm=True)
        compiled.cfm_stats.decisions.append(_decision(branch_divergent=False))
        report = lint_kernel(compiled, rules=["meld-legality"])
        assert len(report.by_rule("meld-legality")) == 1
        with pytest.raises(TypeError, match="expected a Function"):
            lint_kernel("nope")


def _indexed_shared_kernel(index_kind: str):
    """Access an 8-element shared array through a range-analyzable index."""
    k = repro.KernelBuilder("k", params=[("data", repro.GLOBAL_I32_PTR)])
    tid = k.thread_id()
    buf = k.shared_array("buf", repro.I32, 8)
    if index_kind == "oob":
        index = k.add(k.and_(tid, k.const(3)), k.const(16))   # [16, 19]
    elif index_kind == "masked":
        index = k.and_(tid, k.const(7))                        # [0, 7]
    else:
        index = tid                                            # [0, +max]
    k.store_at(buf, index, tid)
    k.barrier()
    k.store_at(k.param("data"), tid, k.load_at(buf, index))
    k.finish()
    return k.function


class TestOutOfBoundsAccess:
    def test_provably_oob_index_is_error(self):
        report = run_lint(_indexed_shared_kernel("oob"),
                          rules=["out-of-bounds-access"])
        findings = report.by_rule("out-of-bounds-access")
        # Both the staging store and the permuted load use the index.
        assert len(findings) == 2
        assert all(f.is_error for f in findings)
        assert "@buf[0..7]" in findings[0].message
        assert findings[0].data["element_count"] == 8

    def test_masked_index_is_clean(self):
        report = run_lint(_indexed_shared_kernel("masked"),
                          rules=["out-of-bounds-access"])
        assert report.by_rule("out-of-bounds-access") == []
        assert report.ok

    def test_unprovable_index_is_not_accused(self):
        # tid's interval overlaps [0, 7]: possibly in bounds, no claim.
        report = run_lint(_indexed_shared_kernel("raw"),
                          rules=["out-of-bounds-access"])
        assert report.by_rule("out-of-bounds-access") == []


def _branch_kernel(decided: bool):
    k = repro.KernelBuilder("k", params=[("data", repro.GLOBAL_I32_PTR)])
    tid = k.thread_id()
    if decided:
        # tid is seeded non-negative: the guard can never be false.
        cond = k.icmp(repro.ICmpPredicate.SGE, tid, k.const(0))
    else:
        cond = k.icmp(repro.ICmpPredicate.EQ, k.and_(tid, k.const(1)),
                      k.const(0))
    k.if_(cond, lambda: k.store_at(k.param("data"), tid, tid))
    k.finish()
    return k.function


class TestTautologicalBranch:
    def test_always_true_guard_is_warned(self):
        report = run_lint(_branch_kernel(decided=True),
                          rules=["tautological-branch"])
        findings = report.by_rule("tautological-branch")
        assert len(findings) == 1
        assert findings[0].severity == "warning"
        assert "always true" in findings[0].message
        assert "statically dead" in findings[0].message
        assert findings[0].data["always"] is True
        # Warnings do not fail the report.
        assert report.ok

    def test_divergent_guard_is_clean(self):
        report = run_lint(_branch_kernel(decided=False),
                          rules=["tautological-branch"])
        assert report.by_rule("tautological-branch") == []


class TestMeldLegalityValidationAudit:
    def test_inequivalent_accepted_meld_is_error(self):
        report = run_lint(parse(GUARDED), rules=["meld-legality"],
                          decisions=[_decision(branch_divergent=True,
                                               validation="INEQUIVALENT")])
        findings = report.by_rule("meld-legality")
        assert len(findings) == 1
        assert "INEQUIVALENT" in findings[0].message

    def test_equivalent_verdict_is_clean(self):
        report = run_lint(parse(GUARDED), rules=["meld-legality"],
                          decisions=[_decision(branch_divergent=True,
                                               validation="EQUIVALENT")])
        assert report.ok

    def test_unsupported_verdict_is_not_a_conviction(self):
        report = run_lint(parse(GUARDED), rules=["meld-legality"],
                          decisions=[_decision(branch_divergent=True,
                                               validation="UNSUPPORTED")])
        assert report.ok
