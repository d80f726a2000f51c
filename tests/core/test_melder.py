"""Tests for the melding code generation (Algorithm 2) and unpredication,
including differential execution against the unmelded kernel."""

import pytest

from repro.core import CFMConfig, Side, run_cfm
from repro.ir import Branch, Module, Select, Store, print_function, verify_function
from repro.simt import run_kernel

from tests.support import build_diamond, parse


def run_on_sim(f, buffers, block_dim=8, module=None):
    module = module or Module("t")
    if f.name not in module.functions:
        module.add_function(f)
    out, metrics = run_kernel(module, f.name, 1, block_dim,
                              buffers={k: list(v) for k, v in buffers.items()})
    return out, metrics


class TestDiamondMeld:
    def test_identical_diamond_fully_melds(self):
        f = build_diamond(identical=True)
        stats = run_cfm(f)
        verify_function(f)
        assert len(stats.melds) == 1
        record = stats.melds[0]
        assert record.instructions_unaligned == 0
        # Only the pointer operand differs -> exactly one select.
        assert record.selects_inserted == 1
        # The divergent branch is gone.
        assert not any(
            b.terminator.is_conditional for b in f.blocks
            if isinstance(b.terminator, Branch))

    def test_distinct_diamond_melds_with_gaps(self):
        f = build_diamond(identical=False)
        stats = run_cfm(f)
        verify_function(f)
        assert len(stats.melds) == 1
        assert stats.melds[0].instructions_unaligned > 0

    def test_melded_diamond_computes_same(self):
        data_a = list(range(10, 18))
        data_b = list(range(50, 58))
        base = build_diamond(identical=False)
        out_base, _ = run_on_sim(base, {"a": data_a, "b": data_b})

        melded = build_diamond(identical=False)
        run_cfm(melded)
        out_melded, _ = run_on_sim(melded, {"a": data_a, "b": data_b})
        assert out_base == out_melded

    def test_meld_reduces_cycles_and_improves_alu(self):
        data = {"a": list(range(8)), "b": list(range(100, 108))}
        base = build_diamond(identical=True)
        _, metrics_base = run_on_sim(base, data)
        melded = build_diamond(identical=True)
        run_cfm(melded)
        _, metrics_melded = run_on_sim(melded, data)
        assert metrics_melded.cycles < metrics_base.cycles
        assert metrics_melded.alu_utilization > metrics_base.alu_utilization


class TestSelectPlacement:
    def test_equal_operands_share_without_select(self):
        f = parse("""
define void @k(i32 addrspace(1)* %data, i32 %n) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %c = icmp slt i32 %tid, %n
  br i1 %c, label %a, label %b
a:
  %pa = getelementptr i32, i32 addrspace(1)* %data, i32 %tid
  %va = load i32, i32 addrspace(1)* %pa
  %ra = add i32 %va, 1
  store i32 %ra, i32 addrspace(1)* %pa
  br label %m
b:
  %pb = getelementptr i32, i32 addrspace(1)* %data, i32 %tid
  %vb = load i32, i32 addrspace(1)* %pb
  %rb = add i32 %vb, 1
  store i32 %rb, i32 addrspace(1)* %pb
  br label %m
m:
  ret void
}
""")
        stats = run_cfm(f)
        verify_function(f)
        assert len(stats.melds) == 1
        # Both sides compute on identical operands: no selects at all.
        assert stats.melds[0].selects_inserted == 0

    def test_condition_reused_for_selects(self):
        f = build_diamond(identical=True)
        cond = [i for i in f.entry if i.name == "cond"][0]
        run_cfm(f)
        selects = [i for i in f.instructions() if isinstance(i, Select)]
        assert selects
        for select in selects:
            assert select.condition is cond


class TestComplexMeld:
    COMPLEX = """
define void @k(i32 addrspace(1)* %a, i32 addrspace(1)* %b, i32 %n) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %c = icmp slt i32 %tid, %n
  br i1 %c, label %t, label %f
t:
  %tp = getelementptr i32, i32 addrspace(1)* %a, i32 %tid
  %tv = load i32, i32 addrspace(1)* %tp
  %tc = icmp sgt i32 %tv, 100
  br i1 %tc, label %tt, label %te
tt:
  store i32 0, i32 addrspace(1)* %tp
  br label %te
te:
  br label %m
f:
  %fp = getelementptr i32, i32 addrspace(1)* %b, i32 %tid
  %fv = load i32, i32 addrspace(1)* %fp
  %fc = icmp sgt i32 %fv, 100
  br i1 %fc, label %ft, label %fe
ft:
  store i32 0, i32 addrspace(1)* %fp
  br label %fe
fe:
  br label %m
m:
  ret void
}
"""

    def test_if_then_regions_meld(self):
        f = parse(self.COMPLEX)
        stats = run_cfm(f)
        verify_function(f)
        assert len(stats.melds) == 1
        assert len(stats.melds[0].alignment) >= 3

    def test_complex_meld_preserves_semantics(self):
        data = {"a": [5, 200, 99, 150, 7, 101, 300, 100],
                "b": [150, 2, 250, 80, 120, 90, 40, 101]}
        base = parse(self.COMPLEX)
        melded = parse(self.COMPLEX)
        run_cfm(melded)
        verify_function(melded)

        m1, m2 = Module("m1"), Module("m2")
        m1.add_function(base)
        m2.add_function(melded)
        out1, _ = run_kernel(m1, "k", 1, 8, buffers=dict(
            a=list(data["a"]), b=list(data["b"])), scalars={"n": 4})
        out2, _ = run_kernel(m2, "k", 1, 8, buffers=dict(
            a=list(data["a"]), b=list(data["b"])), scalars={"n": 4})
        assert out1 == out2

    def test_threshold_blocks_melding(self):
        f = parse(self.COMPLEX)
        stats = run_cfm(f, CFMConfig(profitability_threshold=0.99))
        assert not stats.melds
        assert stats.pairs_rejected_unprofitable > 0


class TestAsymmetricPaths:
    """Melding when the pair sits at different positions on each path."""

    ASYM = """
define void @k(i32 addrspace(1)* %a, i32 addrspace(1)* %b, i32 %n) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %c = icmp slt i32 %tid, %n
  br i1 %c, label %pre, label %f
pre:
  %zp = getelementptr i32, i32 addrspace(1)* %a, i32 0
  %z = load i32, i32 addrspace(1)* %zp
  br label %t
t:
  %tp = getelementptr i32, i32 addrspace(1)* %a, i32 %tid
  %tv = load i32, i32 addrspace(1)* %tp
  %tr = add i32 %tv, 1
  store i32 %tr, i32 addrspace(1)* %tp
  br label %m
f:
  %fp = getelementptr i32, i32 addrspace(1)* %b, i32 %tid
  %fv = load i32, i32 addrspace(1)* %fp
  %fr = add i32 %fv, 1
  store i32 %fr, i32 addrspace(1)* %fp
  br label %m
m:
  ret void
}
"""

    def test_second_true_subgraph_melds_with_first_false(self):
        f = parse(self.ASYM)
        stats = run_cfm(f)
        verify_function(f)
        assert len(stats.melds) == 1
        assert stats.melds[0].true_entry == "t"
        assert stats.melds[0].false_entry == "f"

    def test_asymmetric_meld_preserves_semantics(self):
        base = parse(self.ASYM)
        melded = parse(self.ASYM)
        run_cfm(melded)

        m1, m2 = Module("m1"), Module("m2")
        m1.add_function(base)
        m2.add_function(melded)
        buffers = {"a": list(range(8)), "b": list(range(20, 28))}
        out1, _ = run_kernel(m1, "k", 1, 8,
                             buffers={k: list(v) for k, v in buffers.items()},
                             scalars={"n": 5})
        out2, _ = run_kernel(m2, "k", 1, 8,
                             buffers={k: list(v) for k, v in buffers.items()},
                             scalars={"n": 5})
        assert out1 == out2


class TestUnpredication:
    GAPPY = """
define void @k(i32 addrspace(1)* %a, i32 addrspace(1)* %b, i32 %n) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %c = icmp slt i32 %tid, %n
  br i1 %c, label %t, label %f
t:
  %tp = getelementptr i32, i32 addrspace(1)* %a, i32 %tid
  %tv = load i32, i32 addrspace(1)* %tp
  %tr = add i32 %tv, 1
  store i32 %tr, i32 addrspace(1)* %tp
  br label %m
f:
  %fp = getelementptr i32, i32 addrspace(1)* %b, i32 %tid
  %fv = load i32, i32 addrspace(1)* %fp
  %f1 = mul i32 %fv, 3
  %f2 = xor i32 %f1, 5
  %fr = sub i32 %f2, 1
  store i32 %fr, i32 addrspace(1)* %fp
  br label %m
m:
  ret void
}
"""

    def test_gap_instructions_guarded(self):
        f = parse(self.GAPPY)
        stats = run_cfm(f)
        verify_function(f)
        assert stats.melds
        assert stats.melds[0].instructions_unaligned > 0
        # Unpredication reintroduces conditional flow for the gap runs.
        conditionals = [b for b in f.blocks
                        if isinstance(b.terminator, Branch)
                        and b.terminator.is_conditional]
        assert conditionals

    def test_gappy_meld_preserves_semantics(self):
        base = parse(self.GAPPY)
        melded = parse(self.GAPPY)
        run_cfm(melded)
        m1, m2 = Module("m1"), Module("m2")
        m1.add_function(base)
        m2.add_function(melded)
        buffers = {"a": list(range(8)), "b": list(range(40, 48))}
        out1, _ = run_kernel(m1, "k", 1, 8,
                             buffers={k: list(v) for k, v in buffers.items()},
                             scalars={"n": 3})
        out2, _ = run_kernel(m2, "k", 1, 8,
                             buffers={k: list(v) for k, v in buffers.items()},
                             scalars={"n": 3})
        assert out1 == out2

    def test_unpredication_disabled_still_correct_for_pure_gaps(self):
        # With unpredication restricted to side-effecting runs, pure ALU
        # gaps execute for everyone; results must be unchanged.
        base = parse(self.GAPPY)
        melded = parse(self.GAPPY)
        run_cfm(melded, CFMConfig(split_pure_runs=False))
        verify_function(melded)
        m1, m2 = Module("m1"), Module("m2")
        m1.add_function(base)
        m2.add_function(melded)
        buffers = {"a": list(range(8)), "b": list(range(40, 48))}
        out1, _ = run_kernel(m1, "k", 1, 8,
                             buffers={k: list(v) for k, v in buffers.items()},
                             scalars={"n": 3})
        out2, _ = run_kernel(m2, "k", 1, 8,
                             buffers={k: list(v) for k, v in buffers.items()},
                             scalars={"n": 3})
        assert out1 == out2


class TestStatsSurfaces:
    def test_cfm_stats_aggregates(self):
        from repro.core import run_cfm

        f = build_diamond(identical=True)
        stats = run_cfm(f)
        assert stats.changed
        assert stats.iterations >= 2  # one meld + one fixpoint check
        assert stats.total_selects == sum(m.selects_inserted for m in stats.melds)
        assert stats.total_melded_instructions > 0
        assert stats.seconds > 0

    def test_max_iterations_bounds_work(self):
        from repro.core import CFMConfig, run_cfm
        from tests.support import parse as parse_ir

        # Bitonic-style kernel would meld many times; cap at 1 iteration.
        from repro.kernels import build_bitonic
        from repro.transforms import optimize

        case = build_bitonic(block_size=16, grid_dim=1)
        optimize(case.function)
        stats = run_cfm(case.function, CFMConfig(max_iterations=1))
        assert stats.iterations == 1
        assert len(stats.melds) <= 1
