"""Tests for if-conversion (speculation) and SSA dominance repair."""

import pytest

from repro.ir import F32, I32, Select, Undef, VerificationError, verify_function
from repro.simt import MachineConfig, run_kernel
from repro.transforms import optimize, repair_ssa, speculate_hammocks

from tests.support import parse


class TestSpeculate:
    def test_pure_diamond_flattens_to_select(self):
        f = parse("""
define void @k(i1 %c, i32 %x, i32 addrspace(1)* %p) {
entry:
  br i1 %c, label %a, label %b
a:
  %t = add i32 %x, 1
  br label %m
b:
  %e = mul i32 %x, 2
  br label %m
m:
  %r = phi i32 [ %t, %a ], [ %e, %b ]
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 0
  store i32 %r, i32 addrspace(1)* %g
  ret void
}
""")
        assert speculate_hammocks(f)
        verify_function(f)
        # The arms are gone; merging entry with m is SimplifyCFG's job.
        assert len(f.blocks) == 2
        assert any(isinstance(i, Select) for i in f.entry)
        from repro.transforms import simplify_cfg

        simplify_cfg(f)
        assert len(f.blocks) == 1

    def test_triangle_flattens(self):
        f = parse("""
define void @k(i1 %c, i32 %x, i32 addrspace(1)* %p) {
entry:
  br i1 %c, label %a, label %m
a:
  %t = add i32 %x, 1
  br label %m
m:
  %r = phi i32 [ %t, %a ], [ %x, %entry ]
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 0
  store i32 %r, i32 addrspace(1)* %g
  ret void
}
""")
        assert speculate_hammocks(f)
        verify_function(f)
        assert any(isinstance(i, Select) for i in f.entry)

    def test_arm_with_store_not_speculated(self):
        f = parse("""
define void @k(i1 %c, i32 addrspace(1)* %p) {
entry:
  br i1 %c, label %a, label %b
a:
  store i32 1, i32 addrspace(1)* %p
  br label %m
b:
  br label %m
m:
  ret void
}
""")
        assert not speculate_hammocks(f)

    def test_arm_with_division_not_speculated(self):
        f = parse("""
define void @k(i1 %c, i32 %x, i32 %y) {
entry:
  br i1 %c, label %a, label %m
a:
  %d = sdiv i32 %x, %y
  br label %m
m:
  %r = phi i32 [ %d, %a ], [ 0, %entry ]
  ret void
}
""")
        assert not speculate_hammocks(f)

    def test_large_arm_not_speculated(self):
        lines = "\n".join(f"  %v{i} = add i32 %x, {i}" for i in range(20))
        f = parse(f"""
define void @k(i1 %c, i32 %x) {{
entry:
  br i1 %c, label %a, label %m
a:
{lines}
  br label %m
m:
  %r = phi i32 [ %v19, %a ], [ 0, %entry ]
  ret void
}}
""")
        assert not speculate_hammocks(f)

    def test_merge_with_extra_pred_keeps_phi(self):
        f = parse("""
define void @k(i1 %c, i1 %d, i32 %x) {
entry:
  br i1 %d, label %head, label %m
head:
  br i1 %c, label %a, label %b
a:
  %t = add i32 %x, 1
  br label %m
b:
  %e = mul i32 %x, 2
  br label %m
m:
  %r = phi i32 [ %t, %a ], [ %e, %b ], [ 0, %entry ]
  %u = add i32 %r, 1
  ret void
}
""")
        assert speculate_hammocks(f)
        verify_function(f)
        # First the inner diamond flattens (phi keeps entry + head edges);
        # then the remaining pure triangle flattens too, chaining selects.
        m = f.block_by_name("m")
        assert not m.phis
        selects = [i for i in f.instructions() if isinstance(i, Select)]
        assert len(selects) == 2


#: ``out[tid] = guard(in[tid]) ? <guarded op> : 7`` — the guarded op traps
#: on exactly the lanes the guard keeps away from it.
_GUARDED = """
define void @k({ty} addrspace(1)* %in, i32 addrspace(1)* %out) {{
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %gi = getelementptr {ty}, {ty} addrspace(1)* %in, i32 %tid
  %x = load {ty}, {ty} addrspace(1)* %gi
  %c = {guard}
  br i1 %c, label %a, label %m
a:
{body}
  br label %m
m:
  %r = phi i32 [ %v, %a ], [ 7, %entry ]
  %go = getelementptr i32, i32 addrspace(1)* %out, i32 %tid
  store i32 %r, i32 addrspace(1)* %go
  ret void
}}
"""


class TestTrappingArmsStayGuarded:
    """`-O3` used to hoist both of these above their guard and trap."""

    @pytest.mark.parametrize("ty, etype, guard, body, data, expected", [
        ("float", F32, "fcmp one float %x, 0.0",
         "  %inv = fdiv float 1.0, %x\n  %v = fptosi float %inv to i32",
         [0.0, 2.0, 0.5, 0.0], [7, 0, 2, 7]),
        ("i32", I32, "icmp sgt i32 %x, 100", "  %v = shl i32 %x, 40",
         [1, 2, 3, 4], [7, 7, 7, 7]),
    ], ids=["fptosi", "shl-by-40"])
    @pytest.mark.parametrize("executor", ["reference", "fast"])
    def test_o3_output_equals_noopt(self, ty, etype, guard, body, data,
                                    expected, executor):
        def run(function):
            out, _ = run_kernel(function.module, "k", 1, 4,
                                buffers={"in": data, "out": [0] * 4},
                                element_types={"in": etype},
                                machine=MachineConfig(executor=executor))
            return out["out"]

        text = _GUARDED.format(ty=ty, guard=guard, body=body)
        assert run(parse(text)) == expected
        optimized = parse(text)
        optimize(optimized)
        verify_function(optimized)
        assert run(optimized) == expected


class TestSSARepair:
    def make_broken(self):
        """A def in %a used in %m, but control can bypass %a — the melding
        situation of the paper's Figure 4."""
        f = parse("""
define void @k(i1 %c, i32 %x, i32 addrspace(1)* %p) {
entry:
  br i1 %c, label %a, label %m
a:
  %v = add i32 %x, 1
  br label %m
m:
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 0
  store i32 %x, i32 addrspace(1)* %g
  ret void
}
""")
        # Break SSA: make the store use %v.
        a = f.block_by_name("a")
        v = a.instructions[0]
        store = [i for i in f.block_by_name("m") if i.opcode == "store"][0]
        store.set_operand(0, v)
        return f, v, store

    def test_detects_and_fixes_violation(self):
        f, v, store = self.make_broken()
        with pytest.raises(VerificationError):
            verify_function(f)
        assert repair_ssa(f)
        verify_function(f)

    def test_inserts_phi_with_undef_bypass(self):
        f, v, store = self.make_broken()
        repair_ssa(f)
        m = f.block_by_name("m")
        phi = m.phis[0]
        assert phi.incoming_for(f.block_by_name("a")) is v
        bypass = phi.incoming_for(f.entry)
        assert isinstance(bypass, Undef)
        assert store.value is phi

    def test_noop_on_valid_ssa(self):
        f = parse("""
define void @k(i32 %x) {
entry:
  %v = add i32 %x, 1
  %w = add i32 %v, 2
  ret void
}
""")
        assert not repair_ssa(f)

    def test_repair_through_loop(self):
        f = parse("""
define void @k(i1 %c, i32 %x, i32 addrspace(1)* %p) {
entry:
  br i1 %c, label %a, label %h
a:
  %v = add i32 %x, 1
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %ni, %h ], [ 0, %a ]
  %ni = add i32 %i, 1
  %cc = icmp slt i32 %ni, 3
  br i1 %cc, label %h, label %m
m:
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 0
  store i32 %x, i32 addrspace(1)* %g
  ret void
}
""")
        a = f.block_by_name("a")
        v = a.instructions[0]
        store = [i for i in f.block_by_name("m") if i.opcode == "store"][0]
        store.set_operand(0, v)
        repair_ssa(f)
        verify_function(f)
