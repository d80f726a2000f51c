"""Tests for dead-code elimination and constant folding."""

from repro.ir import Load, Store, verify_function
from repro.transforms import eliminate_dead_code, fold_constants

from tests.support import parse


class TestDCE:
    def test_removes_unused_chain(self):
        f = parse("""
define void @k(i32 %x) {
entry:
  %a = add i32 %x, 1
  %b = mul i32 %a, 2
  %c = xor i32 %b, 3
  ret void
}
""")
        assert eliminate_dead_code(f)
        assert len(f.entry) == 1  # just the ret

    def test_keeps_stores(self):
        f = parse("""
define void @k(i32 addrspace(1)* %p) {
entry:
  store i32 1, i32 addrspace(1)* %p
  ret void
}
""")
        assert not eliminate_dead_code(f)
        assert any(isinstance(i, Store) for i in f.entry)

    def test_removes_dead_loads(self):
        f = parse("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %v = load i32, i32 addrspace(1)* %p
  ret void
}
""")
        assert eliminate_dead_code(f)
        assert not any(isinstance(i, Load) for i in f.entry)

    def test_keeps_used_values(self):
        f = parse("""
define void @k(i32 addrspace(1)* %p, i32 %x) {
entry:
  %a = add i32 %x, 1
  store i32 %a, i32 addrspace(1)* %p
  ret void
}
""")
        assert not eliminate_dead_code(f)

    def test_keeps_barrier_calls(self):
        f = parse("""
define void @k() {
entry:
  call void @llvm.gpu.barrier()
  ret void
}
""")
        assert not eliminate_dead_code(f)


class TestConstFold:
    def test_folds_arithmetic_chain(self):
        f = parse("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %a = add i32 2, 3
  %b = mul i32 %a, 4
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 0
  store i32 %b, i32 addrspace(1)* %g
  ret void
}
""")
        assert fold_constants(f)
        store = [i for i in f.entry if i.opcode == "store"][0]
        assert store.value.value == 20

    def test_folds_comparison(self):
        f = parse("""
define void @k() {
entry:
  %c = icmp slt i32 3, 5
  br i1 %c, label %a, label %b
a:
  ret void
b:
  ret void
}
""")
        assert fold_constants(f)
        assert not f.entry.terminator.is_conditional
        assert f.entry.terminator.true_successor.name == "a"
        verify_function(f)

    def test_branch_fold_updates_phis(self):
        f = parse("""
define void @k() {
entry:
  br i1 0, label %a, label %b
a:
  br label %m
b:
  br label %m
m:
  %p = phi i32 [ 1, %a ], [ 2, %b ]
  ret void
}
""")
        fold_constants(f)
        verify_function(f)
        # The dead arm still has its edge until unreachable cleanup runs.
        from repro.transforms import remove_unreachable_blocks

        remove_unreachable_blocks(f)
        verify_function(f)
        phi = f.block_by_name("m").phis[0]
        assert len(phi.incoming) == 1

    def test_algebraic_identities(self):
        f = parse("""
define void @k(i32 %x, i32 addrspace(1)* %p) {
entry:
  %a = add i32 %x, 0
  %b = mul i32 %a, 1
  %c = sub i32 %b, %b
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 0
  store i32 %c, i32 addrspace(1)* %g
  ret void
}
""")
        fold_constants(f)
        store = [i for i in f.entry if i.opcode == "store"][0]
        assert store.value.value == 0

    def test_select_with_constant_condition(self):
        f = parse("""
define void @k(i32 %x, i32 %y, i32 addrspace(1)* %p) {
entry:
  %s = select i1 1, i32 %x, i32 %y
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 0
  store i32 %s, i32 addrspace(1)* %g
  ret void
}
""")
        fold_constants(f)
        store = [i for i in f.entry if i.opcode == "store"][0]
        assert store.value is f.args[0]

    def test_division_by_zero_not_folded(self):
        f = parse("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %d = sdiv i32 5, 0
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 0
  store i32 %d, i32 addrspace(1)* %g
  ret void
}
""")
        fold_constants(f)
        assert any(i.opcode == "sdiv" for i in f.entry)

    def test_fptosi_of_non_finite_not_folded(self):
        """``fptosi(fdiv 1.0, 0.0)`` used to kill constfold (and with it
        ``repro.compile(..., level="O3")``) with an OverflowError."""
        import repro

        f = parse("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %q = fdiv float 1.0, 0.0
  %v = fptosi float %q to i32
  store i32 %v, i32 addrspace(1)* %p
  ret void
}
""")
        repro.compile(f, level="O3")
        assert any(i.opcode == "fptosi" for i in f.entry)
