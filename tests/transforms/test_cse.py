"""Tests for dominator-scoped common-subexpression elimination."""

import pytest

from repro.ir import GetElementPtr, verify_function
from repro.transforms import eliminate_common_subexpressions

from tests.support import parse


class TestBasic:
    def test_duplicate_gep_removed(self):
        f = parse("""
define void @k(i32 addrspace(1)* %p, i32 %i) {
entry:
  %g1 = getelementptr i32, i32 addrspace(1)* %p, i32 %i
  %v = load i32, i32 addrspace(1)* %g1
  %g2 = getelementptr i32, i32 addrspace(1)* %p, i32 %i
  store i32 %v, i32 addrspace(1)* %g2
  ret void
}
""")
        assert eliminate_common_subexpressions(f)
        verify_function(f)
        geps = [i for i in f.instructions() if isinstance(i, GetElementPtr)]
        assert len(geps) == 1
        store = [i for i in f.instructions() if i.opcode == "store"][0]
        assert store.pointer is geps[0]

    def test_constant_operands_compared_by_value(self):
        f = parse("""
define void @k(i32 %x, i32 addrspace(1)* %p) {
entry:
  %a = add i32 %x, 5
  %b = add i32 %x, 5
  %c = add i32 %x, 6
  %s = add i32 %b, %c
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 %s
  store i32 %a, i32 addrspace(1)* %g
  ret void
}
""")
        assert eliminate_common_subexpressions(f)
        adds = [i for i in f.instructions() if i.opcode == "add"]
        assert len(adds) == 3  # a==b merged; c and s stay

    def test_signed_zeros_kept_apart(self):
        # At %x = 0.0 the two differ: 0.0 - 0.0 is +0.0, -0.0 - 0.0 is -0.0.
        f = parse("""
define void @k(float %x, float addrspace(1)* %p) {
entry:
  %a = fsub float 0.0, %x
  %b = fsub float -0.0, %x
  store float %a, float addrspace(1)* %p
  %g = getelementptr float, float addrspace(1)* %p, i32 1
  store float %b, float addrspace(1)* %g
  ret void
}
""")
        assert not eliminate_common_subexpressions(f)
        assert sum(1 for i in f.instructions() if i.opcode == "fsub") == 2

    def test_loads_not_merged(self):
        # No alias analysis: two loads of the same address may see
        # different values if a store intervenes.
        f = parse("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 0
  %v1 = load i32, i32 addrspace(1)* %g
  store i32 99, i32 addrspace(1)* %g
  %v2 = load i32, i32 addrspace(1)* %g
  %s = add i32 %v1, %v2
  store i32 %s, i32 addrspace(1)* %g
  ret void
}
""")
        before = sum(1 for i in f.instructions() if i.opcode == "load")
        eliminate_common_subexpressions(f)
        after = sum(1 for i in f.instructions() if i.opcode == "load")
        assert before == after == 2

    def test_division_not_merged(self):
        # sdiv is not speculatable; EarlyCSE-style merging of the pure
        # value would be fine, but we keep the conservative rule simple.
        f = parse("""
define void @k(i32 %x, i32 %y, i32 addrspace(1)* %p) {
entry:
  %a = sdiv i32 %x, %y
  %b = sdiv i32 %x, %y
  %s = add i32 %a, %b
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 0
  store i32 %s, i32 addrspace(1)* %g
  ret void
}
""")
        assert not eliminate_common_subexpressions(f)


class TestScoping:
    def test_dominating_expression_reused_in_children(self):
        f = parse("""
define void @k(i1 %c, i32 %x, i32 addrspace(1)* %p) {
entry:
  %a = add i32 %x, 1
  br i1 %c, label %l, label %r
l:
  %al = add i32 %x, 1
  %gl = getelementptr i32, i32 addrspace(1)* %p, i32 %al
  store i32 0, i32 addrspace(1)* %gl
  br label %m
r:
  %ar = add i32 %x, 1
  %gr = getelementptr i32, i32 addrspace(1)* %p, i32 %ar
  store i32 1, i32 addrspace(1)* %gr
  br label %m
m:
  ret void
}
""")
        assert eliminate_common_subexpressions(f)
        verify_function(f)
        adds = [i for i in f.instructions() if i.opcode == "add"]
        assert len(adds) == 1  # both arms reuse %a from the dominator

    def test_sibling_expressions_not_shared(self):
        # %al in %l does NOT dominate %r: the same expression in %r must
        # stay (merging would break dominance).
        f = parse("""
define void @k(i1 %c, i32 %x, i32 addrspace(1)* %p) {
entry:
  br i1 %c, label %l, label %r
l:
  %al = add i32 %x, 1
  %gl = getelementptr i32, i32 addrspace(1)* %p, i32 %al
  store i32 0, i32 addrspace(1)* %gl
  br label %m
r:
  %ar = add i32 %x, 1
  %gr = getelementptr i32, i32 addrspace(1)* %p, i32 %ar
  store i32 1, i32 addrspace(1)* %gr
  br label %m
m:
  ret void
}
""")
        eliminate_common_subexpressions(f)
        verify_function(f)
        adds = [i for i in f.instructions() if i.opcode == "add"]
        assert len(adds) == 2

    def test_melded_code_gets_cleaned(self):
        # The motivating case: CFM leaves duplicate geps behind.
        from repro.core import run_cfm
        from tests.support import build_diamond

        f = build_diamond(identical=True)
        run_cfm(f)
        before = sum(1 for i in f.instructions()
                     if isinstance(i, GetElementPtr))
        eliminate_common_subexpressions(f)
        after = sum(1 for i in f.instructions()
                    if isinstance(i, GetElementPtr))
        assert after <= before

    def test_semantics_preserved(self):
        from repro.simt import run_kernel

        src = """
define void @k(i32 addrspace(1)* %p) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %g1 = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  %v = load i32, i32 addrspace(1)* %g1
  %a1 = add i32 %v, 3
  %a2 = add i32 %v, 3
  %s = mul i32 %a1, %a2
  %g2 = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  store i32 %s, i32 addrspace(1)* %g2
  ret void
}
"""
        base = parse(src)
        optimized = parse(src)
        eliminate_common_subexpressions(optimized)
        verify_function(optimized)
        out1, _ = run_kernel(base.module, "k", 1, 4, buffers={"p": [1, 2, 3, 4]})
        out2, _ = run_kernel(optimized.module, "k", 1, 4,
                             buffers={"p": [1, 2, 3, 4]})
        assert out1 == out2
