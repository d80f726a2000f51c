"""Tests for the host-side GPU/Buffer API."""

import pytest

from repro.ir import I32, Module
from repro.simt import GPU

from tests.support import parse


def make_gpu():
    f = parse("""
define void @copy(i32 addrspace(1)* %src, i32 addrspace(1)* %dst) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %sg = getelementptr i32, i32 addrspace(1)* %src, i32 %tid
  %v = load i32, i32 addrspace(1)* %sg
  %dg = getelementptr i32, i32 addrspace(1)* %dst, i32 %tid
  store i32 %v, i32 addrspace(1)* %dg
  ret void
}
""")
    return GPU(f.module), f


class TestBuffer:
    def test_alloc_with_size(self):
        gpu, _ = make_gpu()
        buf = gpu.alloc("b", I32, 8)
        assert len(buf) == 8
        assert buf.data == [0] * 8

    def test_alloc_with_initial_data(self):
        gpu, _ = make_gpu()
        buf = gpu.alloc("b", I32, [5, 6, 7])
        assert buf.data == [5, 6, 7]

    def test_write_and_readback(self):
        gpu, _ = make_gpu()
        buf = gpu.alloc("b", I32, 4)
        buf.write([9, 8, 7, 6])
        assert buf.data == [9, 8, 7, 6]

    def test_write_overflow_rejected(self):
        gpu, _ = make_gpu()
        buf = gpu.alloc("b", I32, 2)
        with pytest.raises(ValueError):
            buf.write([1, 2, 3])

    def test_data_is_a_copy(self):
        gpu, _ = make_gpu()
        buf = gpu.alloc("b", I32, 2)
        snapshot = buf.data
        snapshot[0] = 42
        assert buf.data[0] == 0


class TestLaunch:
    def test_explicit_buffer_launch(self):
        gpu, f = make_gpu()
        src = gpu.alloc("src", I32, [10, 20, 30, 40])
        dst = gpu.alloc("dst", I32, 4)
        metrics = gpu.launch("copy", grid_dim=1, block_dim=4,
                             args={"src": src, "dst": dst})
        assert dst.data == [10, 20, 30, 40]
        assert metrics.cycles > 0

    def test_launch_by_function_object(self):
        gpu, f = make_gpu()
        src = gpu.alloc("src", I32, [1, 2])
        dst = gpu.alloc("dst", I32, 2)
        gpu.launch(f, grid_dim=1, block_dim=2,
                   args={"src": src, "dst": dst})
        assert dst.data == [1, 2]

    @pytest.mark.parametrize("grid_dim, block_dim",
                             [(0, 4), (1, 0), (1, -32), (-1, 4)])
    def test_impossible_geometry_rejected(self, grid_dim, block_dim):
        # Zero warps used to "run": metrics all zero, no error.
        gpu, _ = make_gpu()
        src = gpu.alloc("src", I32, [1, 2, 3, 4])
        dst = gpu.alloc("dst", I32, 4)
        with pytest.raises(ValueError, match="geometry must be positive"):
            gpu.launch("copy", grid_dim=grid_dim, block_dim=block_dim,
                       args={"src": src, "dst": dst})
        assert gpu.launch_count == 0
        assert dst.data == [0] * 4

    def test_buffer_for_scalar_param_rejected(self):
        f = parse("""
define void @k(i32 %n) {
entry:
  ret void
}
""")
        gpu = GPU(f.module)
        buf = gpu.alloc("b", I32, 2)
        with pytest.raises(TypeError):
            gpu.launch("k", 1, 1, args={"n": buf})

