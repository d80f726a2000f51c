"""Tests for the simulated device memory."""

import pytest

from repro.ir import AddressSpace, GlobalVariable, I32, I64, F32, Module, pointer
from repro.simt.memory import (
    AddressSpaceMemory,
    DeviceMemory,
    GLOBAL_BASE,
    MemoryError_,
    SHARED_BASE,
    sizeof,
)


class TestSizeof:
    def test_int_sizes(self):
        assert sizeof(I32) == 4
        assert sizeof(I64) == 8
        from repro.ir import I1, I8

        assert sizeof(I8) == 1
        assert sizeof(I1) == 1

    def test_float_and_pointer(self):
        assert sizeof(F32) == 4
        assert sizeof(pointer(I32)) == 8


class TestSegments:
    def test_load_store_roundtrip(self):
        mem = AddressSpaceMemory(GLOBAL_BASE)
        seg = mem.allocate("buf", I32, 16)
        mem.store(seg.base + 8, 42)
        assert mem.load(seg.base + 8) == 42

    def test_out_of_bounds_traps(self):
        mem = AddressSpaceMemory(GLOBAL_BASE)
        seg = mem.allocate("buf", I32, 4)
        with pytest.raises(MemoryError_):
            mem.load(seg.base + 4 * 4)

    def test_misaligned_traps(self):
        mem = AddressSpaceMemory(GLOBAL_BASE)
        seg = mem.allocate("buf", I32, 4)
        with pytest.raises(MemoryError_):
            mem.load(seg.base + 2)

    def test_wild_address_traps(self):
        mem = AddressSpaceMemory(GLOBAL_BASE)
        mem.allocate("buf", I32, 4)
        with pytest.raises(MemoryError_):
            mem.load(0xDEAD)

    def test_segments_do_not_overlap(self):
        mem = AddressSpaceMemory(GLOBAL_BASE)
        a = mem.allocate("a", I32, 100)
        b = mem.allocate("b", I32, 100)
        assert a.end <= b.base


class TestDeviceMemory:
    def make_module(self):
        module = Module("m")
        module.add_global(GlobalVariable(
            "sh", pointer(I32, AddressSpace.SHARED), 32))
        module.add_global(GlobalVariable(
            "gl", pointer(I32, AddressSpace.GLOBAL), 32))
        return module

    def test_shared_is_per_block(self):
        device = DeviceMemory(self.make_module())
        view0 = device.shared_for_block(0)
        view1 = device.shared_for_block(1)
        sh = device.module.globals["sh"]
        addr0 = view0.var_address(sh)
        addr1 = view1.var_address(sh)
        assert addr0 == addr1  # same virtual address...
        view0.store(addr0, 111)
        view1.store(addr1, 222)
        assert view0.load(addr0) == 111  # ...different backing stores
        assert view1.load(addr1) == 222

    def test_global_shared_across_blocks(self):
        device = DeviceMemory(self.make_module())
        view0 = device.shared_for_block(0)
        view1 = device.shared_for_block(1)
        gl = device.module.globals["gl"]
        addr = view0.var_address(gl)
        view0.store(addr, 7)
        assert view1.load(addr) == 7

    def test_flat_address_resolution(self):
        device = DeviceMemory(self.make_module())
        view = device.shared_for_block(0)
        sh_addr = view.var_address(device.module.globals["sh"])
        gl_addr = view.var_address(device.module.globals["gl"])
        assert sh_addr >= SHARED_BASE
        assert gl_addr < SHARED_BASE
