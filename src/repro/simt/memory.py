"""Simulated GPU memory: global, shared (per-block), and flat addressing.

Addresses are plain integers in one flat byte-addressed space, split into
two windows:

* ``[GLOBAL_BASE, SHARED_BASE)`` — device global memory, one instance per
  grid;
* ``[SHARED_BASE, ...)`` — LDS/shared memory, one instance per thread
  block (every block sees the same virtual addresses backed by its own
  storage, as on real hardware).

``flat`` pointers need no special handling: the address window determines
which backing store serves the access, mirroring how GCN flat instructions
are resolved dynamically (and why the paper counts them separately).
"""

from __future__ import annotations

from typing import Dict, List

from repro.ir.types import FloatType, IntType, PointerType, Type
from repro.ir.function import GlobalVariable, Module


GLOBAL_BASE = 0x1000_0000
SHARED_BASE = 0x7000_0000


class MemoryError_(Exception):
    """Out-of-bounds or otherwise invalid simulated memory access."""


def sizeof(type_: Type) -> int:
    """Byte size of one element."""
    if isinstance(type_, IntType):
        return max(1, (type_.bits + 7) // 8)
    if isinstance(type_, FloatType):
        return type_.bits // 8
    if isinstance(type_, PointerType):
        return 8
    raise TypeError(f"sizeof undefined for {type_!r}")


class Segment:
    """One allocation: a typed array with bounds checking."""

    def __init__(self, name: str, base: int, element_type: Type, count: int) -> None:
        self.name = name
        self.base = base
        self.element_type = element_type
        self.element_size = sizeof(element_type)
        #: log2 of ``element_size`` when it is a power of two, else -1:
        #: the fast executor indexes by ``offset >> shift`` where it can
        #: and keeps ``divmod`` where it cannot (e.g. an ``i24`` buffer)
        size = self.element_size
        self.shift = size.bit_length() - 1 if not size & (size - 1) else -1
        self.count = count
        #: one past the last byte (``base`` and ``count`` never change)
        self.end = base + count * self.element_size
        self.data: List = [0] * count
        #: the fast executor's segment-cache entry, ``(base, end, data,
        #: shift, size - 1)``; a range no address falls in when the size
        #: is not a power of two (``data`` is never rebound)
        self.cache_entry = ((base, self.end, self.data, self.shift, size - 1)
                            if self.shift >= 0 else (0, 0, None, None, None))

    def index_of(self, addr: int) -> int:
        offset = addr - self.base
        index, rem = divmod(offset, self.element_size)
        if rem != 0:
            raise MemoryError_(
                f"misaligned access at {addr:#x} in segment {self.name}")
        if not 0 <= index < self.count:
            raise MemoryError_(
                f"out-of-bounds access at {addr:#x} in segment {self.name} "
                f"(index {index}, count {self.count})")
        return index

    def load(self, addr: int):
        return self.data[self.index_of(addr)]

    def store(self, addr: int, value) -> None:
        self.data[self.index_of(addr)] = value


class AddressSpaceMemory:
    """A set of segments in one window (global or one block's shared)."""

    def __init__(self, base: int) -> None:
        self._next = base
        self._segments: List[Segment] = []

    def allocate(self, name: str, element_type: Type, count: int) -> Segment:
        size = sizeof(element_type) * count
        # Align segments to 256 bytes so coalescing stats are stable.
        base = (self._next + 255) & ~255
        segment = Segment(name, base, element_type, count)
        self._next = base + size
        self._segments.append(segment)
        return segment

    def segment_for(self, addr: int) -> Segment:
        for segment in self._segments:
            if segment.base <= addr < segment.end:
                return segment
        raise MemoryError_(f"wild access at {addr:#x}")

    def load(self, addr: int):
        return self.segment_for(addr).load(addr)

    def store(self, addr: int, value) -> None:
        self.segment_for(addr).store(addr, value)


class DeviceMemory:
    """The grid-wide view: one global window plus per-block shared windows.

    The shared windows are created lazily by :meth:`shared_for_block`,
    cloning the shared-variable layout declared in the module.
    """

    def __init__(self, module: Module) -> None:
        self.module = module
        self.global_memory = AddressSpaceMemory(GLOBAL_BASE)
        self._shared_layout: List[GlobalVariable] = [
            g for g in module.globals.values() if g.is_shared
        ]
        self._global_vars: Dict[str, Segment] = {}
        for var in module.globals.values():
            if not var.is_shared:
                self._global_vars[var.name] = self.global_memory.allocate(
                    var.name, var.type.pointee, var.element_count)
        self._shared_instances: Dict[int, AddressSpaceMemory] = {}
        self._shared_segments: Dict[int, Dict[str, Segment]] = {}

    def allocate_buffer(self, name: str, element_type: Type, count: int) -> Segment:
        """Host-side allocation of a global buffer (kernel argument)."""
        return self.global_memory.allocate(name, element_type, count)

    def shared_for_block(self, block_id: int) -> "BlockMemoryView":
        if block_id not in self._shared_instances:
            shared = AddressSpaceMemory(SHARED_BASE)
            segments = {
                var.name: shared.allocate(var.name, var.type.pointee,
                                          var.element_count)
                for var in self._shared_layout
            }
            self._shared_instances[block_id] = shared
            self._shared_segments[block_id] = segments
        return BlockMemoryView(self, self._shared_instances[block_id],
                               self._shared_segments[block_id])

    def global_var_address(self, name: str) -> int:
        return self._global_vars[name].base


class BlockMemoryView:
    """What one thread block sees: global memory + its own shared window."""

    def __init__(self, device: DeviceMemory, shared: AddressSpaceMemory,
                 shared_segments: Dict[str, Segment]) -> None:
        self.device = device
        self.shared = shared
        self._shared_segments = shared_segments

    def load(self, addr: int):
        if addr >= SHARED_BASE:
            return self.shared.load(addr)
        return self.device.global_memory.load(addr)

    def store(self, addr: int, value) -> None:
        if addr >= SHARED_BASE:
            self.shared.store(addr, value)
        else:
            self.device.global_memory.store(addr, value)

    def var_address(self, var: GlobalVariable) -> int:
        if var.is_shared:
            return self._shared_segments[var.name].base
        return self.device.global_var_address(var.name)
