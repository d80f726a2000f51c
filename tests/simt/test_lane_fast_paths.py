"""Edge cases of the fast executor's lane-loop shortcuts.

:class:`~repro.simt.fastpath.FastEvaluator` takes shortcuts that the
reference interpreter does not: memory µops index a power-of-two element
size by shift and mask, its per-lane loops keep a two-entry segment
cache, a full warp copies φ transfers as whole rows, and a full warp
that addresses consecutive elements of one segment loads or stores one
list slice.  Every other access falls back to the exact per-lane loop.

Each hand-written kernel below sits on one edge of those shortcuts —
where a shortcut must fire, or must give way to the fallback — and runs
on both executors under both reconvergence policies.  The observables
must be equal: device memory and ``Metrics.as_dict()`` when the launch
completes; the exception type, the message byte for byte and the device
memory left behind when it traps.
"""

from __future__ import annotations

import pytest

from repro.ir import I32, IntType
from repro.simt import GPU, RECONVERGENCE_POLICIES, UNDEF, MachineConfig

from tests.support import parse

I24 = IntType(24)

#: the global ``i32`` pointer type, spelled in the kernels' text
P = "i32 addrspace(1)*"

#: every kernel's first lines: ``%tid`` and the grid-wide ``%gtid``
PROLOGUE = """\
  %tid = call i32 @llvm.gpu.tid.x()
  %bid = call i32 @llvm.gpu.ctaid.x()
  %bdim = call i32 @llvm.gpu.ntid.x()
  %base = mul i32 %bid, %bdim
  %gtid = add i32 %base, %tid
"""


def _observe(text, machine, block_dim, buffers, scalars=None,
             element_types=None, grid_dim=1):
    """Launch the one kernel in ``text``; return what is observable:
    ``("ok", memory, metrics)`` or ``("trap", type, message, memory)``."""
    function = parse(text)
    gpu = GPU(function.module, machine)
    handles = {name: gpu.alloc(name, (element_types or {}).get(name, I32),
                               list(data))
               for name, data in buffers.items()}
    args = {**handles, **(scalars or {})}

    def memory():
        return {name: handle.data for name, handle in handles.items()}

    try:
        metrics = gpu.launch(function.name, grid_dim, block_dim, args)
    except Exception as exc:  # a trap is an observable too
        return ("trap", type(exc).__name__, str(exc), memory())
    return ("ok", memory(), metrics.as_dict())


def _agree(text, block_dim, buffers, **kwargs):
    """Assert executor parity under every policy; return the fast
    executor's observables per policy."""
    observed = {}
    for policy in RECONVERGENCE_POLICIES:
        fast, reference = (
            _observe(text, MachineConfig(executor=executor,
                                         reconvergence=policy),
                     block_dim, buffers, **kwargs)
            for executor in ("fast", "reference"))
        assert fast == reference, f"executors disagree under {policy}"
        observed[policy] = fast
    return observed


def _outputs(observed):
    status, memory, _ = observed["ipdom"]
    assert status == "ok"
    return memory


def _trap(observed):
    status, kind, message, _ = observed["ipdom"]
    assert status == "trap"
    return kind, message


# ---- segment cache --------------------------------------------------------

#: A melded load and store through a ``select`` of two buffer bases: the
#: lanes alternate between the two segments by parity.
ALTERNATING = f"""
define void @alternate({P} %a, {P} %b, {P} %out) {{
entry:
{PROLOGUE}  %odd = and i32 %tid, 1
  %even = icmp eq i32 %odd, 0
  %src = select i1 %even, {P} %a, {P} %b
  %p = getelementptr i32, {P} %src, i32 %gtid
  %v = load i32, {P} %p
  %q = getelementptr i32, {P} %out, i32 %gtid
  store i32 %v, {P} %q
  %dst = select i1 %even, {P} %b, {P} %a
  %r = getelementptr i32, {P} %dst, i32 %gtid
  %w = add i32 %v, 1000
  store i32 %w, {P} %r
  ret void
}}
"""

#: Three buffers in rotation (``gtid % 3``), so entries of a two-entry
#: cache are evicted.  Lanes from ``%n`` on skip the access: the warp
#: also steps it under a partial mask.
ROTATING = f"""
define void @rotate({P} %a, {P} %b, {P} %c, {P} %out, i32 %n) {{
entry:
{PROLOGUE}  %in = icmp slt i32 %tid, %n
  br i1 %in, label %body, label %exit
body:
  %k = urem i32 %gtid, 3
  %is0 = icmp eq i32 %k, 0
  %is1 = icmp eq i32 %k, 1
  %bc = select i1 %is1, {P} %b, {P} %c
  %src = select i1 %is0, {P} %a, {P} %bc
  %p = getelementptr i32, {P} %src, i32 %gtid
  %v = load i32, {P} %p
  %q = getelementptr i32, {P} %out, i32 %gtid
  store i32 %v, {P} %q
  br label %exit
exit:
  ret void
}}
"""


@pytest.mark.parametrize("block_dim", [32, 40, 12])
def test_gather_alternating_between_two_buffers(block_dim):
    count = 2 * block_dim
    memory = _outputs(_agree(ALTERNATING, block_dim, {
        "a": range(100, 100 + count), "b": range(500, 500 + count),
        "out": [0] * count}, grid_dim=2))
    expected = [(100 if i % block_dim % 2 == 0 else 500) + i
                for i in range(count)]
    assert memory["out"] == expected
    assert memory["a"][1] == expected[1] + 1000
    assert memory["b"][0] == expected[0] + 1000


#: The alternating gather again, with lane ``%which`` two bytes off its
#: element: a misaligned lane that hits either cache entry.
ALTERNATING_SKEWED = f"""
define void @alternate_skewed({P} %a, {P} %b, i32 %which) {{
entry:
{PROLOGUE}  %odd = and i32 %tid, 1
  %even = icmp eq i32 %odd, 0
  %src = select i1 %even, {P} %a, {P} %b
  %bytes = bitcast {P} %src to i8 addrspace(1)*
  %hit = icmp eq i32 %tid, %which
  %skew = select i1 %hit, i32 2, i32 0
  %word = mul i32 %gtid, 4
  %at = add i32 %word, %skew
  %p8 = getelementptr i8, i8 addrspace(1)* %bytes, i32 %at
  %p = bitcast i8 addrspace(1)* %p8 to {P}
  %v = load i32, {P} %p
  ret void
}}
"""


@pytest.mark.parametrize("which", [0, 1, 2, 3, 17])
def test_misaligned_lane_in_an_alternating_gather(which):
    kind, message = _trap(_agree(ALTERNATING_SKEWED, 32, {
        "a": range(32), "b": range(32)}, scalars={"which": which}))
    assert kind == "MemoryError_"
    assert message.startswith("misaligned access at")
    assert f"segment {'ab'[which % 2]}" in message


@pytest.mark.parametrize("n", [32, 20, 1])
def test_gather_rotating_over_three_buffers(n):
    memory = _outputs(_agree(ROTATING, 32, {
        "a": range(0, 32), "b": range(100, 132), "c": range(200, 232),
        "out": [-1] * 32}, scalars={"n": n}))
    assert memory["out"] == [100 * (i % 3) + i if i < n else -1
                             for i in range(32)]


# ---- the dense (slice) path and its fallbacks -----------------------------

#: ``out[gtid] = a[gtid + %skew] + 1`` and ``a[gtid + %skew] = gtid``:
#: with ``%skew`` 0 a full warp addresses consecutive in-bounds elements.
SKEWED = f"""
define void @skewed({P} %a, {P} %out, i32 %skew) {{
entry:
{PROLOGUE}  %i = add i32 %gtid, %skew
  %p = getelementptr i32, {P} %a, i32 %i
  %v = load i32, {P} %p
  %w = add i32 %v, 1
  %q = getelementptr i32, {P} %out, i32 %gtid
  store i32 %w, {P} %q
  store i32 %gtid, {P} %p
  ret void
}}
"""


@pytest.mark.parametrize("block_dim", [32, 40, 1])
def test_dense_full_warp_load_and_store(block_dim):
    count = 2 * block_dim
    memory = _outputs(_agree(SKEWED, block_dim, {
        "a": range(7, 7 + count), "out": [0] * count},
        scalars={"skew": 0}, grid_dim=2))
    assert memory["out"] == list(range(8, 8 + count))
    assert memory["a"] == list(range(count))


def test_full_warp_one_element_past_a_segment_end_traps():
    # ``a`` holds 32 elements and the next allocation starts 256-byte
    # aligned, so lane 31 of ``a[tid + 1]`` lands in the gap.
    observed = _agree(SKEWED, 32, {"a": range(32), "out": [0] * 32},
                      scalars={"skew": 1})
    kind, message = _trap(observed)
    assert kind == "MemoryError_" and message.startswith("wild access at")


def test_full_warp_running_into_the_next_segment():
    # 64 elements fill ``a``'s 256 bytes, so ``out`` starts at ``a``'s
    # end: lane 31 of ``a[tid + 33]`` reads and writes ``out[0]``.  The
    # row is consecutive but leaves ``a``; no slice may be taken.
    memory = _outputs(_agree(SKEWED, 32, {
        "a": range(64), "out": [5] * 32}, scalars={"skew": 33}))
    assert memory["a"][33:] == list(range(31))
    assert memory["out"][0] == 31


#: Lane ``%which`` addresses through ``undef``.
UNDEF_LANE = f"""
define void @undef_lane({P} %a, i32 %which) {{
entry:
{PROLOGUE}  %p = getelementptr i32, {P} %a, i32 %gtid
  %hit = icmp eq i32 %tid, %which
  %q = select i1 %hit, {P} undef, {P} %p
  %v = load i32, {P} %q
  store i32 %v, {P} %q
  ret void
}}
"""


@pytest.mark.parametrize("which", [0, 5, 31])
def test_one_undef_address_lane_in_a_full_warp(which):
    kind, message = _trap(_agree(UNDEF_LANE, 32, {"a": range(32)},
                                 scalars={"which": which}))
    assert kind == "SimulationError"
    assert message.startswith("load through undef address: %v = load")


#: ``a`` viewed two bytes in: every lane's address is misaligned.
MISALIGNED = f"""
define void @misaligned({P} %a) {{
entry:
{PROLOGUE}  %bytes = bitcast {P} %a to i8 addrspace(1)*
  %shifted = getelementptr i8, i8 addrspace(1)* %bytes, i32 2
  %words = bitcast i8 addrspace(1)* %shifted to {P}
  %p = getelementptr i32, {P} %words, i32 %gtid
  store i32 %gtid, {P} %p
  ret void
}}
"""


@pytest.mark.parametrize("block_dim", [32, 4])
def test_misaligned_base(block_dim):
    kind, message = _trap(_agree(MISALIGNED, block_dim,
                                 {"a": range(64)}))
    assert kind == "MemoryError_"
    assert message.startswith("misaligned access at") and "segment a" in message


#: An ``i24`` buffer (3-byte elements) under a full and a partial mask.
I24_KERNEL = f"""
define void @narrow(i24 addrspace(1)* %a, {P} %out, i32 %n) {{
entry:
{PROLOGUE}  %in = icmp slt i32 %tid, %n
  br i1 %in, label %body, label %exit
body:
  %p = getelementptr i24, i24 addrspace(1)* %a, i32 %gtid
  %v = load i24, i24 addrspace(1)* %p
  %w = add i24 %v, 1
  store i24 %w, i24 addrspace(1)* %p
  %x = zext i24 %v to i32
  %q = getelementptr i32, {P} %out, i32 %gtid
  store i32 %x, {P} %q
  br label %exit
exit:
  ret void
}}
"""


@pytest.mark.parametrize("n", [32, 13])
def test_i24_buffer(n):
    memory = _outputs(_agree(I24_KERNEL, 32, {
        "a": range(10, 74), "out": [0] * 64}, scalars={"n": n},
        element_types={"a": I24}, grid_dim=2))
    live = [i for i in range(64) if i % 32 < n]
    assert [memory["out"][i] for i in live] == [10 + i for i in live]
    assert [memory["a"][i] for i in live] == [11 + i for i in live]


#: A full-warp store of a row whose lane ``%which`` holds ``undef``.
UNDEF_VALUE = f"""
define void @undef_value({P} %a, i32 %which) {{
entry:
{PROLOGUE}  %hit = icmp eq i32 %tid, %which
  %v = select i1 %hit, i32 undef, i32 %gtid
  %p = getelementptr i32, {P} %a, i32 %gtid
  store i32 %v, {P} %p
  ret void
}}
"""


def test_dense_store_of_a_row_holding_undef():
    memory = _outputs(_agree(UNDEF_VALUE, 32, {"a": [0] * 32},
                             scalars={"which": 3}))
    assert memory["a"] == [UNDEF if i == 3 else i for i in range(32)]


#: ``a[gtid] += 100`` for the lanes below ``%n``: the address row is
#: consecutive over the whole warp, but only the active lanes may access.
GUARDED = f"""
define void @guarded({P} %a, i32 %n) {{
entry:
{PROLOGUE}  %p = getelementptr i32, {P} %a, i32 %gtid
  %in = icmp slt i32 %tid, %n
  br i1 %in, label %body, label %exit
body:
  %v = load i32, {P} %p
  %w = add i32 %v, 100
  store i32 %w, {P} %p
  br label %exit
exit:
  ret void
}}
"""


@pytest.mark.parametrize("n", [13, 31])
def test_partial_mask_over_a_dense_row(n):
    memory = _outputs(_agree(GUARDED, 32, {"a": range(32)},
                             scalars={"n": n}))
    assert memory["a"] == [i + 100 if i < n else i for i in range(32)]


# ---- φ transfers ----------------------------------------------------------

#: ``x, y = y, x`` on every back edge, ``%trips`` times, where ``%trips``
#: is uniform (``%spread`` 0, every transfer a full warp) or differs per
#: lane (partial-mask transfers once the first lanes leave the loop).
SWAP = f"""
define void @swap({P} %out, i32 %trips, i32 %spread) {{
entry:
{PROLOGUE}  %extra = and i32 %tid, %spread
  %limit = add i32 %trips, %extra
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %next, %loop ]
  %x = phi i32 [ %gtid, %entry ], [ %y, %loop ]
  %y = phi i32 [ 1000, %entry ], [ %x, %loop ]
  %next = add i32 %i, 1
  %again = icmp slt i32 %next, %limit
  br i1 %again, label %loop, label %exit
exit:
  %two = mul i32 %gtid, 2
  %px = getelementptr i32, {P} %out, i32 %two
  store i32 %x, {P} %px
  %one = add i32 %two, 1
  %py = getelementptr i32, {P} %out, i32 %one
  store i32 %y, {P} %py
  ret void
}}
"""


@pytest.mark.parametrize("trips,spread", [(4, 0), (5, 0), (2, 3)])
def test_full_warp_phi_swap(trips, spread):
    memory = _outputs(_agree(SWAP, 32, {"out": [0] * 64},
                             scalars={"trips": trips, "spread": spread}))
    for lane in range(32):
        swaps = trips + (lane & spread) - 1
        pair = (lane, 1000) if swaps % 2 == 0 else (1000, lane)
        assert tuple(memory["out"][2 * lane:2 * lane + 2]) == pair


# ---- coalescing -----------------------------------------------------------


@pytest.mark.parametrize("step", [1, 3, 4, 8, 63, 64, 65, 128])
def test_transactions_for_a_range_counts_as_its_list(step):
    # A dense access hands the coalescing count a ``range``; the count
    # must be the one its addresses give as a list.
    machine = MachineConfig()
    for start in (0x1000_0000, 0x1000_0004, 0x1000_003F):
        for lanes in (1, 2, 31, 32, 64):
            addresses = range(start, start + lanes * step, step)
            assert machine.transactions_for(addresses) == \
                machine.transactions_for(list(addresses))
