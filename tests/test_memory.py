"""Property and unit tests for the paged memory model."""

import pytest
from hypothesis import given, strategies as st

from repro.emulator.memory import (
    Memory,
    MemoryFault,
    PAGE_SIZE,
    PERM_R,
    PERM_W,
    PERM_X,
)

BASE = 0x10000


def fresh(perms=PERM_R | PERM_W, size=4 * PAGE_SIZE):
    mem = Memory()
    mem.map(BASE, size, perms)
    return mem


def test_read_back_write():
    mem = fresh()
    mem.write(BASE + 10, b"hello")
    assert mem.read(BASE + 10, 5) == b"hello"


def test_unwritten_memory_reads_zero():
    mem = fresh()
    assert mem.read(BASE, 16) == b"\x00" * 16


def test_cross_page_write_and_read():
    mem = fresh()
    addr = BASE + PAGE_SIZE - 3
    mem.write(addr, b"ABCDEF")
    assert mem.read(addr, 6) == b"ABCDEF"


def test_unmapped_read_faults():
    mem = fresh()
    with pytest.raises(MemoryFault):
        mem.read(BASE - 1, 1)
    with pytest.raises(MemoryFault):
        mem.read(BASE + 4 * PAGE_SIZE, 1)


def test_write_permission_enforced():
    mem = fresh(perms=PERM_R)
    with pytest.raises(MemoryFault):
        mem.write(BASE, b"x")
    assert mem.read(BASE, 1) == b"\x00"


def test_execute_permission_enforced():
    mem = fresh(perms=PERM_R | PERM_W)
    with pytest.raises(MemoryFault):
        mem.read(BASE, 1, execute=True)


def test_write_initial_ignores_w_permission():
    mem = fresh(perms=PERM_R | PERM_X)
    mem.write_initial(BASE, b"\x01\x02")
    assert mem.read(BASE, 2) == b"\x01\x02"


def test_protect_flips_single_page():
    mem = fresh(perms=PERM_R)
    mem.protect(BASE, 1, PERM_R | PERM_W)
    mem.write(BASE + 5, b"y")  # first page now writable
    with pytest.raises(MemoryFault):
        mem.write(BASE + PAGE_SIZE, b"z")  # second page untouched


def test_protect_unmapped_faults():
    mem = fresh()
    with pytest.raises(MemoryFault):
        mem.protect(BASE + 64 * PAGE_SIZE, 1, PERM_R)


def test_exec_write_generation_counter():
    mem = Memory()
    mem.map(BASE, PAGE_SIZE, PERM_R | PERM_W | PERM_X)
    mem.map(BASE + PAGE_SIZE, PAGE_SIZE, PERM_R | PERM_W)
    gen = mem.exec_write_gen
    mem.write(BASE + PAGE_SIZE, b"a")  # non-executable page: no bump
    assert mem.exec_write_gen == gen
    mem.write(BASE, b"a")  # executable page: invalidates insn caches
    assert mem.exec_write_gen > gen


def test_protect_bumps_generation_on_permission_change():
    mem = fresh(perms=PERM_R | PERM_X, size=PAGE_SIZE)
    gen = mem.exec_write_gen
    mem.protect(BASE, 1, PERM_R | PERM_X)  # unchanged: no bump
    assert mem.exec_write_gen == gen
    mem.protect(BASE, 1, PERM_R)
    assert mem.exec_write_gen > gen
    # A protect that faults partway still invalidates for the pages it changed.
    gen = mem.exec_write_gen
    with pytest.raises(MemoryFault):
        mem.protect(BASE, 2 * PAGE_SIZE, PERM_R | PERM_X)
    assert mem.perms_at(BASE) == PERM_R | PERM_X
    assert mem.exec_write_gen > gen


def test_u64_and_u8_accessors():
    mem = fresh()
    mem.write_u64(BASE, 0x1122334455667788)
    assert mem.read_u64(BASE) == 0x1122334455667788
    assert mem.read_u8(BASE) == 0x88  # little-endian
    mem.write_u8(BASE + 1, 0xFF)
    assert mem.read_u64(BASE) == 0x112233445566FF88


def test_read_cstring():
    mem = fresh()
    mem.write(BASE, b"/bin/sh\x00junk")
    assert mem.read_cstring(BASE) == b"/bin/sh"
    with pytest.raises(MemoryFault):
        # No terminator within the window.
        mem.write(BASE, b"A" * 64)
        mem.read_cstring(BASE, max_len=8)


def test_mappings_listing():
    mem = fresh()
    assert mem.is_mapped(BASE)
    assert not mem.is_mapped(BASE - PAGE_SIZE)
    assert mem.perms_at(BASE) == (PERM_R | PERM_W)


@given(
    chunks=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3 * PAGE_SIZE),
            st.binary(min_size=1, max_size=64),
        ),
        min_size=1,
        max_size=16,
    )
)
def test_property_writes_then_reads_match_reference(chunks):
    """The paged memory behaves exactly like one flat bytearray."""
    mem = fresh()
    reference = bytearray(4 * PAGE_SIZE)
    for offset, data in chunks:
        mem.write(BASE + offset, data)
        reference[offset : offset + len(data)] = data
    for offset, data in chunks:
        lo = max(0, offset - 8)
        hi = min(len(reference), offset + len(data) + 8)
        assert mem.read(BASE + lo, hi - lo) == bytes(reference[lo:hi])


@given(
    value=st.integers(min_value=0, max_value=(1 << 64) - 1),
    offset=st.integers(min_value=0, max_value=2 * PAGE_SIZE),
)
def test_property_u64_roundtrip(value, offset):
    mem = fresh()
    mem.write_u64(BASE + offset, value)
    assert mem.read_u64(BASE + offset) == value


# -- readable_run ------------------------------------------------------------


def test_readable_run_within_one_page():
    mem = fresh(size=PAGE_SIZE)
    assert mem.readable_run(BASE, 16) == 16
    assert mem.readable_run(BASE + 100, PAGE_SIZE) == PAGE_SIZE - 100


def test_readable_run_crosses_pages_and_stops_at_unmapped():
    mem = fresh(size=2 * PAGE_SIZE)
    assert mem.readable_run(BASE + 0x100, 1 << 40) == 2 * PAGE_SIZE - 0x100
    assert mem.readable_run(BASE, 3 * PAGE_SIZE) == 2 * PAGE_SIZE


def test_readable_run_unreadable_or_empty():
    mem = fresh(perms=PERM_W, size=PAGE_SIZE)  # mapped but not readable
    assert mem.readable_run(BASE, 10) == 0
    assert mem.readable_run(0xDEAD000, 10) == 0  # unmapped
    assert Memory().readable_run(0, 10) == 0
    readable = fresh(size=PAGE_SIZE)
    assert readable.readable_run(BASE, 0) == 0
    assert readable.readable_run(BASE, -5) == 0


def test_readable_run_never_allocates_pages():
    mem = fresh(size=4 * PAGE_SIZE)
    mem.readable_run(BASE, 1 << 40)
    assert mem._pages == {}, "permission walk must not materialize pages"
