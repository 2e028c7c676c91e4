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
MASK = (1 << 64) - 1


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


# -- the one-page memo of read and write --------------------------------------


def test_u64_access_straddling_a_page_boundary():
    mem = fresh()
    edge = BASE + PAGE_SIZE
    mem.write_u64(edge - 16, 1)  # memoise the first page for both directions
    assert mem.read_u64(edge - 16) == 1
    mem.write_u64(edge - 3, 0x1122334455667788)
    assert mem.read(edge - 3, 3) == b"\x88\x77\x66"
    assert mem.read(edge, 5) == b"\x55\x44\x33\x22\x11"
    assert mem.read_u64(edge - 3) == 0x1122334455667788
    assert mem.read_u64(edge - 8) == 0x6677880000000000


def test_straddling_store_into_a_read_only_page_writes_the_first_part_then_faults():
    mem = fresh(size=PAGE_SIZE)
    mem.map(BASE + PAGE_SIZE, PAGE_SIZE, PERM_R)
    mem.write_u64(BASE, 1)
    with pytest.raises(MemoryFault) as fault:
        mem.write_u64(BASE + PAGE_SIZE - 4, MASK)
    assert (fault.value.addr, fault.value.kind) == (BASE + PAGE_SIZE, "write permission denied")
    assert mem.read(BASE + PAGE_SIZE - 4, 8) == b"\xff" * 4 + b"\x00" * 4


def test_memoised_write_page_made_executable_bumps_the_generation():
    mem = fresh(size=PAGE_SIZE)
    mem.write_u64(BASE, 1)
    gen = mem.exec_write_gen
    mem.write_u64(BASE + 8, 2)  # the memo: a W, not X page
    assert mem.exec_write_gen == gen
    mem.protect(BASE, PAGE_SIZE, PERM_R | PERM_W | PERM_X)
    gen = mem.exec_write_gen
    mem.write_u64(BASE + 16, 3)
    assert mem.exec_write_gen == gen + 1
    mem.write_u64(BASE + 24, 4)
    assert mem.exec_write_gen == gen + 2, "an executable page is never memoised"
    assert [mem.read_u64(BASE + 8 * k) for k in range(4)] == [1, 2, 3, 4]


@pytest.mark.parametrize("kept", [PERM_W, PERM_R, 0])
def test_protect_after_a_memoised_access_takes_effect(kept):
    mem = fresh(size=PAGE_SIZE)
    mem.write_u64(BASE, 7)
    assert mem.read_u64(BASE) == 7  # both memos now hold the page
    mem.protect(BASE, PAGE_SIZE, kept)
    if kept & PERM_R:
        assert mem.read_u64(BASE) == 7
    else:
        with pytest.raises(MemoryFault, match="read permission denied"):
            mem.read_u64(BASE)
    if kept & PERM_W:
        mem.write_u64(BASE, 8)
    else:
        with pytest.raises(MemoryFault, match="write permission denied"):
            mem.write_u64(BASE, 8)


def test_map_drops_the_memo():
    mem = fresh(size=PAGE_SIZE)
    mem.write_u64(BASE, 7)
    assert mem.read_u64(BASE) == 7
    mem.map(BASE, PAGE_SIZE, PERM_X)
    with pytest.raises(MemoryFault, match="read permission denied"):
        mem.read_u64(BASE)
    with pytest.raises(MemoryFault, match="write permission denied"):
        mem.write_u64(BASE, 8)
    gen = mem.exec_write_gen
    mem.write_initial(BASE, b"\x01")
    assert mem.exec_write_gen == gen + 1


def test_read_of_a_negative_size_is_empty_on_a_memoised_page():
    mem = fresh(size=PAGE_SIZE)
    mem.write(BASE + 100, b"abcdef")
    assert mem.read(BASE + 100, 3) == b"abc"
    assert mem.read(BASE + 100, 0) == b""
    assert mem.read(BASE + 100, -50) == b""
    assert mem.read(BASE + 100, -200) == b""


def test_execute_read_of_a_memoised_page_checks_exec():
    mem = fresh(size=PAGE_SIZE)
    assert mem.read(BASE, 4) == b"\x00" * 4  # the read memo holds the page
    with pytest.raises(MemoryFault, match="execute permission denied"):
        mem.read(BASE, 4, execute=True)
