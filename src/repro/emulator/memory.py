"""Paged sparse memory with permissions for the concrete emulator."""

from __future__ import annotations

from typing import Dict, Optional

PAGE_SIZE = 0x1000
PAGE_MASK = ~(PAGE_SIZE - 1)
PAGE_OFFSET = PAGE_SIZE - 1

#: A memo page address no access matches (page addresses are aligned).
_NO_PAGE = 1

PERM_R = 1
PERM_W = 2
PERM_X = 4


class MemoryFault(Exception):
    """A memory access violation (unmapped or permission mismatch)."""

    def __init__(self, addr: int, kind: str):
        super().__init__(f"memory fault: {kind} at {addr:#x}")
        self.addr = addr
        self.kind = kind


class Memory:
    """Sparse paged memory.

    Pages are allocated lazily inside mapped regions.  Permissions are
    tracked per page so that ``mprotect`` can flip individual pages —
    the behaviour the mprotect attack goal depends on.

    :meth:`read` and :meth:`write` remember the last page each one
    passed its permission check on, and an access that lies within that
    page skips the page loop.  The read memo holds a page mapped R; the
    write memo only a page mapped W and not X, so every write to an
    executable page still takes the loop and bumps
    :attr:`exec_write_gen`.  :meth:`map` and :meth:`protect` drop both.
    The emulator's generated handlers test and use both memos inline
    (``_read_at``/``_read_page``, ``_write_at``/``_write_page``), and
    call :meth:`read_u64` and its kin when they miss.
    """

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}
        self._perms: Dict[int, int] = {}
        #: Bumped whenever a write lands in an executable page or
        #: :meth:`protect` changes a page's permissions; the emulator
        #: uses it to invalidate its decoded-instruction cache
        #: (self-modifying code, and code whose page loses PROT_EXEC).
        self.exec_write_gen = 0
        self._forget_pages()

    def _forget_pages(self) -> None:
        """Drop the read and write memos (permissions may have changed)."""
        self._read_at = self._write_at = _NO_PAGE
        self._read_page: Optional[bytearray] = None
        self._write_page: Optional[bytearray] = None

    def map(self, start: int, size: int, perms: int) -> None:
        """Map ``[start, start+size)`` with the given permissions."""
        if size <= 0:
            raise ValueError("mapping size must be positive")
        self._forget_pages()
        first = start & PAGE_MASK
        last = (start + size - 1) & PAGE_MASK
        page = first
        while page <= last:
            self._perms[page] = perms
            page += PAGE_SIZE

    def protect(self, start: int, size: int, perms: int) -> None:
        """Change permissions on already-mapped pages (mprotect)."""
        self._forget_pages()
        first = start & PAGE_MASK
        last = (start + size - 1) & PAGE_MASK
        page = first
        while page <= last:
            if page not in self._perms:
                raise MemoryFault(page, "mprotect of unmapped page")
            if self._perms[page] != perms:
                self._perms[page] = perms
                self.exec_write_gen += 1
            page += PAGE_SIZE

    def is_mapped(self, addr: int) -> bool:
        return (addr & PAGE_MASK) in self._perms

    def perms_at(self, addr: int) -> int:
        return self._perms.get(addr & PAGE_MASK, 0)

    def readable_run(self, addr: int, limit: int, perm: int = PERM_R) -> int:
        """Contiguous bytes starting at ``addr`` on pages mapped with
        ``perm``, capped at ``limit``.

        Walks page permissions only — never allocates or copies — so a
        guest-supplied multi-GiB ``limit`` costs O(mapped pages), not
        O(limit).  Syscall models use this to clamp guest-controlled
        lengths to what is actually mapped (partial-I/O semantics);
        instruction fetch uses it with ``PERM_X`` to stop its decode
        window at the last executable byte.
        """
        if limit <= 0:
            return 0
        run = 0
        page = addr & PAGE_MASK
        while self._perms.get(page, 0) & perm:
            run = min(limit, page + PAGE_SIZE - addr)
            if run == limit:
                break
            page += PAGE_SIZE
        return run

    def any_page_with(self, perm: int, addr: int, length: int) -> bool:
        """Is any of the ``ceil(length / PAGE_SIZE)`` (at least one)
        pages from ``addr``'s page on mapped with every bit of ``perm``
        (``perm=0``: mapped at all)?  Walks the mapped pages, so a
        guest-chosen ``length`` costs O(mapped pages)."""
        first = addr & PAGE_MASK
        end = first + -(-max(length, 1) // PAGE_SIZE) * PAGE_SIZE
        return any(
            first <= page < end and perms & perm == perm
            for page, perms in self._perms.items()
        )

    def _page_for(self, addr: int, needed: int, kind: str) -> bytearray:
        page_addr = addr & PAGE_MASK
        perms = self._perms.get(page_addr)
        if perms is None:
            raise MemoryFault(addr, f"{kind} of unmapped memory")
        if perms & needed != needed:
            raise MemoryFault(addr, f"{kind} permission denied")
        page = self._pages.get(page_addr)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_addr] = page
        return page

    # -- byte-level primitives --------------------------------------------

    def read(self, addr: int, size: int, *, execute: bool = False) -> bytes:
        off = addr & PAGE_OFFSET
        # A negative size reads nothing, as in the loop: no wrapped slice.
        if addr - off == self._read_at and 0 <= off + size <= PAGE_SIZE and not execute:
            return bytes(self._read_page[off : off + size])
        needed = PERM_X if execute else PERM_R
        kind = "execute" if execute else "read"
        out = bytearray()
        remaining = size
        cursor = addr
        while remaining > 0:
            page = self._page_for(cursor, needed, kind)
            if not execute:
                self._read_at, self._read_page = cursor & PAGE_MASK, page
            off = cursor & PAGE_OFFSET
            take = min(remaining, PAGE_SIZE - off)
            out += page[off : off + take]
            cursor += take
            remaining -= take
        return bytes(out)

    def write(self, addr: int, data: bytes, *, perm: int = PERM_W) -> None:
        """Write ``data`` at ``addr``; every page must be mapped with
        ``perm``."""
        off = addr & PAGE_OFFSET
        # The memo page is mapped W, so any ``perm`` within W passes.
        if addr - off == self._write_at and off + len(data) <= PAGE_SIZE and not perm & ~PERM_W:
            self._write_page[off : off + len(data)] = data
            return
        remaining = len(data)
        cursor = addr
        src = 0
        while remaining > 0:
            page = self._page_for(cursor, perm, "write")
            perms = self._perms[cursor & PAGE_MASK]
            if perms & PERM_X:
                self.exec_write_gen += 1
            elif perms & PERM_W:
                self._write_at, self._write_page = cursor & PAGE_MASK, page
            off = cursor & PAGE_OFFSET
            take = min(remaining, PAGE_SIZE - off)
            page[off : off + take] = data[src : src + take]
            cursor += take
            src += take
            remaining -= take

    def write_initial(self, addr: int, data: bytes) -> None:
        """Populate memory ignoring the W permission (image loading)."""
        self.write(addr, data, perm=0)

    # -- typed accessors ----------------------------------------------------

    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, (value & ((1 << 64) - 1)).to_bytes(8, "little"))

    def read_u8(self, addr: int) -> int:
        return self.read(addr, 1)[0]

    def write_u8(self, addr: int, value: int) -> None:
        self.write(addr, bytes([value & 0xFF]))

    def read_cstring(self, addr: int, max_len: int = 4096) -> bytes:
        """Read a NUL-terminated string (without the terminator)."""
        out = bytearray()
        for i in range(max_len):
            b = self.read_u8(addr + i)
            if b == 0:
                return bytes(out)
            out.append(b)
        raise MemoryFault(addr, "unterminated string")
