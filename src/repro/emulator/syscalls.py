"""Linux-flavoured syscall models for the NFL machine.

Syscall numbers follow the x86-64 Linux ABI so the paper's attack goal
states transfer verbatim (``rax = 59`` → ``execve``).  The four
attack-relevant syscalls (``execve``, ``mprotect``, ``mmap``,
``mremap``) are modelled as *events*: each passes the policy hook once,
then the emulator records it with its decoded arguments, and the
exploit tests assert on the recorded event.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from .memory import Memory, MemoryFault, PAGE_SIZE, PERM_R, PERM_W, PERM_X

#: Linux PROT_* bits — numerically identical to the Memory PERM_* bits,
#: so validated prot values apply to pages unchanged.
PROT_NONE = 0
PROT_READ = PERM_R
PROT_WRITE = PERM_W
PROT_EXEC = PERM_X
PROT_ALL = PROT_READ | PROT_WRITE | PROT_EXEC

#: Where anonymous ``mmap(addr=0)`` allocations land when the handler
#: models the call (far from image, stack, and validation scratch).
MMAP_BASE = 0x7F0000000000
#: Longest ``mmap`` the model backs (64 MiB); memory keeps one entry per
#: page, so longer requests get ``-ENOMEM`` instead of a walk over a
#: guest-chosen number of pages.
MMAP_MAX_LENGTH = 1 << 26

_EFAULT = -14 & ((1 << 64) - 1)
_EINVAL = -22 & ((1 << 64) - 1)
_ENOMEM = -12 & ((1 << 64) - 1)
_ENOSYS = -38 & ((1 << 64) - 1)


class Sys(enum.IntEnum):
    """Syscall numbers (x86-64 Linux subset)."""

    READ = 0
    WRITE = 1
    MMAP = 9
    MPROTECT = 10
    MREMAP = 25
    EXIT = 60
    EXECVE = 59


@dataclass(frozen=True)
class SyscallEvent:
    """A record of one attack-relevant syscall invocation."""

    number: Sys
    args: tuple
    #: Decoded convenience fields:
    path: Optional[bytes] = None  # execve path
    addr: Optional[int] = None  # mprotect/mmap/mremap address
    length: Optional[int] = None  # mprotect/mmap length, mremap new_len
    prot: Optional[int] = None  # protection bits (never set for mremap)
    flags: Optional[int] = None  # mmap/mremap flags

    def is_shell_spawn(self, shell: bytes = b"/bin/sh") -> bool:
        return self.number == Sys.EXECVE and self.path == shell


class ProcessExit(Exception):
    """Raised when the guest calls ``exit``."""

    def __init__(self, status: int):
        super().__init__(f"exit({status})")
        self.status = status


class AttackTriggered(Exception):
    """Raised when an attack-goal syscall executes (stops the run)."""

    def __init__(self, event: SyscallEvent):
        super().__init__(f"attack syscall: {event.number.name}{event.args}")
        self.event = event


@dataclass
class SyscallHandler:
    """Dispatches syscalls against emulator memory.

    ``stop_on_attack`` makes attack-goal syscalls raise
    :class:`AttackTriggered`, which exploit-validation uses as its
    success signal.
    """

    memory: Memory
    stop_on_attack: bool = True
    stdout: bytearray = field(default_factory=bytearray)
    events: List[SyscallEvent] = field(default_factory=list)
    #: Policy hook (e.g. a W^X model): called as ``filter(sys_no, args)``
    #: after argument validation but before the syscall takes effect or
    #: is recorded as an event.  Returning an int vetoes the call with
    #: that value as the guest-visible return; returning ``None`` lets
    #: it proceed.  ``None`` (the default) is byte-for-byte the
    #: historical behaviour.
    syscall_filter: Optional[Callable[[Sys, tuple], Optional[int]]] = None
    #: Bump allocator for modelled anonymous ``mmap(addr=0)`` calls.
    mmap_cursor: int = MMAP_BASE

    def dispatch(self, number: int, args: tuple) -> int:
        """Handle syscall ``number`` with up to six ``args``; returns rax."""
        try:
            sys_no = Sys(number)
        except ValueError:
            return _ENOSYS
        if sys_no == Sys.WRITE:
            return self._sys_write(args)
        if sys_no == Sys.READ:
            return 0  # EOF
        if sys_no == Sys.EXIT:
            raise ProcessExit(args[0] & 0xFF)
        # Kernel semantics: mprotect's addr must be page-aligned and its
        # prot a combination of PROT_READ|WRITE|EXEC, else -EINVAL
        # *before* any effect (and before any policy hook sees a
        # malformed request).  length need not be aligned — it is
        # rounded up to whole pages.
        if sys_no == Sys.MPROTECT and (args[0] % PAGE_SIZE or args[2] & ~PROT_ALL):
            return _EINVAL
        if self.syscall_filter is not None:
            veto = self.syscall_filter(sys_no, args)
            if veto is not None:
                return veto
        return self._attack_event(self._decode_event(sys_no, args))

    def _sys_write(self, args: tuple) -> int:
        _fd, buf, count = args[0], args[1], args[2]
        if count == 0:
            return 0
        # Never trust the guest length: clamp to the contiguous mapped
        # run so a corrupted payload asking for a multi-GiB read cannot
        # OOM the host.  Like the kernel, write what is readable
        # (partial-write semantics) and fault only when nothing is.
        readable = self.memory.readable_run(buf, count)
        if readable == 0:
            return _EFAULT
        try:
            data = self.memory.read(buf, readable)
        except MemoryFault:  # pragma: no cover - readable_run said ok
            return _EFAULT
        self.stdout += data
        return readable

    def _decode_event(self, sys_no: Sys, args: tuple) -> SyscallEvent:
        """The event record of attack syscall ``sys_no`` (execve,
        mprotect, mmap or mremap) with its decoded arguments."""
        if sys_no == Sys.EXECVE:
            try:
                path = self.memory.read_cstring(args[0])
            except MemoryFault:
                path = None
            return SyscallEvent(Sys.EXECVE, args[:3], path=path)
        if sys_no == Sys.MPROTECT:
            return SyscallEvent(
                Sys.MPROTECT, args[:3], addr=args[0], length=args[1], prot=args[2]
            )
        if sys_no == Sys.MMAP:
            return SyscallEvent(
                Sys.MMAP, args[:6], addr=args[0], length=args[1], prot=args[2], flags=args[3]
            )
        # mremap(old_addr, old_size, new_size, flags, new_addr) has no
        # prot argument — decoding it like mmap mislabelled
        # new_size/flags as prot and misreported the goal state.
        return SyscallEvent(
            Sys.MREMAP, args[:5], addr=args[0], length=args[2], flags=args[3]
        )

    def _attack_event(self, event: SyscallEvent) -> int:
        self.events.append(event)
        if self.stop_on_attack:
            raise AttackTriggered(event)
        if event.number == Sys.MPROTECT and event.addr is not None:
            # Model the real effect (the *requested* permissions, over
            # whole pages) so follow-on shellcode jumps work — or fault.
            length = max(event.length or 0, 1)
            try:
                self.memory.protect(event.addr, length, event.prot or 0)
            except MemoryFault:
                return _EINVAL
            return 0
        if event.number == Sys.MMAP:
            return self._model_mmap(event)
        return 0

    def _model_mmap(self, event: SyscallEvent) -> int:
        """Model an anonymous mapping so the caller can use the region.

        Only reached with ``stop_on_attack`` off (payload *demos* that
        run past the goal syscall); validation never gets here.
        """
        length = event.length or 0
        prot = event.prot or 0
        addr = event.addr or 0
        if length <= 0 or prot & ~PROT_ALL or addr % PAGE_SIZE != 0:
            return _EINVAL
        if length > MMAP_MAX_LENGTH:
            return _ENOMEM
        size = -(-length // PAGE_SIZE) * PAGE_SIZE
        if addr == 0:
            addr = self.mmap_cursor
            self.mmap_cursor += size
        if self.memory.any_page_with(0, addr, size):
            return _ENOMEM  # no MAP_FIXED clobbering in the model
        self.memory.map(addr, size, prot)
        return addr
