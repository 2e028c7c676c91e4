"""Attack goals — the target states of Sec. II-B.

A goal describes the machine state that must hold when control reaches
a ``syscall`` instruction: a concrete value per argument register, where
a value may be a :class:`Pointer` — the paper's POINTER constraint type,
"a value working as a pointer to a readable or writable memory area"
holding specific bytes.

Pointer goals are resolved before planning: if the required bytes exist
anywhere in the binary image (e.g. ``"/bin/sh"`` in .rodata), that
address is used; otherwise the resolver requests memory-write
sub-goals targeting the image's writable scratch area, which the
planner discharges with write-memory gadgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..binfmt.image import BinaryImage
from ..emulator.syscalls import Sys
from ..isa.registers import Reg


@dataclass(frozen=True)
class Pointer:
    """The POINTER constraint: the register must point at ``data``."""

    data: bytes

    def __repr__(self) -> str:
        return f"Pointer(to={self.data!r})"


GoalValue = Union[int, Pointer]


@dataclass(frozen=True)
class AttackGoal:
    """A named goal state: register values to hold at the syscall."""

    name: str
    syscall: Sys
    regs: Tuple[Tuple[Reg, GoalValue], ...]

    def __str__(self) -> str:
        args = ", ".join(f"{r}={v:#x}" if isinstance(v, int) else f"{r}={v}" for r, v in self.regs)
        return f"{self.name}({args})"


def execve_goal(path: bytes = b"/bin/sh") -> AttackGoal:
    """execve(path, 0, 0) — spawn a shell (the paper's Fig. 8 target)."""
    return AttackGoal(
        name="execve",
        syscall=Sys.EXECVE,
        regs=(
            (Reg.RAX, int(Sys.EXECVE)),
            (Reg.RDI, Pointer(path + b"\x00")),
            (Reg.RSI, 0),
            (Reg.RDX, 0),
        ),
    )


def mprotect_goal(addr: int, length: int = 0x1000, prot: int = 7) -> AttackGoal:
    """mprotect(addr, length, RWX) — make attacker memory executable."""
    return AttackGoal(
        name="mprotect",
        syscall=Sys.MPROTECT,
        regs=(
            (Reg.RAX, int(Sys.MPROTECT)),
            (Reg.RDI, addr),
            (Reg.RSI, length),
            (Reg.RDX, prot),
        ),
    )


def mmap_goal(length: int = 0x1000, prot: int = 7) -> AttackGoal:
    """mmap(0, length, RWX, ...) — map fresh executable memory."""
    return AttackGoal(
        name="mmap",
        syscall=Sys.MMAP,
        regs=(
            (Reg.RAX, int(Sys.MMAP)),
            (Reg.RDI, 0),
            (Reg.RSI, length),
            (Reg.RDX, prot),
        ),
    )


def standard_goals(image: BinaryImage) -> List[AttackGoal]:
    """The paper's three attack families, parameterized for an image.

    ``length = prot = 7`` for the W^X attacks is deliberate value
    reuse: the kernel rounds mprotect lengths up to a page anyway, and
    a goal whose ``rsi`` and ``rdx`` coincide stays satisfiable through
    libc-style ``syscall()`` wrapper gadgets whose argument shuffle
    leaves one register serving both — a standard trick when building
    real chains through wrapper entries.
    """
    data = image.data
    return [
        execve_goal(),
        mprotect_goal(addr=data.addr & ~0xFFF, length=7),
        mmap_goal(length=7),
    ]


# ---------------------------------------------------------------------------
# Pointer resolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemoryGoal:
    """Bytes that must be planted at a concrete writable address."""

    addr: int
    data: bytes

    def words(self) -> List[Tuple[int, int]]:
        """(address, 64-bit value) pairs, 8-byte aligned writes."""
        padded = self.data + b"\x00" * ((8 - len(self.data) % 8) % 8)
        return [
            (self.addr + i, int.from_bytes(padded[i : i + 8], "little"))
            for i in range(0, len(padded), 8)
        ]


@dataclass
class ResolvedGoal:
    """An AttackGoal with every Pointer turned into a concrete address."""

    goal: AttackGoal
    reg_values: Dict[Reg, int]
    memory_goals: List[MemoryGoal] = field(default_factory=list)


def find_bytes_in_image(image: BinaryImage, needle: bytes) -> Optional[int]:
    """The address of ``needle`` in the image, or None.

    Searches ``.text`` first, then the other sections in image order:
    immutable text beats writable data, whose contents may have changed
    by the time an exploit fires.
    """
    for section in sorted(image.sections, key=lambda s: s.name != ".text"):
        index = section.data.find(needle)
        if index >= 0:
            return section.addr + index
    return None


def resolve_goal(image: BinaryImage, goal: AttackGoal) -> ResolvedGoal:
    """Resolve Pointer values to addresses, queuing writes if needed."""
    scratch = image.symbols.get("__scratch")
    resolved = ResolvedGoal(goal=goal, reg_values={})
    scratch_cursor = scratch
    for reg, value in goal.regs:
        if isinstance(value, int):
            resolved.reg_values[reg] = value
            continue
        existing = find_bytes_in_image(image, value.data)
        if existing is not None:
            resolved.reg_values[reg] = existing
            continue
        if scratch_cursor is None:
            raise ValueError("image has no scratch area for pointer goals")
        resolved.reg_values[reg] = scratch_cursor
        resolved.memory_goals.append(MemoryGoal(addr=scratch_cursor, data=value.data))
        scratch_cursor += (len(value.data) + 15) & ~7  # spacing between blobs
    return resolved
