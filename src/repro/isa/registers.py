"""Register file definition for the NFL (No-Free-Lunch) machine.

The machine is deliberately x86-64 flavoured: sixteen 64-bit general
purpose registers with the familiar names, a stack pointer (``rsp``), a
frame pointer (``rbp``), and a small set of status flags.  Keeping the
x86-64 naming means the goal states from the paper (``rax = 59`` for
``execve`` and so on) transfer directly.
"""

from __future__ import annotations

import enum


class Reg(enum.IntEnum):
    """General purpose registers, numbered as in x86-64 encoding order."""

    RAX = 0
    RCX = 1
    RDX = 2
    RBX = 3
    RSP = 4
    RBP = 5
    RSI = 6
    RDI = 7
    R8 = 8
    R9 = 9
    R10 = 10
    R11 = 11
    R12 = 12
    R13 = 13
    R14 = 14
    R15 = 15

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.lower()


#: All registers in encoding order.
ALL_REGS = tuple(Reg)

#: Registers used to pass the first six integer arguments (SysV-like).
ARG_REGS = (Reg.RDI, Reg.RSI, Reg.RDX, Reg.RCX, Reg.R8, Reg.R9)

_NAME_TO_REG = {r.name.lower(): r for r in Reg}


def reg_by_name(name: str) -> Reg:
    """Look up a register by its lower-case mnemonic (e.g. ``"rax"``)."""
    try:
        return _NAME_TO_REG[name.lower()]
    except KeyError:
        raise ValueError(f"unknown register name: {name!r}") from None


class Flag(enum.Enum):
    """Status flags updated by arithmetic and comparison instructions."""

    ZF = "zf"  #: zero flag
    SF = "sf"  #: sign flag (bit 63 of the result)
    CF = "cf"  #: carry flag (unsigned overflow)
    OF = "of"  #: overflow flag (signed overflow)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


# Members are identity-compared singletons, so an identity hash agrees
# with equality, and it is C-level where Enum's hashes the name in Python.
Flag.__hash__ = object.__hash__  # type: ignore[assignment]


#: 64-bit wrap-around mask used throughout the project.
MASK64 = (1 << 64) - 1


def to_signed(value: int) -> int:
    """Interpret a 64-bit unsigned value as a signed integer."""
    value &= MASK64
    if value >= 1 << 63:
        return value - (1 << 64)
    return value
