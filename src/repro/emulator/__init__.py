"""Concrete execution: memory, CPU, syscall models."""

from .cpu import (
    CPUState,
    DivideError,
    Emulator,
    EmulatorError,
    InvalidInstruction,
    StepLimitExceeded,
    run_image,
)
from .memory import Memory, MemoryFault, PAGE_SIZE, PERM_R, PERM_W, PERM_X
from .syscalls import AttackTriggered, ProcessExit, Sys, SyscallEvent, SyscallHandler

__all__ = [
    "AttackTriggered",
    "CPUState",
    "DivideError",
    "Emulator",
    "EmulatorError",
    "InvalidInstruction",
    "Memory",
    "MemoryFault",
    "PAGE_SIZE",
    "PERM_R",
    "PERM_W",
    "PERM_X",
    "ProcessExit",
    "StepLimitExceeded",
    "Sys",
    "SyscallEvent",
    "SyscallHandler",
    "run_image",
]
