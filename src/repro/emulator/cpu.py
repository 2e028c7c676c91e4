"""Concrete CPU for the NFL machine.

The emulator serves two roles in the reproduction:

1. running compiled benchmark programs end-to-end (so the mini-C
   compiler and the obfuscation passes can be validated as
   *semantics-preserving*), and
2. executing attacker payloads produced by the planner against the
   vulnerable binaries, asserting that the chain really reaches the
   goal syscall — the ground truth every payload count in the
   evaluation is measured against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..binfmt.image import BinaryImage, STACK_SIZE, STACK_TOP
from ..isa.encoding import DecodeError, decode
from ..isa.instructions import COND_JUMPS, Instruction, Op
from ..isa.registers import ALL_REGS, Flag, MASK64, Reg
from ..isa.semantics import (
    CONSTANTS,
    JCC,
    SEMANTICS,
    WIDTHS,
    IntDomain,
    Loc,
    Step,
    flag_values,
    register,
)
from ..obs import span
from .memory import Memory, MemoryFault, PERM_R, PERM_W, PERM_X
from .syscalls import AttackTriggered, ProcessExit, SyscallHandler

MAX_DECODE_SIZE = 16


class EmulatorError(Exception):
    """Base class for guest execution failures."""


class InvalidInstruction(EmulatorError):
    """The guest jumped into bytes that do not decode."""


class DivideError(EmulatorError):
    """Unsigned division by zero."""


class StepLimitExceeded(EmulatorError):
    """The instruction budget ran out (likely an infinite loop)."""


@dataclass
class CPUState:
    """Architectural state: registers, flags, instruction pointer."""

    regs: Dict[Reg, int] = field(default_factory=lambda: {r: 0 for r in ALL_REGS})
    flags: Dict[Flag, bool] = field(default_factory=lambda: {f: False for f in Flag})
    rip: int = 0

    def get(self, reg: Reg) -> int:
        return self.regs[reg]

    def set(self, reg: Reg, value: int) -> None:
        self.regs[reg] = value & MASK64


class Emulator:
    """A concrete interpreter for NFL binaries."""

    def __init__(
        self,
        image: BinaryImage,
        *,
        stop_on_attack: bool = True,
        step_limit: int = 2_000_000,
        step_hook: Optional[Callable[["Emulator", Instruction], None]] = None,
    ) -> None:
        self.image = image
        self.memory = Memory()
        self.cpu = CPUState()
        self.step_limit = step_limit
        self.steps = 0
        #: Profiling hook: called as ``hook(emulator, insn)`` before
        #: each instruction executes.  ``None`` (the default) costs one
        #: attribute check per step; profilers/coverage tools install a
        #: callable without subclassing the emulator.
        self.step_hook = step_hook
        for sec in image.sections:
            perms = PERM_R
            if sec.writable:
                perms |= PERM_W
            if sec.executable:
                perms |= PERM_X
            self.memory.map(sec.addr, max(len(sec.data), 1), perms)
            if sec.data:
                self.memory.write_initial(sec.addr, sec.data)
        self.memory.map(STACK_TOP - STACK_SIZE, STACK_SIZE, PERM_R | PERM_W)
        # Leave headroom above the initial rsp: overflow payloads (and
        # the environment/argv area on a real Linux stack) live there.
        self.cpu.set(Reg.RSP, STACK_TOP - 0x20000)
        self.cpu.rip = image.entry
        self.syscalls = SyscallHandler(self.memory, stop_on_attack=stop_on_attack)
        # Decoded instructions and their translated handlers,
        # invalidated when executable pages are written or page
        # permissions change (both bump exec_write_gen).
        self._insn_cache: Dict[int, Tuple[Instruction, "Handler"]] = {}
        self._cache_gen = self.memory.exec_write_gen
        #: Decode-cache misses (instructions decoded and translated) and
        #: invalidations of the whole cache by an ``exec_write_gen`` bump.
        self.translations = 0
        self.flushes = 0

    # -- stack helpers -----------------------------------------------------

    def push(self, value: int) -> None:
        regs = self.cpu.regs
        rsp = regs[_RSP] = (regs[_RSP] - 8) & MASK64
        self.memory.write_u64(rsp, value)

    def pop(self) -> int:
        regs = self.cpu.regs
        rsp = regs[_RSP]
        value = self.memory.read_u64(rsp)
        regs[_RSP] = (rsp + 8) & MASK64
        return value

    # -- execution ----------------------------------------------------------

    def _fetch_entry(self) -> Tuple[Instruction, "Handler"]:
        rip = self.cpu.rip
        if self._cache_gen != self.memory.exec_write_gen:
            self._insn_cache.clear()
            self._cache_gen = self.memory.exec_write_gen
            self.flushes += 1
        entry = self._insn_cache.get(rip)
        if entry is not None:
            return entry
        self.translations += 1
        # Near a mapping edge the window stops at the last executable byte.
        size = self.memory.readable_run(rip, MAX_DECODE_SIZE, PERM_X)
        if not size:
            raise InvalidInstruction(f"fetch from non-executable memory at {rip:#x}")
        try:
            insn = decode(self.memory.read(rip, size, execute=True), 0, addr=rip)
        except DecodeError as exc:
            raise InvalidInstruction(str(exc)) from None
        entry = self._insn_cache[rip] = (insn, _translate(insn))
        return entry

    def fetch(self) -> Instruction:
        """The instruction at ``rip``."""
        return self._fetch_entry()[0]

    def step(self) -> None:
        """Execute one instruction."""
        if self.steps >= self.step_limit:
            raise StepLimitExceeded(f"exceeded {self.step_limit} steps")
        self.steps += 1
        # The decode-cache hit inline; _fetch_entry flushes and decodes.
        entry = None
        if self._cache_gen == self.memory.exec_write_gen:
            entry = self._insn_cache.get(self.cpu.rip)
        insn, handler = entry or self._fetch_entry()
        if self.step_hook is not None:
            self.step_hook(self, insn)
        self.cpu.rip = handler(self)

    def run(self) -> int:
        """Run until exit; returns the exit status.

        :class:`AttackTriggered` propagates to the caller when
        ``stop_on_attack`` is set — exploit validation catches it.
        """
        try:
            while True:
                self.step()
        except ProcessExit as exit_exc:
            return exit_exc.status

    def run_catching_attack(self):
        """Run and return the attack event if one fires, else ``None``."""
        try:
            self.run()
        except AttackTriggered as attack:
            return attack.event
        except EmulatorError:
            return None
        except MemoryFault:
            return None
        return None

    # -- control transfers ----------------------------------------------------

    def transfer_target(self, insn: Instruction) -> int:
        """Where the indirect transfer ``insn`` (``ret``, ``jmp reg``,
        ``jmp [mem]``, ``call reg``) lands from the current state.

        Reads state without changing it, so a step hook may ask before
        ``insn`` executes.  ``call reg`` reads the register as it is
        after the return address is pushed: ``call rsp`` lands at
        ``rsp - 8``.
        """
        op = insn.op
        if op is Op.RET:
            return self.memory.read_u64(self.cpu.get(Reg.RSP))
        if op is Op.JMP_M:
            return self.memory.read_u64((self.cpu.get(insn.base) + insn.disp) & MASK64)
        target = self.cpu.get(insn.dst)
        if op is Op.CALL_R and insn.dst is Reg.RSP:
            return (target - 8) & MASK64
        return target

    def _call(self, return_addr: int, landing: int) -> int:
        self.push(return_addr)
        return landing

    def _syscall(self, next_rip: int) -> int:
        regs = self.cpu.regs
        args = tuple(regs[r] for r in (Reg.RDI, Reg.RSI, Reg.RDX, Reg.R10, Reg.R8, Reg.R9))
        self.cpu.set(Reg.RAX, self.syscalls.dispatch(regs[Reg.RAX], args))
        return next_rip


# -- translation: one handler per decoded instruction -------------------------

#: A translated instruction: runs it on the emulator, returns the next rip.
Handler = Callable[[Emulator], int]

_RSP = Reg.RSP
_ZF, _SF, _CF, _OF = Flag.ZF, Flag.SF, Flag.CF, Flag.OF


def _translate(insn: Instruction) -> Handler:
    """The handler for ``insn``: its semantics row over :class:`IntDomain`,
    or a control transfer, with operands resolved once."""
    op, end = insn.op, insn.end & MASK64
    if op in SEMANTICS:
        row = SEMANTICS[op]
        if len(row) == 1:
            return _step_handler(row[0], insn, end)
        steps = [_int_step(step, insn) for step in row]

        def run(emu: Emulator) -> int:
            for step in steps:
                step(emu)
            return end

        return run
    target = (insn.target or 0) & MASK64
    if op in COND_JUMPS:
        taken = JCC[op]

        def jcc(emu: Emulator) -> int:
            f = emu.cpu.flags
            jumps = taken(IntDomain, f[_ZF], f[_SF], f[_CF], f[_OF])
            return target if jumps else end

        return jcc
    if op is Op.HLT:
        return _halt
    if op is Op.SYSCALL:
        return lambda emu: emu._syscall(end)
    if op is Op.RET:
        return lambda emu: emu.pop()
    if op is Op.JMP_REL:
        return lambda emu: target
    if op is Op.CALL_REL:
        return lambda emu: emu._call(end, target)
    if op is Op.CALL_R:
        return lambda emu: emu._call(end, emu.transfer_target(insn))
    return lambda emu: emu.transfer_target(insn)  # jmp reg, jmp [mem]


def _halt(emu: Emulator) -> int:
    raise ProcessExit(0)


def _step_handler(step: Step, insn: Instruction, end: int) -> Handler:
    """The handler of a one-step row, specialised to the step's shape.

    A move or a one-operand function composes its reader and writer; a
    flagged two-operand step reads both operands into locals.  Any
    other step (two writes, a trapping divide, a flagged one-operand
    step) runs as :func:`_int_step`.
    """
    reads = [_reader(loc, insn) for loc in step.reads]
    writes = [_writer(loc, insn) for loc in step.writes]
    fn = step.fn and getattr(IntDomain, step.fn)
    rule, keep_cf = step.flags, step.keep_cf
    if rule is None and len(reads) == len(writes) == 1:
        (read,), (write,) = reads, writes
        if fn is None:

            def move(emu: Emulator) -> int:
                write(emu, read(emu))
                return end

            return move

        def unary(emu: Emulator) -> int:
            write(emu, fn(read(emu)))
            return end

        return unary
    if rule is not None and len(reads) == 2 and len(writes) <= 1:
        read_a, read_b = reads
        write = writes[0] if writes else None

        def flagged(emu: Emulator) -> int:
            a = read_a(emu)
            b = read_b(emu)
            r = fn(a, b)
            flags = emu.cpu.flags
            flags[_ZF], flags[_SF], cf, flags[_OF] = flag_values(IntDomain, rule, r, a, b)
            if not keep_cf:
                flags[_CF] = cf
            if write is not None:
                write(emu, r)
            return end

        return flagged
    run_step = _int_step(step, insn)

    def run(emu: Emulator) -> int:
        run_step(emu)
        return end

    return run


def _int_step(step: Step, insn: Instruction) -> Callable[[Emulator], None]:
    """One step of a semantics row over :class:`IntDomain`, whatever its shape."""
    reads = [_reader(loc, insn) for loc in step.reads]
    writes = [_writer(loc, insn) for loc in step.writes]
    fn = step.fn and getattr(IntDomain, step.fn)
    rule, keep_cf, traps = step.flags, step.keep_cf, step.traps

    def run(emu: Emulator) -> None:
        values = [read(emu) for read in reads]
        if traps and not values[1]:
            raise DivideError(f"division by zero at {insn.addr:#x}")
        results = [fn(*values)] if fn else values
        if rule is not None:
            flags = emu.cpu.flags
            flags[_ZF], flags[_SF], cf, flags[_OF] = flag_values(
                IntDomain, rule, results[0], *values
            )
            if not keep_cf:
                flags[_CF] = cf
        for write, value in zip(writes, results):
            write(emu, value)

    return run


def _reader(loc: Loc, insn: Instruction) -> Callable[[Emulator], int]:
    reg = register(loc, insn)
    if reg is not None:
        return lambda emu: emu.cpu.regs[reg]
    if loc in CONSTANTS:
        value = CONSTANTS[loc](IntDomain, insn)
        return lambda emu: value
    if loc is Loc.STACK:
        return lambda emu: emu.pop()
    base, disp = insn.base, insn.disp
    if loc is Loc.EA:
        return lambda emu: (emu.cpu.regs[base] + disp) & MASK64
    load = Memory.read_u64 if WIDTHS[loc] == 8 else Memory.read_u8
    return lambda emu: load(emu.memory, (emu.cpu.regs[base] + disp) & MASK64)


def _writer(loc: Loc, insn: Instruction) -> Callable[[Emulator, int], None]:
    reg = register(loc, insn)
    if reg is not None:

        def set_reg(emu: Emulator, value: int) -> None:
            emu.cpu.regs[reg] = value & MASK64

        return set_reg
    if loc is Loc.STACK:
        return lambda emu, value: emu.push(value)
    base, disp = insn.base, insn.disp
    store = Memory.write_u64 if WIDTHS[loc] == 8 else Memory.write_u8
    return lambda emu, value: store(emu.memory, (emu.cpu.regs[base] + disp) & MASK64, value)


def run_image(image: BinaryImage, *, step_limit: int = 2_000_000) -> tuple[int, bytes]:
    """Run an image to exit; return ``(status, stdout)``."""
    emu = Emulator(image, stop_on_attack=False, step_limit=step_limit)
    with span("emulate.run") as sp:
        status = emu.run()
        sp.add("steps", emu.steps)
        sp.add("syscall_events", len(emu.syscalls.events))
        sp.add("translations", emu.translations)
        sp.add("flushes", emu.flushes)
    return status, bytes(emu.syscalls.stdout)
