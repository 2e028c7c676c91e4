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
from typing import Callable, Dict, Optional

from ..binfmt.image import BinaryImage, STACK_SIZE, STACK_TOP
from ..isa.encoding import DecodeError, decode
from ..isa.instructions import Instruction, Op
from ..isa.registers import ALL_REGS, Flag, MASK64, Reg, to_signed
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


def _flags_logic(result: int) -> Dict[Flag, bool]:
    result &= MASK64
    return {
        Flag.ZF: result == 0,
        Flag.SF: bool(result >> 63),
        Flag.CF: False,
        Flag.OF: False,
    }


def _flags_add(a: int, b: int, result: int) -> Dict[Flag, bool]:
    result_m = result & MASK64
    sa, sb, sr = a >> 63, b >> 63, result_m >> 63
    return {
        Flag.ZF: result_m == 0,
        Flag.SF: bool(sr),
        Flag.CF: result > MASK64,
        Flag.OF: sa == sb and sa != sr,
    }


def _flags_sub(a: int, b: int) -> Dict[Flag, bool]:
    result_m = (a - b) & MASK64
    sa, sb, sr = a >> 63, b >> 63, result_m >> 63
    return {
        Flag.ZF: result_m == 0,
        Flag.SF: bool(sr),
        Flag.CF: a < b,
        Flag.OF: sa != sb and sa != sr,
    }


#: Condition predicates for the Jcc family, shared with documentation:
#: signed comparisons use SF/OF/ZF, unsigned use CF/ZF — as on x86.
COND_PREDICATES = {
    Op.JE: lambda f: f[Flag.ZF],
    Op.JNE: lambda f: not f[Flag.ZF],
    Op.JL: lambda f: f[Flag.SF] != f[Flag.OF],
    Op.JLE: lambda f: f[Flag.ZF] or (f[Flag.SF] != f[Flag.OF]),
    Op.JG: lambda f: (not f[Flag.ZF]) and f[Flag.SF] == f[Flag.OF],
    Op.JGE: lambda f: f[Flag.SF] == f[Flag.OF],
    Op.JB: lambda f: f[Flag.CF],
    Op.JBE: lambda f: f[Flag.CF] or f[Flag.ZF],
    Op.JA: lambda f: (not f[Flag.CF]) and (not f[Flag.ZF]),
    Op.JAE: lambda f: not f[Flag.CF],
    Op.JS: lambda f: f[Flag.SF],
    Op.JNS: lambda f: not f[Flag.SF],
}


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
        # Decoded-instruction cache, invalidated when executable pages
        # are written or page permissions change (both bump
        # exec_write_gen).
        self._insn_cache: Dict[int, Instruction] = {}
        self._cache_gen = self.memory.exec_write_gen

    # -- stack helpers -----------------------------------------------------

    def push(self, value: int) -> None:
        rsp = (self.cpu.get(Reg.RSP) - 8) & MASK64
        self.cpu.set(Reg.RSP, rsp)
        self.memory.write_u64(rsp, value)

    def pop(self) -> int:
        rsp = self.cpu.get(Reg.RSP)
        value = self.memory.read_u64(rsp)
        self.cpu.set(Reg.RSP, (rsp + 8) & MASK64)
        return value

    # -- execution ----------------------------------------------------------

    def fetch(self) -> Instruction:
        rip = self.cpu.rip
        if self._cache_gen != self.memory.exec_write_gen:
            self._insn_cache.clear()
            self._cache_gen = self.memory.exec_write_gen
        cached = self._insn_cache.get(rip)
        if cached is not None:
            return cached
        # Near a mapping edge the window stops at the last executable byte.
        size = self.memory.readable_run(rip, MAX_DECODE_SIZE, PERM_X)
        if not size:
            raise InvalidInstruction(f"fetch from non-executable memory at {rip:#x}")
        try:
            insn = decode(self.memory.read(rip, size, execute=True), 0, addr=rip)
        except DecodeError as exc:
            raise InvalidInstruction(str(exc)) from None
        self._insn_cache[rip] = insn
        return insn

    def step(self) -> None:
        """Execute one instruction."""
        if self.steps >= self.step_limit:
            raise StepLimitExceeded(f"exceeded {self.step_limit} steps")
        self.steps += 1
        insn = self.fetch()
        if self.step_hook is not None:
            self.step_hook(self, insn)
        self._execute(insn)

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

    # -- the dispatcher -------------------------------------------------------

    def _mem_addr(self, insn: Instruction) -> int:
        return (self.cpu.get(insn.base) + insn.disp) & MASK64

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
            return self.memory.read_u64(self._mem_addr(insn))
        target = self.cpu.get(insn.dst)
        if op is Op.CALL_R and insn.dst is Reg.RSP:
            return (target - 8) & MASK64
        return target

    def _execute(self, insn: Instruction) -> None:
        cpu = self.cpu
        op = insn.op
        next_rip = insn.end

        if op == Op.NOP:
            pass
        elif op == Op.HLT:
            raise ProcessExit(0)
        elif op == Op.SYSCALL:
            number = cpu.get(Reg.RAX)
            args = tuple(
                cpu.get(r) for r in (Reg.RDI, Reg.RSI, Reg.RDX, Reg.R10, Reg.R8, Reg.R9)
            )
            cpu.set(Reg.RAX, self.syscalls.dispatch(number, args))
        elif op == Op.RET:
            next_rip = self.pop()
        elif op == Op.LEAVE:
            cpu.set(Reg.RSP, cpu.get(Reg.RBP))
            cpu.set(Reg.RBP, self.pop())
        elif op in (Op.MOV_RI, Op.MOV_RI32):
            cpu.set(insn.dst, insn.imm)
        elif op == Op.MOV_RR:
            cpu.set(insn.dst, cpu.get(insn.src))
        elif op == Op.LOAD:
            cpu.set(insn.dst, self.memory.read_u64(self._mem_addr(insn)))
        elif op == Op.STORE:
            self.memory.write_u64(self._mem_addr(insn), cpu.get(insn.src))
        elif op == Op.LOADB:
            cpu.set(insn.dst, self.memory.read_u8(self._mem_addr(insn)))
        elif op == Op.STOREB:
            self.memory.write_u8(self._mem_addr(insn), cpu.get(insn.src) & 0xFF)
        elif op == Op.LEA:
            cpu.set(insn.dst, self._mem_addr(insn))
        elif op == Op.XCHG:
            a, b = cpu.get(insn.dst), cpu.get(insn.src)
            cpu.set(insn.dst, b)
            cpu.set(insn.src, a)
        elif op == Op.PUSH_R:
            self.push(cpu.get(insn.dst))
        elif op == Op.PUSH_I:
            self.push(insn.imm)
        elif op in (Op.POP_R, Op.POP1):
            cpu.set(insn.dst, self.pop())
        elif op in (Op.ADD_RR, Op.ADD_RI):
            a = cpu.get(insn.dst)
            b = cpu.get(insn.src) if op == Op.ADD_RR else insn.imm & MASK64
            result = a + b
            cpu.flags.update(_flags_add(a, b, result))
            cpu.set(insn.dst, result)
        elif op in (Op.SUB_RR, Op.SUB_RI):
            a = cpu.get(insn.dst)
            b = cpu.get(insn.src) if op == Op.SUB_RR else insn.imm & MASK64
            cpu.flags.update(_flags_sub(a, b))
            cpu.set(insn.dst, a - b)
        elif op in (Op.AND_RR, Op.AND_RI, Op.OR_RR, Op.OR_RI, Op.XOR_RR, Op.XOR_RI):
            a = cpu.get(insn.dst)
            b = cpu.get(insn.src) if insn.src is not None else insn.imm & MASK64
            if op in (Op.AND_RR, Op.AND_RI):
                result = a & b
            elif op in (Op.OR_RR, Op.OR_RI):
                result = a | b
            else:
                result = a ^ b
            cpu.flags.update(_flags_logic(result))
            cpu.set(insn.dst, result)
        elif op in (Op.SHL_RI, Op.SHR_RI, Op.SAR_RI):
            a = cpu.get(insn.dst)
            count = insn.imm & 0x3F
            if op == Op.SHL_RI:
                result = (a << count) & MASK64
            elif op == Op.SHR_RI:
                result = a >> count
            else:
                result = (to_signed(a) >> count) & MASK64
            cpu.flags.update(_flags_logic(result))
            cpu.set(insn.dst, result)
        elif op == Op.MUL_RR:
            result = (cpu.get(insn.dst) * cpu.get(insn.src)) & MASK64
            cpu.flags.update(_flags_logic(result))
            cpu.set(insn.dst, result)
        elif op == Op.NOT_R:
            cpu.set(insn.dst, ~cpu.get(insn.dst))
        elif op == Op.NEG_R:
            result = (-cpu.get(insn.dst)) & MASK64
            cpu.flags.update(_flags_logic(result))
            cpu.set(insn.dst, result)
        elif op == Op.INC_R:
            a = cpu.get(insn.dst)
            result = a + 1
            flags = _flags_add(a, 1, result)
            flags[Flag.CF] = cpu.flags[Flag.CF]  # INC preserves CF, as on x86
            cpu.flags.update(flags)
            cpu.set(insn.dst, result)
        elif op == Op.DEC_R:
            a = cpu.get(insn.dst)
            flags = _flags_sub(a, 1)
            flags[Flag.CF] = cpu.flags[Flag.CF]
            cpu.flags.update(flags)
            cpu.set(insn.dst, a - 1)
        elif op in (Op.UDIV_RR, Op.UMOD_RR):
            divisor = cpu.get(insn.src)
            if divisor == 0:
                raise DivideError(f"division by zero at {insn.addr:#x}")
            a = cpu.get(insn.dst)
            cpu.set(insn.dst, a // divisor if op == Op.UDIV_RR else a % divisor)
        elif op in (Op.CMP_RR, Op.CMP_RI):
            a = cpu.get(insn.dst)
            b = cpu.get(insn.src) if op == Op.CMP_RR else insn.imm & MASK64
            cpu.flags.update(_flags_sub(a, b))
        elif op in (Op.TEST_RR, Op.TEST_RI):
            a = cpu.get(insn.dst)
            b = cpu.get(insn.src) if op == Op.TEST_RR else insn.imm & MASK64
            cpu.flags.update(_flags_logic(a & b))
        elif op == Op.JMP_REL:
            next_rip = insn.target
        elif op == Op.JMP_R or op == Op.JMP_M:
            next_rip = self.transfer_target(insn)
        elif op == Op.CALL_REL:
            self.push(insn.end)
            next_rip = insn.target
        elif op == Op.CALL_R:
            next_rip = self.transfer_target(insn)
            self.push(insn.end)
        elif op in COND_PREDICATES:
            if COND_PREDICATES[op](cpu.flags):
                next_rip = insn.target
        else:  # pragma: no cover - exhaustive over Op
            raise AssertionError(f"unhandled opcode {op}")
        cpu.rip = next_rip & MASK64


def run_image(image: BinaryImage, *, step_limit: int = 2_000_000) -> tuple[int, bytes]:
    """Run an image to exit; return ``(status, stdout)``."""
    emu = Emulator(image, stop_on_attack=False, step_limit=step_limit)
    with span("emulate.run") as sp:
        status = emu.run()
        sp.add("steps", emu.steps)
        sp.add("syscall_events", len(emu.syscalls.events))
    return status, bytes(emu.syscalls.stdout)
