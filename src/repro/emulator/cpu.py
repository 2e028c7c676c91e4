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
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..binfmt.image import BinaryImage, STACK_SIZE, STACK_TOP
from ..isa.encoding import DecodeError, decode
from ..isa.instructions import Instruction, Op
from ..isa.registers import ALL_REGS, Flag, MASK64, Reg
from ..isa.semantics import (
    CONSTANTS,
    CONTROL_OPS,
    JCC,
    SEMANTICS,
    WIDTHS,
    IntDomain,
    Loc,
    Place,
    RowSource,
    SourceDomain,
    Step,
    compile_factory,
    factory_text,
    flag_values,
)
from ..obs import span
from .memory import Memory, MemoryFault, PAGE_OFFSET, PAGE_SIZE, PERM_R, PERM_W, PERM_X
from .syscalls import AttackTriggered, ProcessExit, SyscallHandler

MAX_DECODE_SIZE = 16

#: The most instructions one block holds, which bounds what a long
#: straight line costs when jumps land all along it (a block per target).
MAX_BLOCK_INSNS = 64


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
        # Decoded instructions and their translated handlers, and the
        # blocks made of them, dropped when executable pages are written
        # or page permissions change (both bump exec_write_gen).
        self._insn_cache: Dict[int, Tuple[Instruction, Handler]] = {}
        self._block_cache: Dict[int, Block] = {}
        self._cache_gen = self.memory.exec_write_gen
        #: Decode-cache misses (instructions decoded and translated),
        #: invalidations of both caches by an ``exec_write_gen`` bump, and
        #: blocks built.
        self.translations = 0
        self.flushes = 0
        self.blocks = 0

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

    def _flush(self) -> None:
        self._insn_cache.clear()
        self._block_cache.clear()
        self._cache_gen = self.memory.exec_write_gen
        self.flushes += 1

    def _fetch_entry(self, rip: int) -> Tuple[Instruction, Handler]:
        """The decoded instruction at ``rip`` and its handler: the one
        decoder, through the decode cache."""
        if self._cache_gen != self.memory.exec_write_gen:
            self._flush()
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
        return self._fetch_entry(self.cpu.rip)[0]

    def step(self) -> None:
        """Execute one instruction."""
        if self.steps >= self.step_limit:
            raise StepLimitExceeded(f"exceeded {self.step_limit} steps")
        self.steps += 1
        # The decode-cache hit inline; _fetch_entry flushes and decodes.
        entry = None
        if self._cache_gen == self.memory.exec_write_gen:
            entry = self._insn_cache.get(self.cpu.rip)
        insn, handler = entry or self._fetch_entry(self.cpu.rip)
        if self.step_hook is not None:
            self.step_hook(self, insn)
        self.cpu.rip = handler(self)

    def run(self) -> int:
        """Run until exit; returns the exit status.

        With no ``step_hook``, runs whole blocks (:meth:`_run_blocks`),
        and :meth:`step` only where a block cannot run.
        :class:`AttackTriggered` propagates to the caller when
        ``stop_on_attack`` is set — exploit validation catches it.
        """
        try:
            while True:
                if self.step_hook is None:
                    self._run_blocks()
                self.step()
        except ProcessExit as exit_exc:
            return exit_exc.status

    def _run_blocks(self) -> None:
        """Run the block at each ``rip`` until one cannot run: its code
        is on a W|X page or does not decode, it would cross
        ``step_limit``, or a step hook is installed.

        ``steps`` counts a whole block before it runs.  An exception
        from the block leaves ``steps`` and ``rip`` as :meth:`step`
        would: the faulting instruction counted, ``rip`` on it.
        """
        cpu, memory, cache = self.cpu, self.memory, self._block_cache
        while self.step_hook is None:
            if self._cache_gen != memory.exec_write_gen:
                self._flush()
            rip = cpu.rip
            block = cache.get(rip)
            if block is None:
                block = cache[rip] = self._build_block(rip)
            start = self.steps
            if not block or start + len(block) > self.step_limit:
                return
            self.steps = start + len(block)
            try:
                for insn, handler in block:
                    rip = handler(self)
            except BaseException:
                self.steps = start + 1 + [entry[0] for entry in block].index(insn)
                cpu.rip = insn.addr
                raise
            cpu.rip = rip

    def _build_block(self, rip: int) -> Block:
        """The entries from ``rip`` up to and including the first control
        op, on pages mapped X and not W, at most :data:`MAX_BLOCK_INSNS`;
        empty when the first cannot join."""
        entries: List[Tuple[Instruction, Handler]] = []
        addr = rip
        perms_at = self.memory.perms_at
        while len(entries) < MAX_BLOCK_INSNS and perms_at(addr) & (PERM_W | PERM_X) == PERM_X:
            try:
                entry = self._fetch_entry(addr)
            except InvalidInstruction:
                break
            insn = entry[0]
            if perms_at(insn.end - 1) & (PERM_W | PERM_X) != PERM_X:
                break
            entries.append(entry)
            if insn.op in CONTROL_OPS:
                break
            addr = insn.end & MASK64
        if entries:
            self.blocks += 1
        return tuple(entries)

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
#: Straight-line decode-cache entries that :meth:`Emulator.run` runs as one.
Block = Tuple[Tuple[Instruction, Handler], ...]

_RSP = Reg.RSP


def _translate(insn: Instruction) -> Handler:
    """The handler for ``insn``: its op's generated handler (a
    semantics row or a Jcc predicate), or a control transfer, with
    operands resolved once."""
    op, end = insn.op, insn.end & MASK64
    if op in SEMANTICS or op in JCC:
        factory = _FACTORIES.get(op) or _compile_factory(op)
        return factory(insn, end)
    if op is Op.HLT:
        return _halt
    if op is Op.SYSCALL:
        return lambda emu: emu._syscall(end)
    if op is Op.RET:
        return lambda emu: emu.pop()
    target = (insn.target or 0) & MASK64
    if op is Op.JMP_REL:
        return lambda emu: target
    if op is Op.CALL_REL:
        return lambda emu: emu._call(end, target)
    if op is Op.CALL_R:
        return lambda emu: emu._call(end, emu.transfer_target(insn))
    return lambda emu: emu.transfer_target(insn)  # jmp reg, jmp [mem]


def _halt(emu: Emulator) -> int:
    raise ProcessExit(0)


# -- handlers generated from the semantics table --------------------------------

#: Per op, the compiled factory ``make(insn, end) -> Handler``.
_FACTORIES: Dict[Op, Callable[[Instruction, int], Handler]] = {}

#: What generated source may name besides its operands, all constants,
#: so the source depends on the op alone.  ``IMM(insn)``, ``COUNT(insn)``
#: and ``ONE(insn)`` read a constant operand as :data:`CONSTANTS` states
#: it over :class:`IntDomain`.
_NAMESPACE: Dict[str, object] = {
    "MASK64": MASK64,
    "SIGN64": 1 << 63,
    "DivideError": DivideError,
    **{flag.name: flag for flag in Flag},
    **{reg.name: reg for reg in Reg},
    **{loc.name: partial(read, IntDomain) for loc, read in CONSTANTS.items()},
}


def _compile_factory(op: Op) -> Callable[[Instruction, int], Handler]:
    factory = compile_factory(factory_source(op), f"<handler {op.name}>", _NAMESPACE)
    _FACTORIES[op] = factory
    return factory


def factory_source(op: Op) -> str:
    """The Python source of ``make(insn, end)``, which returns ``op``'s
    handler with ``insn``'s operands bound: the op's semantics row, or
    its Jcc predicate, over :class:`SourceDomain`.

    Register, flag and memory accesses are inlined; a memory access
    takes :class:`Memory`'s one-page memo inline and calls it otherwise,
    and a stack access calls ``emu.pop``/``emu.push``.
    """
    if op in JCC:
        taken = JCC[op](SourceDomain, *(f"flags[{f}]" for f in ("ZF", "SF", "CF", "OF")))
        fields = {"target": "(insn.target or 0) & MASK64"}
        body = ["flags = emu.cpu.flags", f"return target if {taken} else end"]
        return factory_text("insn, end", "emu", fields, body)
    gen = _RowSource().row(op)
    return factory_text("insn, end", "emu", gen.fields, gen.prologue() + gen.lines + ["return end"])


class _RowSource(RowSource):
    """The emulator's emitters: a row over :class:`SourceDomain`, on
    ``emu``'s registers, flags and memory."""

    def __init__(self) -> None:
        super().__init__()
        self.state: List[str] = []  # of "regs", "flags", "mem"

    def prologue(self) -> List[str]:
        homes = {"regs": "emu.cpu.regs", "flags": "emu.cpu.flags", "mem": "emu.memory"}
        return [f"{name} = {homes[name]}" for name in homes if name in self.state]

    def use(self, *names: str) -> None:
        """Note the machine state (``regs``, ``flags``, ``mem``) and the
        instruction fields the handler reads."""
        for name in names:
            if name in ("regs", "flags", "mem"):
                if name not in self.state:
                    self.state.append(name)
            else:
                self.fields.setdefault(name, f"insn.{name}")

    def register(self, place: Place) -> Optional[str]:
        """The expression of the register ``place`` names, or None."""
        if place is Loc.DST or place is Loc.SRC:
            self.use("regs", place.value)
            return f"regs[{place.value}]"
        if isinstance(place, Reg):
            self.use("regs")
            return f"regs[{place.name}]"
        return None

    def address(self) -> None:
        self.use("regs", "base", "disp", "mem")
        self.lines += ["ea = (regs[base] + disp) & MASK64", f"off = ea & {PAGE_OFFSET}"]

    def read(self, place: Place) -> str:
        """Emit the read of ``place``; returns the name holding it."""
        if place in CONSTANTS:
            self.fields.setdefault(place.value, f"{place.name}(insn)")
            return place.value
        var = self.temp()
        reg = self.register(place)
        if reg is not None:
            self.lines.append(f"{var} = {reg}")
        elif place is Loc.STACK:
            self.lines.append(f"{var} = emu.pop()")
        elif place is Loc.EA:
            self.use("regs", "base", "disp")
            self.lines.append(f"{var} = (regs[base] + disp) & MASK64")
        elif WIDTHS[place] == 8:
            self.address()
            self.lines += [
                f"if ea - off == mem._read_at and off <= {PAGE_SIZE - 8}:",
                f"    {var} = int.from_bytes(mem._read_page[off:off + 8], 'little')",
                "else:",
                f"    {var} = mem.read_u64(ea)",
            ]
        else:
            self.address()
            self.lines += [
                f"{var} = mem._read_page[off] if ea - off == mem._read_at else mem.read_u8(ea)"
            ]
        return var

    def write(self, place: Place, value: str) -> None:
        reg = self.register(place)
        if reg is not None:
            self.lines.append(f"{reg} = {value}")
        elif place is Loc.STACK:
            self.lines.append(f"emu.push({value})")
        elif WIDTHS[place] == 8:
            self.address()
            self.lines += [
                f"if ea - off == mem._write_at and off <= {PAGE_SIZE - 8}:",
                f"    mem._write_page[off:off + 8] = {value}.to_bytes(8, 'little')",
                "else:",
                f"    mem.write_u64(ea, {value})",
            ]
        else:
            self.address()
            self.lines += [
                "if ea - off == mem._write_at:",
                f"    mem._write_page[off] = {value} & 0xFF",
                "else:",
                f"    mem.write_u8(ea, {value})",
            ]

    def trap(self, divisor: str) -> None:
        self.use("addr")
        self.lines += [
            f"if not {divisor}:",
            "    raise DivideError('division by zero at %#x' % addr)",
        ]

    def apply(self, fn: str, values: List[str]) -> str:
        return getattr(SourceDomain, fn)(*values)

    def set_flags(self, step: Step, index: int, result: str, values: List[str]) -> None:
        self.use("flags")
        zf, sf, cf, of = flag_values(SourceDomain, step.flags, result, *values)
        self.lines += [f"flags[ZF] = {zf}", f"flags[SF] = {sf}", f"flags[OF] = {of}"]
        if not step.keep_cf:
            self.lines.append(f"flags[CF] = {cf}")


def run_image(image: BinaryImage, *, step_limit: int = 2_000_000) -> tuple[int, bytes]:
    """Run an image to exit; return ``(status, stdout)``."""
    emu = Emulator(image, stop_on_attack=False, step_limit=step_limit)
    with span("emulate.run") as sp:
        status = emu.run()
        sp.add("steps", emu.steps)
        sp.add("syscall_events", len(emu.syscalls.events))
        sp.add("translations", emu.translations)
        sp.add("flushes", emu.flushes)
        sp.add("blocks", emu.blocks)
    return status, bytes(emu.syscalls.stdout)
