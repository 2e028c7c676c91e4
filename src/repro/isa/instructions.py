"""Instruction set of the NFL machine.

The instruction set is small but deliberately shaped like x86-64:

* variable-length encodings (1 to 10 bytes), so that decoding from an
  unaligned offset yields *different*, often valid, instructions — the
  property that makes x86 binaries gadget-rich;
* a one-byte opcode followed by a fixed operand layout per opcode;
* ``ret`` / ``jmp reg`` / ``jmp [mem]`` / conditional jumps / ``call`` —
  all five gadget-terminator families from Table I of the paper.

Each opcode carries static metadata (:class:`OpInfo`) describing its
operand layout, which drives the encoder and decoder.  What each data
opcode does is stated once in :mod:`repro.isa.semantics`, from which
both the emulator and the symbolic executor generate their handlers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from .registers import Reg


class OperandLayout(enum.Enum):
    """The operand bytes that follow a one-byte opcode."""

    NONE = "none"  # no operands
    REG_IN_OPCODE = "reg_in_opcode"  # register packed into the opcode byte
    REG = "reg"  # 1 byte: register in the low nibble
    REG_REG = "reg_reg"  # 1 byte: dst in high nibble, src in low nibble
    REG_IMM64 = "reg_imm64"  # 1 reg byte + 8-byte little-endian immediate
    REG_IMM32 = "reg_imm32"  # 1 reg byte + 4-byte sign-extended immediate
    REG_IMM8 = "reg_imm8"  # 1 reg byte + 1-byte immediate (shift counts)
    REG_MEM = "reg_mem"  # 1 byte regs (dst, base) + 4-byte signed disp
    MEM_REG = "mem_reg"  # 1 byte regs (base, src) + 4-byte signed disp
    IMM64 = "imm64"  # 8-byte immediate (push imm)
    REL32 = "rel32"  # 4-byte signed offset from the *end* of the insn
    MEM = "mem"  # 1 byte base reg + 4-byte signed disp (jmp [mem])


_LAYOUT_SIZES = {
    OperandLayout.NONE: 0,
    OperandLayout.REG_IN_OPCODE: 0,
    OperandLayout.REG: 1,
    OperandLayout.REG_REG: 1,
    OperandLayout.REG_IMM64: 9,
    OperandLayout.REG_IMM32: 5,
    OperandLayout.REG_IMM8: 2,
    OperandLayout.REG_MEM: 5,
    OperandLayout.MEM_REG: 5,
    OperandLayout.IMM64: 8,
    OperandLayout.REL32: 4,
    OperandLayout.MEM: 5,
}


class Op(enum.IntEnum):
    """Opcodes. The integer value is the encoding's opcode byte."""

    # -- no-operand group ------------------------------------------------
    NOP = 0x00
    HLT = 0x01
    SYSCALL = 0x02
    RET = 0x03
    LEAVE = 0x04  # rsp := rbp ; pop rbp

    # -- data movement ---------------------------------------------------
    MOV_RI = 0x10  # mov reg, imm64
    MOV_RR = 0x11  # mov dst, src
    LOAD = 0x12  # mov dst, [base + disp]
    STORE = 0x13  # mov [base + disp], src
    LEA = 0x14  # lea dst, [base + disp]
    XCHG = 0x15  # xchg r1, r2
    LOADB = 0x16  # movzx dst, byte [base + disp]
    STOREB = 0x17  # mov byte [base + disp], low8(src)
    MOV_RI32 = 0x18  # mov reg, imm32 (sign extended)

    # -- stack -----------------------------------------------------------
    PUSH_R = 0x20
    POP_R = 0x21  # legacy two-byte form; the assembler emits POP1
    PUSH_I = 0x22

    #: One-byte pop (register in the opcode byte, 0x70|reg), mirroring
    #: x86's 0x58+r — the encoding whose ubiquity as *data* makes
    #: ``pop <argreg>; ret`` gadgets so common in real binaries.
    POP1 = 0x70

    # -- arithmetic / logic (all update ZF/SF; add/sub also CF/OF) --------
    ADD_RR = 0x30
    ADD_RI = 0x31
    SUB_RR = 0x32
    SUB_RI = 0x33
    AND_RR = 0x34
    AND_RI = 0x35
    OR_RR = 0x36
    OR_RI = 0x37
    XOR_RR = 0x38
    XOR_RI = 0x39
    SHL_RI = 0x3A
    SHR_RI = 0x3B
    SAR_RI = 0x3C
    MUL_RR = 0x3D  # dst := dst * src (low 64 bits, unsigned)
    NOT_R = 0x3E
    NEG_R = 0x3F
    INC_R = 0x40
    DEC_R = 0x41
    UDIV_RR = 0x42  # dst := dst / src (unsigned; src==0 traps)
    UMOD_RR = 0x43  # dst := dst % src
    CMP_RR = 0x44
    CMP_RI = 0x45
    TEST_RR = 0x46
    TEST_RI = 0x47

    # -- control flow ----------------------------------------------------
    JMP_REL = 0x50  # jmp rel32 (direct, unconditional)
    JMP_R = 0x51  # jmp reg   (indirect, unconditional)
    JMP_M = 0x52  # jmp [base + disp] (indirect, unconditional)
    CALL_REL = 0x53  # call rel32 (pushes return address)
    CALL_R = 0x54  # call reg

    # -- conditional direct jumps (Jcc rel32) ------------------------------
    JE = 0x60
    JNE = 0x61
    JL = 0x62
    JLE = 0x63
    JG = 0x64
    JGE = 0x65
    JB = 0x66
    JBE = 0x67
    JA = 0x68
    JAE = 0x69
    JS = 0x6A
    JNS = 0x6B


@dataclass(frozen=True)
class OpInfo:
    """Static description of one opcode."""

    op: Op
    mnemonic: str
    layout: OperandLayout

    @property
    def size(self) -> int:
        """Total encoded size in bytes, including the opcode byte."""
        return 1 + _LAYOUT_SIZES[self.layout]


def _info(op: Op, mnemonic: str, layout: OperandLayout) -> OpInfo:
    return OpInfo(op=op, mnemonic=mnemonic, layout=layout)


OP_TABLE: dict[Op, OpInfo] = {
    Op.NOP: _info(Op.NOP, "nop", OperandLayout.NONE),
    Op.HLT: _info(Op.HLT, "hlt", OperandLayout.NONE),
    Op.SYSCALL: _info(Op.SYSCALL, "syscall", OperandLayout.NONE),
    Op.RET: _info(Op.RET, "ret", OperandLayout.NONE),
    Op.LEAVE: _info(Op.LEAVE, "leave", OperandLayout.NONE),
    Op.MOV_RI: _info(Op.MOV_RI, "mov", OperandLayout.REG_IMM64),
    Op.MOV_RR: _info(Op.MOV_RR, "mov", OperandLayout.REG_REG),
    Op.LOAD: _info(Op.LOAD, "mov", OperandLayout.REG_MEM),
    Op.STORE: _info(Op.STORE, "mov", OperandLayout.MEM_REG),
    Op.LEA: _info(Op.LEA, "lea", OperandLayout.REG_MEM),
    Op.XCHG: _info(Op.XCHG, "xchg", OperandLayout.REG_REG),
    Op.LOADB: _info(Op.LOADB, "movzxb", OperandLayout.REG_MEM),
    Op.STOREB: _info(Op.STOREB, "movb", OperandLayout.MEM_REG),
    Op.MOV_RI32: _info(Op.MOV_RI32, "mov", OperandLayout.REG_IMM32),
    Op.PUSH_R: _info(Op.PUSH_R, "push", OperandLayout.REG),
    Op.POP_R: _info(Op.POP_R, "pop", OperandLayout.REG),
    Op.POP1: _info(Op.POP1, "pop", OperandLayout.REG_IN_OPCODE),
    Op.PUSH_I: _info(Op.PUSH_I, "push", OperandLayout.IMM64),
    Op.ADD_RR: _info(Op.ADD_RR, "add", OperandLayout.REG_REG),
    Op.ADD_RI: _info(Op.ADD_RI, "add", OperandLayout.REG_IMM32),
    Op.SUB_RR: _info(Op.SUB_RR, "sub", OperandLayout.REG_REG),
    Op.SUB_RI: _info(Op.SUB_RI, "sub", OperandLayout.REG_IMM32),
    Op.AND_RR: _info(Op.AND_RR, "and", OperandLayout.REG_REG),
    Op.AND_RI: _info(Op.AND_RI, "and", OperandLayout.REG_IMM32),
    Op.OR_RR: _info(Op.OR_RR, "or", OperandLayout.REG_REG),
    Op.OR_RI: _info(Op.OR_RI, "or", OperandLayout.REG_IMM32),
    Op.XOR_RR: _info(Op.XOR_RR, "xor", OperandLayout.REG_REG),
    Op.XOR_RI: _info(Op.XOR_RI, "xor", OperandLayout.REG_IMM32),
    Op.SHL_RI: _info(Op.SHL_RI, "shl", OperandLayout.REG_IMM8),
    Op.SHR_RI: _info(Op.SHR_RI, "shr", OperandLayout.REG_IMM8),
    Op.SAR_RI: _info(Op.SAR_RI, "sar", OperandLayout.REG_IMM8),
    Op.MUL_RR: _info(Op.MUL_RR, "mul", OperandLayout.REG_REG),
    Op.NOT_R: _info(Op.NOT_R, "not", OperandLayout.REG),
    Op.NEG_R: _info(Op.NEG_R, "neg", OperandLayout.REG),
    Op.INC_R: _info(Op.INC_R, "inc", OperandLayout.REG),
    Op.DEC_R: _info(Op.DEC_R, "dec", OperandLayout.REG),
    Op.UDIV_RR: _info(Op.UDIV_RR, "udiv", OperandLayout.REG_REG),
    Op.UMOD_RR: _info(Op.UMOD_RR, "umod", OperandLayout.REG_REG),
    Op.CMP_RR: _info(Op.CMP_RR, "cmp", OperandLayout.REG_REG),
    Op.CMP_RI: _info(Op.CMP_RI, "cmp", OperandLayout.REG_IMM32),
    Op.TEST_RR: _info(Op.TEST_RR, "test", OperandLayout.REG_REG),
    Op.TEST_RI: _info(Op.TEST_RI, "test", OperandLayout.REG_IMM32),
    Op.JMP_REL: _info(Op.JMP_REL, "jmp", OperandLayout.REL32),
    Op.JMP_R: _info(Op.JMP_R, "jmp", OperandLayout.REG),
    Op.JMP_M: _info(Op.JMP_M, "jmp", OperandLayout.MEM),
    Op.CALL_REL: _info(Op.CALL_REL, "call", OperandLayout.REL32),
    Op.CALL_R: _info(Op.CALL_R, "call", OperandLayout.REG),
    Op.JE: _info(Op.JE, "je", OperandLayout.REL32),
    Op.JNE: _info(Op.JNE, "jne", OperandLayout.REL32),
    Op.JL: _info(Op.JL, "jl", OperandLayout.REL32),
    Op.JLE: _info(Op.JLE, "jle", OperandLayout.REL32),
    Op.JG: _info(Op.JG, "jg", OperandLayout.REL32),
    Op.JGE: _info(Op.JGE, "jge", OperandLayout.REL32),
    Op.JB: _info(Op.JB, "jb", OperandLayout.REL32),
    Op.JBE: _info(Op.JBE, "jbe", OperandLayout.REL32),
    Op.JA: _info(Op.JA, "ja", OperandLayout.REL32),
    Op.JAE: _info(Op.JAE, "jae", OperandLayout.REL32),
    Op.JS: _info(Op.JS, "js", OperandLayout.REL32),
    Op.JNS: _info(Op.JNS, "jns", OperandLayout.REL32),
}

#: Encoded size of each opcode, read by :attr:`Instruction.size`.
_OP_SIZES: dict[Op, int] = {op: info.size for op, info in OP_TABLE.items()}

#: Conditional direct jumps.
COND_JUMPS = frozenset(
    {Op.JE, Op.JNE, Op.JL, Op.JLE, Op.JG, Op.JGE, Op.JB, Op.JBE, Op.JA, Op.JAE, Op.JS, Op.JNS}
)

#: Instructions that unconditionally transfer control.
UNCOND_JUMPS = frozenset({Op.JMP_REL, Op.JMP_R, Op.JMP_M, Op.RET})

#: Instructions that end a basic block.
BLOCK_TERMINATORS = COND_JUMPS | UNCOND_JUMPS | {Op.CALL_REL, Op.CALL_R, Op.HLT, Op.SYSCALL}

#: Indirect control transfers (target comes from a register or memory).
INDIRECT_JUMPS = frozenset({Op.JMP_R, Op.JMP_M, Op.CALL_R, Op.RET})


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction.

    Fields not used by the opcode's layout are ``None``.  ``addr`` is the
    address the instruction was decoded from (or will be assembled to) and
    ``size`` its encoded length in bytes; both are filled by the
    encoder/decoder.
    """

    op: Op
    dst: Optional[Reg] = None
    src: Optional[Reg] = None
    base: Optional[Reg] = None
    disp: int = 0
    imm: Optional[int] = None
    rel: Optional[int] = None
    addr: int = 0

    @property
    def info(self) -> OpInfo:
        return OP_TABLE[self.op]

    @property
    def size(self) -> int:
        return _OP_SIZES[self.op]

    @property
    def end(self) -> int:
        """Address of the byte just past this instruction."""
        return self.addr + self.size

    @property
    def target(self) -> Optional[int]:
        """Absolute target of a direct jump/call, if applicable."""
        if self.rel is None:
            return None
        return self.end + self.rel

    def is_cond_jump(self) -> bool:
        return self.op in COND_JUMPS

    def is_terminator(self) -> bool:
        return self.op in BLOCK_TERMINATORS

    def is_indirect(self) -> bool:
        return self.op in INDIRECT_JUMPS

    def __str__(self) -> str:
        return format_instruction(self)


def format_instruction(insn: Instruction) -> str:
    """Render an instruction in a compact AT&T-free Intel-ish syntax."""
    info = insn.info
    m = info.mnemonic
    layout = info.layout
    if layout is OperandLayout.NONE:
        return m
    if layout in (OperandLayout.REG, OperandLayout.REG_IN_OPCODE):
        return f"{m} {insn.dst}"
    if layout is OperandLayout.REG_REG:
        return f"{m} {insn.dst}, {insn.src}"
    if layout in (OperandLayout.REG_IMM64, OperandLayout.REG_IMM32):
        return f"{m} {insn.dst}, {insn.imm:#x}"
    if layout is OperandLayout.REG_IMM8:
        return f"{m} {insn.dst}, {insn.imm}"
    if layout is OperandLayout.REG_MEM:
        return f"{m} {insn.dst}, [{insn.base}{insn.disp:+#x}]"
    if layout is OperandLayout.MEM_REG:
        return f"{m} [{insn.base}{insn.disp:+#x}], {insn.src}"
    if layout is OperandLayout.IMM64:
        return f"{m} {insn.imm:#x}"
    if layout is OperandLayout.REL32:
        return f"{m} {insn.target:#x}"
    if layout is OperandLayout.MEM:
        return f"{m} [{insn.base}{insn.disp:+#x}]"
    raise AssertionError(f"unhandled layout {layout}")  # pragma: no cover


def opcode_operands(insn: Instruction) -> Tuple:
    """A tuple identifying the instruction up to its address (for tests)."""
    return (insn.op, insn.dst, insn.src, insn.base, insn.disp, insn.imm, insn.rel)
