"""Binary encoder/decoder for NFL instructions.

Encodings are little-endian and variable-length (1 to 10 bytes).  The
decoder is total over the subset of byte strings that form valid
encodings and raises :class:`DecodeError` otherwise — exactly the
behaviour gadget extraction relies on when it probes *unaligned*
offsets inside instruction streams.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, NamedTuple, Optional, Tuple

from .instructions import COND_JUMPS, Instruction, Op, OperandLayout, OP_TABLE
from .registers import Reg


class DecodeError(ValueError):
    """Raised when bytes at an offset do not form a valid instruction."""


#: Control kinds of :data:`BYTE_TABLE` entries, as the decode graph's
#: walk rules read them: ``TRANSFER`` ends a gadget (an indirect
#: transfer or ``syscall``), ``DIRECT`` is a rel32 ``jmp``/``call`` and
#: ``COND`` a rel32 Jcc; the two rel32 kinds are numbered last.
PLAIN, TRANSFER, HALT, DIRECT, COND = range(5)

_KINDS = {
    **dict.fromkeys((Op.RET, Op.JMP_R, Op.JMP_M, Op.CALL_R, Op.SYSCALL), TRANSFER),
    Op.HLT: HALT,
    Op.JMP_REL: DIRECT,
    Op.CALL_REL: DIRECT,
    **dict.fromkeys(COND_JUMPS, COND),
}

#: Layouts whose operand byte holds one register, in its low nibble.
_ZERO_HIGH_NIBBLE = frozenset(
    {
        OperandLayout.REG,
        OperandLayout.REG_IMM64,
        OperandLayout.REG_IMM32,
        OperandLayout.REG_IMM8,
        OperandLayout.MEM,
    }
)

_OPCODES = {int(op) for op in Op}


class Shape(NamedTuple):
    """What an encoding's first byte fixes."""

    op: Op
    size: int
    zero_high_nibble: bool  # the operand byte's high nibble must be 0
    kind: int  # PLAIN, TRANSFER, HALT, DIRECT or COND
    layout: OperandLayout


def _shape(byte: int) -> Optional[Shape]:
    # Alias encodings: the high bit of the opcode byte is ignored, as
    # with x86's many redundant encodings.  The assembler always emits
    # the canonical (low) form; the alias form only ever arises when
    # decoding data bytes — which is precisely what makes unaligned
    # gadget scanning productive on x86, and, with this rule, here too.
    canonical = byte & 0x7F
    if canonical >= Op.POP1:
        op = Op.POP1  # one-byte pop: register packed into the opcode byte
    elif canonical in _OPCODES:
        op = Op(canonical)
    else:
        return None
    layout = OP_TABLE[op].layout
    return Shape(op, OP_TABLE[op].size, layout in _ZERO_HIGH_NIBBLE, _KINDS.get(op, PLAIN), layout)


#: The shape of every first byte, None where no encoding starts with
#: it: the one statement of which byte strings decode.
BYTE_TABLE: Tuple[Optional[Shape], ...] = tuple(_shape(byte) for byte in range(256))

# ``decode`` reads registers by index and layouts from module globals:
# an enum member read through its class costs a descriptor call.
_REGS = tuple(Reg)
_REG_IN_OPCODE = OperandLayout.REG_IN_OPCODE
_REG = OperandLayout.REG
_REG_REG = OperandLayout.REG_REG
_REG_IMM64 = OperandLayout.REG_IMM64
_REG_IMM32 = OperandLayout.REG_IMM32
_REG_IMM8 = OperandLayout.REG_IMM8
_REG_MEM = OperandLayout.REG_MEM
_MEM_REG = OperandLayout.MEM_REG
_IMM64 = OperandLayout.IMM64
_REL32 = OperandLayout.REL32
_MEM = OperandLayout.MEM


def _pack_u64(value: int) -> bytes:
    return struct.pack("<Q", value & ((1 << 64) - 1))


def _pack_i32(value: int) -> bytes:
    return struct.pack("<i", value)


def _reg_byte(hi: Reg | None, lo: Reg | None) -> int:
    h = int(hi) if hi is not None else 0
    low = int(lo) if lo is not None else 0
    return ((h & 0xF) << 4) | (low & 0xF)


def encode(insn: Instruction) -> bytes:
    """Encode a single instruction to bytes.

    Raises :class:`ValueError` when an operand does not fit its field
    (e.g. a 32-bit immediate out of range).
    """
    info = OP_TABLE[insn.op]
    layout = info.layout
    if layout is OperandLayout.REG_IN_OPCODE:
        return bytes([int(insn.op) | int(insn.dst)])
    out = bytearray([int(insn.op)])
    if layout is OperandLayout.NONE:
        pass
    elif layout is OperandLayout.REG:
        out.append(_reg_byte(None, insn.dst))
    elif layout is OperandLayout.REG_REG:
        out.append(_reg_byte(insn.dst, insn.src))
    elif layout is OperandLayout.REG_IMM64:
        out.append(_reg_byte(None, insn.dst))
        out += _pack_u64(insn.imm or 0)
    elif layout is OperandLayout.REG_IMM32:
        out.append(_reg_byte(None, insn.dst))
        imm = insn.imm or 0
        if not -(1 << 31) <= imm < (1 << 31):
            raise ValueError(f"imm32 out of range: {imm:#x} in {insn}")
        out += _pack_i32(imm)
    elif layout is OperandLayout.REG_IMM8:
        out.append(_reg_byte(None, insn.dst))
        imm = insn.imm or 0
        if not 0 <= imm < 256:
            raise ValueError(f"imm8 out of range: {imm}")
        out.append(imm)
    elif layout is OperandLayout.REG_MEM:
        out.append(_reg_byte(insn.dst, insn.base))
        out += _pack_i32(insn.disp)
    elif layout is OperandLayout.MEM_REG:
        out.append(_reg_byte(insn.base, insn.src))
        out += _pack_i32(insn.disp)
    elif layout is OperandLayout.IMM64:
        out += _pack_u64(insn.imm or 0)
    elif layout is OperandLayout.REL32:
        rel = insn.rel or 0
        if not -(1 << 31) <= rel < (1 << 31):
            raise ValueError(f"rel32 out of range: {rel:#x}")
        out += _pack_i32(rel)
    elif layout is OperandLayout.MEM:
        out.append(_reg_byte(None, insn.base))
        out += _pack_i32(insn.disp)
    else:  # pragma: no cover - exhaustive
        raise AssertionError(f"unhandled layout {layout}")
    assert len(out) == info.size, (insn, len(out), info.size)
    return bytes(out)


def decode(data: bytes, offset: int = 0, addr: int | None = None) -> Instruction:
    """Decode one instruction from ``data`` at ``offset``.

    ``addr`` is the virtual address recorded on the instruction and
    named in any :class:`DecodeError`; it defaults to ``offset`` (useful
    when ``data`` is a whole text section loaded at address zero).
    Validity is read from :data:`BYTE_TABLE`: an encoding is invalid
    exactly when its first byte has no shape, it runs past the data, or
    its operand byte breaks the zero-high-nibble rule.
    """
    if addr is None:
        addr = offset
    if offset >= len(data):
        raise DecodeError(f"offset {addr:#x} beyond end of data")
    byte = data[offset]
    shape = BYTE_TABLE[byte]
    if shape is None:
        raise DecodeError(f"invalid opcode byte {byte:#04x} at {addr:#x}")
    op, size, zero_high_nibble, _, layout = shape
    if offset + size > len(data):
        raise DecodeError(f"truncated {OP_TABLE[op].mnemonic} at {addr:#x}")
    if size == 1:
        if layout is _REG_IN_OPCODE:
            return Instruction(op=op, dst=_REGS[byte & 0xF], addr=addr)
        return Instruction(op=op, addr=addr)
    regs = data[offset + 1]
    if zero_high_nibble and regs & 0xF0:
        where = "MEM base" if layout is _MEM else "REG operand"
        raise DecodeError(f"nonzero high nibble in {where} at {addr:#x}")
    hi = _REGS[regs >> 4]
    lo = _REGS[regs & 0xF]
    if layout is _REG_REG:
        return Instruction(op=op, dst=hi, src=lo, addr=addr)
    if layout is _REG:
        return Instruction(op=op, dst=lo, addr=addr)
    if layout is _REL32:
        rel = int.from_bytes(data[offset + 1 : offset + 5], "little", signed=True)
        return Instruction(op=op, rel=rel, addr=addr)
    if layout is _IMM64:
        imm = int.from_bytes(data[offset + 1 : offset + 9], "little")
        return Instruction(op=op, imm=imm, addr=addr)
    if layout is _REG_IMM8:
        return Instruction(op=op, dst=lo, imm=data[offset + 2], addr=addr)
    if layout is _REG_IMM64:
        imm = int.from_bytes(data[offset + 2 : offset + 10], "little")
        return Instruction(op=op, dst=lo, imm=imm, addr=addr)
    word = int.from_bytes(data[offset + 2 : offset + 6], "little", signed=True)
    if layout is _REG_IMM32:
        return Instruction(op=op, dst=lo, imm=word, addr=addr)
    if layout is _REG_MEM:
        return Instruction(op=op, dst=hi, base=lo, disp=word, addr=addr)
    if layout is _MEM_REG:
        return Instruction(op=op, base=hi, src=lo, disp=word, addr=addr)
    if layout is _MEM:
        return Instruction(op=op, base=lo, disp=word, addr=addr)
    raise AssertionError(f"unhandled layout {layout}")  # pragma: no cover - exhaustive


def encode_program(insns: List[Instruction]) -> bytes:
    """Encode a list of instructions back-to-back."""
    return b"".join(encode(i) for i in insns)


def decode_all(data: bytes, base_addr: int = 0) -> List[Instruction]:
    """Decode an entire byte string as a contiguous instruction stream."""
    out: List[Instruction] = []
    offset = 0
    while offset < len(data):
        insn = decode(data, offset, addr=base_addr + offset)
        out.append(insn)
        offset += insn.size
    return out


def decode_window(data: bytes, offset: int, base_addr: int = 0, max_insns: int = 64) -> Iterator[Instruction]:
    """Decode instructions starting at ``offset`` until decoding fails.

    Used by gadget extraction: probing arbitrary (possibly unaligned)
    offsets and yielding as many instructions as validly decode.
    """
    count = 0
    while offset < len(data) and count < max_insns:
        try:
            insn = decode(data, offset, addr=base_addr + offset)
        except DecodeError:
            return
        yield insn
        offset += insn.size
        count += 1
