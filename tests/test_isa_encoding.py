"""Unit and property tests for instruction encode/decode round-trips."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import (
    DecodeError,
    Instruction,
    Op,
    OperandLayout,
    OP_TABLE,
    Reg,
    decode,
    decode_all,
    decode_window,
    encode,
    encode_program,
)
from repro.isa.encoding import BYTE_TABLE

REGS = list(Reg)


def _sample_instruction(op: Op, dst=Reg.RAX, src=Reg.RBX, base=Reg.RBP, disp=-8, imm=5, rel=16):
    layout = OP_TABLE[op].layout
    kwargs = {}
    if layout in (OperandLayout.REG, OperandLayout.REG_IN_OPCODE):
        kwargs["dst"] = dst
    elif layout is OperandLayout.REG_REG:
        kwargs.update(dst=dst, src=src)
    elif layout is OperandLayout.REG_IMM64:
        kwargs.update(dst=dst, imm=imm)
    elif layout is OperandLayout.REG_IMM32:
        kwargs.update(dst=dst, imm=imm)
    elif layout is OperandLayout.REG_IMM8:
        kwargs.update(dst=dst, imm=imm & 0xFF)
    elif layout is OperandLayout.REG_MEM:
        kwargs.update(dst=dst, base=base, disp=disp)
    elif layout is OperandLayout.MEM_REG:
        kwargs.update(base=base, src=src, disp=disp)
    elif layout is OperandLayout.IMM64:
        kwargs["imm"] = imm
    elif layout is OperandLayout.REL32:
        kwargs["rel"] = rel
    elif layout is OperandLayout.MEM:
        kwargs.update(base=base, disp=disp)
    return Instruction(op=op, **kwargs)


@pytest.mark.parametrize("op", list(Op))
def test_roundtrip_every_opcode(op):
    insn = _sample_instruction(op)
    data = encode(insn)
    assert len(data) == OP_TABLE[op].size
    back = decode(data)
    assert back.op == insn.op
    assert back.dst == insn.dst
    assert back.src == insn.src
    assert back.base == insn.base
    assert back.disp == insn.disp
    assert back.imm == insn.imm
    assert back.rel == insn.rel


def test_decode_rejects_invalid_opcode():
    # 0x0f is unassigned (0xff aliases to the one-byte pop family).
    with pytest.raises(DecodeError):
        decode(b"\x0f\x00\x00")


def test_alias_bytes_decode_as_pop():
    """High-bit aliases: 0xff decodes as `pop r15`, like x86's dense
    one-byte encodings — the root of unaligned gadget richness."""
    insn = decode(b"\xff")
    assert insn.op == Op.POP1 and insn.dst == Reg.R15 and insn.size == 1
    insn = decode(b"\x77")
    assert insn.op == Op.POP1 and insn.dst == Reg.RDI


def test_decode_rejects_truncated():
    insn = Instruction(op=Op.MOV_RI, dst=Reg.RAX, imm=1)
    data = encode(insn)
    with pytest.raises(DecodeError):
        decode(data[:-1])


def test_decode_rejects_offset_beyond_end():
    with pytest.raises(DecodeError):
        decode(b"\x00", 5)


def test_decode_rejects_bad_reg_nibble():
    # REG layout requires a zero high nibble.
    bad = bytes([int(Op.POP_R), 0x53])
    with pytest.raises(DecodeError):
        decode(bad)


@pytest.mark.parametrize("first", range(256))
def test_decode_agrees_with_the_byte_table(first):
    """``decode`` raises exactly where :data:`BYTE_TABLE` says a byte
    string is invalid, decodes the table's size, and raises on the same
    bytes cut short by one."""
    shape = BYTE_TABLE[first]
    for operand in (0x00, 0x0F, 0x10, 0xF0, 0xFF):
        data = bytes([first, operand]) + bytes(range(1, 9))
        invalid = shape is None or (shape.zero_high_nibble and operand & 0xF0)
        if invalid:
            with pytest.raises(DecodeError):
                decode(data)
            continue
        insn = decode(data)
        assert insn.op is shape.op and insn.size == shape.size
        with pytest.raises(DecodeError):
            decode(data[: shape.size - 1])


def test_decode_error_names_the_address():
    with pytest.raises(DecodeError, match="at 0x400001"):
        decode(b"\x00\x0f", 1, addr=0x400001)
    with pytest.raises(DecodeError, match="at 0x1"):
        decode(b"\x00\x0f", 1)


def test_imm32_range_check():
    insn = Instruction(op=Op.ADD_RI, dst=Reg.RAX, imm=1 << 40)
    with pytest.raises(ValueError):
        encode(insn)


def test_rel32_target_computation():
    insn = decode(encode(Instruction(op=Op.JMP_REL, rel=0x10, addr=0x400000)), addr=0x400000)
    assert insn.target == 0x400000 + insn.size + 0x10


def test_negative_disp_roundtrip():
    insn = Instruction(op=Op.LOAD, dst=Reg.RAX, base=Reg.RBP, disp=-0x20)
    assert decode(encode(insn)).disp == -0x20


def test_imm64_roundtrip_large():
    value = 0xDEADBEEFCAFEBABE
    insn = Instruction(op=Op.MOV_RI, dst=Reg.R15, imm=value)
    assert decode(encode(insn)).imm == value


def test_decode_all_stream():
    insns = [
        Instruction(op=Op.PUSH_R, dst=Reg.RBP),
        Instruction(op=Op.MOV_RR, dst=Reg.RBP, src=Reg.RSP),
        Instruction(op=Op.RET),
    ]
    stream = encode_program(insns)
    out = decode_all(stream, base_addr=0x400000)
    assert [i.op for i in out] == [Op.PUSH_R, Op.MOV_RR, Op.RET]
    assert out[0].addr == 0x400000
    assert out[1].addr == 0x400000 + 2
    assert out[2].addr == 0x400000 + 4


def test_decode_window_stops_at_bad_bytes():
    stream = encode(Instruction(op=Op.RET)) + b"\xee\xee"
    insns = list(decode_window(stream, 0))
    assert len(insns) == 1
    assert insns[0].op == Op.RET


def test_unaligned_decode_inside_imm64_yields_other_instructions():
    # An imm64 crafted to contain a `pop rdi; ret` when decoded at +2.
    hidden = encode(Instruction(op=Op.POP_R, dst=Reg.RDI)) + encode(Instruction(op=Op.RET))
    imm = int.from_bytes(hidden + b"\x00" * (8 - len(hidden)), "little")
    outer = encode(Instruction(op=Op.MOV_RI, dst=Reg.RAX, imm=imm))
    inner = list(decode_window(outer, 2))
    assert inner[0].op == Op.POP_R and inner[0].dst == Reg.RDI
    assert inner[1].op == Op.RET


@given(
    op=st.sampled_from(list(Op)),
    dst=st.sampled_from(REGS),
    src=st.sampled_from(REGS),
    base=st.sampled_from(REGS),
    disp=st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
    imm=st.integers(min_value=0, max_value=(1 << 64) - 1),
    rel=st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
)
def test_property_roundtrip(op, dst, src, base, disp, imm, rel):
    layout = OP_TABLE[op].layout
    if layout is OperandLayout.REG_IMM32:
        imm = imm % (1 << 31)  # keep in range
    if layout is OperandLayout.REG_IMM8:
        imm &= 0xFF
    insn = _sample_instruction(op, dst=dst, src=src, base=base, disp=disp, imm=imm, rel=rel)
    assert decode(encode(insn)).op == op


@given(data=st.binary(min_size=0, max_size=64))
def test_property_decoder_never_crashes(data):
    """Arbitrary bytes either decode or raise DecodeError — never crash."""
    try:
        insn = decode(data)
        assert 1 <= insn.size <= 10
    except DecodeError:
        pass


@given(data=st.binary(min_size=1, max_size=128), offset=st.integers(0, 127))
def test_property_decode_window_terminates(data, offset):
    insns = list(decode_window(data, offset % max(len(data), 1)))
    assert len(insns) <= 64
