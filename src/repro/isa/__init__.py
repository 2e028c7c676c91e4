"""The NFL machine: registers, instructions, encoding, and (dis)assembly."""

from .registers import (
    ALL_REGS,
    ARG_REGS,
    Flag,
    MASK64,
    Reg,
    reg_by_name,
    to_signed,
)
from .instructions import (
    BLOCK_TERMINATORS,
    COND_JUMPS,
    INDIRECT_JUMPS,
    Instruction,
    Op,
    OperandLayout,
    OP_TABLE,
    UNCOND_JUMPS,
)
from .encoding import DecodeError, decode, decode_all, decode_window, encode, encode_program
from .assembler import AssembledUnit, AssemblyError, assemble, assemble_unit
from .disassembler import disassemble, disassemble_lines, format_listing

__all__ = [
    "ALL_REGS",
    "ARG_REGS",
    "AssembledUnit",
    "AssemblyError",
    "BLOCK_TERMINATORS",
    "COND_JUMPS",
    "DecodeError",
    "Flag",
    "INDIRECT_JUMPS",
    "Instruction",
    "MASK64",
    "Op",
    "OperandLayout",
    "OP_TABLE",
    "Reg",
    "UNCOND_JUMPS",
    "assemble",
    "assemble_unit",
    "decode",
    "decode_all",
    "decode_window",
    "disassemble",
    "disassemble_lines",
    "encode",
    "encode_program",
    "format_listing",
    "reg_by_name",
    "to_signed",
]
