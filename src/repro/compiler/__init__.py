"""The MC compiler: lowering, code generation, linking."""

from typing import Optional, Sequence

from ..lang import parse
from .codegen import CodegenError, FunctionCodegen, fn_label, generate_module_asm
from .ir import (
    AddrOfGlobal,
    AddrOfLocal,
    BinOp,
    Block,
    Branch,
    CallInstr,
    CmpSet,
    Const,
    Copy,
    IRFunction,
    IRInstr,
    IRModule,
    Jump,
    Load,
    Ret,
    Store,
    Temp,
    Terminator,
    UnOp,
    Value,
    negate_cmp,
)
from .lowering import BUILTINS, LoweringError, lower_program
from .link import LinkedProgram, layout_data, link_module


def compile_source(source: str, passes: Optional[Sequence] = None) -> LinkedProgram:
    """Compile MC source text to a linked executable.

    ``passes`` is an optional sequence of obfuscation passes (objects
    with ``run(module) -> module``, see :mod:`repro.obfuscation`)
    applied to the IR between lowering and code generation — the same
    pipeline position Obfuscator-LLVM uses.
    """
    module = lower_program(parse(source))
    for obf_pass in passes or ():
        module = obf_pass.run(module)
    return link_module(module)


__all__ = [
    "AddrOfGlobal",
    "AddrOfLocal",
    "BUILTINS",
    "BinOp",
    "Block",
    "Branch",
    "CallInstr",
    "CmpSet",
    "CodegenError",
    "Const",
    "Copy",
    "FunctionCodegen",
    "IRFunction",
    "IRInstr",
    "IRModule",
    "Jump",
    "LinkedProgram",
    "Load",
    "LoweringError",
    "Ret",
    "Store",
    "Temp",
    "Terminator",
    "UnOp",
    "Value",
    "compile_source",
    "fn_label",
    "generate_module_asm",
    "layout_data",
    "link_module",
    "lower_program",
    "negate_cmp",
]
