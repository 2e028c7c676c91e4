"""What each data instruction of the NFL machine does, stated once.

Every :class:`~repro.isa.instructions.Op` outside :data:`CONTROL_OPS`
has one row in :data:`SEMANTICS`: the :class:`Step` register transfers
it makes, in order.  A step's operation is the name of a function of a
value domain.  There are two domains with the same names:
:class:`IntDomain` (Python ints masked to 64 bits, bool flags), which
the emulator runs, and the module :mod:`repro.symex.expr` (its
expression builders), which the symbolic executor runs.  The flag rules
(:func:`flag_values`) and the Jcc predicates (:data:`JCC`) are written
once over a domain as well.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Union

from .instructions import COND_JUMPS, Instruction, Op
from .registers import MASK64, Reg, to_signed


class Loc(enum.Enum):
    """An operand a step reads, or a place it writes.  A step may also
    name a fixed :class:`Reg`."""

    DST = "dst"  # register insn.dst
    SRC = "src"  # register insn.src
    IMM = "imm"  # insn.imm as a domain constant (read only)
    COUNT = "count"  # insn.imm & 0x3F as a plain int: a shift count (read only)
    ONE = "one"  # the domain constant 1 (read only)
    MEM = "mem"  # 8 bytes at insn.base + insn.disp
    MEMB = "memb"  # 1 byte at insn.base + insn.disp, zero-extended
    EA = "ea"  # the address insn.base + insn.disp itself (read only)
    STACK = "stack"  # read: the engine's pop; write: the engine's push


class FlagRule(enum.Enum):
    """How a step sets ZF/SF/CF/OF from its result ``r`` and operands ``a, b``."""

    LOGIC = "logic"  # ZF/SF of r; CF = OF = 0
    ADD = "add"  # r = a + b
    SUB = "sub"  # r = a - b


Place = Union[Loc, Reg]


@dataclass(frozen=True)
class Step:
    """One register transfer: every operand is read before any write."""

    reads: Tuple[Place, ...]
    #: Domain function applied to the operands; ``None`` writes the
    #: operands themselves, the i-th to ``writes[i]``.
    fn: Optional[str]
    writes: Tuple[Place, ...]
    flags: Optional[FlagRule] = None
    keep_cf: bool = False  # inc/dec leave CF as it was, as on x86
    traps: bool = False  # a zero second operand (the divisor) traps


def _step(reads, fn, writes=(Loc.DST,), flags=None, **kw) -> Tuple[Step, ...]:
    return (Step(tuple(reads), fn, tuple(writes), flags, **kw),)


def _binop(fn: str, src: Loc, flags: Optional[FlagRule] = FlagRule.LOGIC, **kw):
    return _step((Loc.DST, src), fn, flags=flags, **kw)


_L, _A, _S = FlagRule.LOGIC, FlagRule.ADD, FlagRule.SUB

#: The one statement of every data instruction.
SEMANTICS: Dict[Op, Tuple[Step, ...]] = {
    Op.NOP: (),
    Op.MOV_RI: _step((Loc.IMM,), None),
    Op.MOV_RI32: _step((Loc.IMM,), None),
    Op.MOV_RR: _step((Loc.SRC,), None),
    Op.LOAD: _step((Loc.MEM,), None),
    Op.LOADB: _step((Loc.MEMB,), None),
    Op.STORE: _step((Loc.SRC,), None, (Loc.MEM,)),
    Op.STOREB: _step((Loc.SRC,), None, (Loc.MEMB,)),
    Op.LEA: _step((Loc.EA,), None),
    Op.XCHG: _step((Loc.SRC, Loc.DST), None, (Loc.DST, Loc.SRC)),
    Op.PUSH_R: _step((Loc.DST,), None, (Loc.STACK,)),
    Op.PUSH_I: _step((Loc.IMM,), None, (Loc.STACK,)),
    Op.POP_R: _step((Loc.STACK,), None),
    Op.POP1: _step((Loc.STACK,), None),
    Op.LEAVE: _step((Reg.RBP,), None, (Reg.RSP,)) + _step((Loc.STACK,), None, (Reg.RBP,)),
    Op.ADD_RR: _binop("bv_add", Loc.SRC, _A),
    Op.ADD_RI: _binop("bv_add", Loc.IMM, _A),
    Op.SUB_RR: _binop("bv_sub", Loc.SRC, _S),
    Op.SUB_RI: _binop("bv_sub", Loc.IMM, _S),
    Op.AND_RR: _binop("bv_and", Loc.SRC),
    Op.AND_RI: _binop("bv_and", Loc.IMM),
    Op.OR_RR: _binop("bv_or", Loc.SRC),
    Op.OR_RI: _binop("bv_or", Loc.IMM),
    Op.XOR_RR: _binop("bv_xor", Loc.SRC),
    Op.XOR_RI: _binop("bv_xor", Loc.IMM),
    Op.SHL_RI: _binop("bv_shl", Loc.COUNT),
    Op.SHR_RI: _binop("bv_shr", Loc.COUNT),
    Op.SAR_RI: _binop("bv_sar", Loc.COUNT),
    Op.MUL_RR: _binop("bv_mul", Loc.SRC),
    Op.NOT_R: _step((Loc.DST,), "bv_not"),
    Op.NEG_R: _step((Loc.DST,), "bv_neg", flags=_L),
    Op.INC_R: _binop("bv_add", Loc.ONE, _A, keep_cf=True),
    Op.DEC_R: _binop("bv_sub", Loc.ONE, _S, keep_cf=True),
    Op.UDIV_RR: _binop("bv_udiv", Loc.SRC, None, traps=True),
    Op.UMOD_RR: _binop("bv_umod", Loc.SRC, None, traps=True),
    Op.CMP_RR: _step((Loc.DST, Loc.SRC), "bv_sub", (), _S),
    Op.CMP_RI: _step((Loc.DST, Loc.IMM), "bv_sub", (), _S),
    Op.TEST_RR: _step((Loc.DST, Loc.SRC), "bv_and", (), _L),
    Op.TEST_RI: _step((Loc.DST, Loc.IMM), "bv_and", (), _L),
}

#: Ops each engine implements itself: control transfers, whose forking,
#: merging and attack events differ between a concrete and a symbolic run.
CONTROL_OPS = frozenset(
    {Op.RET, Op.JMP_REL, Op.JMP_R, Op.JMP_M, Op.CALL_REL, Op.CALL_R, Op.SYSCALL, Op.HLT}
) | COND_JUMPS

#: The constant operands, as a domain ``d`` reads them from ``insn``.
CONSTANTS: Dict[Loc, Callable[[Any, Instruction], Any]] = {
    Loc.IMM: lambda d, insn: d.bv_const(insn.imm),
    Loc.COUNT: lambda d, insn: insn.imm & 0x3F,
    Loc.ONE: lambda d, insn: d.bv_const(1),
}

#: Bytes moved by each memory location.
WIDTHS = {Loc.MEM: 8, Loc.MEMB: 1}


def register(place: Place, insn: Instruction) -> Optional[Reg]:
    """The register ``place`` names in ``insn``; None for other places."""
    if place is Loc.DST:
        return insn.dst
    if place is Loc.SRC:
        return insn.src
    return place if isinstance(place, Reg) else None


def flag_values(d: Any, rule: FlagRule, r: Any, a: Any, b: Any = None) -> Tuple[Any, Any, Any, Any]:
    """``(zf, sf, cf, of)`` that ``rule`` sets in domain ``d`` for result
    ``r`` of operands ``a`` and ``b``."""
    if rule is FlagRule.LOGIC:
        return d.bv_eq(r, d.bv_const(0)), d.bv_negative(r), d.FALSE, d.FALSE
    sa, sr = d.bv_negative(a), d.bv_negative(r)
    signs_differ = d.bool_xor(sa, d.bv_negative(b))
    if rule is FlagRule.ADD:
        of = d.bool_and(d.bool_not(signs_differ), d.bool_xor(sr, sa))
        return d.bv_eq(r, d.bv_const(0)), sr, d.bv_ult(r, a), of
    return d.bv_eq(a, b), sr, d.bv_ult(a, b), d.bool_and(signs_differ, d.bool_xor(sr, sa))


#: When each conditional jump is taken, as ``pred(d, zf, sf, cf, of)``:
#: signed comparisons use SF/OF/ZF, unsigned ones CF/ZF, as on x86.
JCC: Dict[Op, Callable[..., Any]] = {
    Op.JE: lambda d, zf, sf, cf, of: zf,
    Op.JNE: lambda d, zf, sf, cf, of: d.bool_not(zf),
    Op.JL: lambda d, zf, sf, cf, of: d.bool_xor(sf, of),
    Op.JLE: lambda d, zf, sf, cf, of: d.bool_or(zf, d.bool_xor(sf, of)),
    Op.JG: lambda d, zf, sf, cf, of: d.bool_and(d.bool_not(zf), d.bool_not(d.bool_xor(sf, of))),
    Op.JGE: lambda d, zf, sf, cf, of: d.bool_not(d.bool_xor(sf, of)),
    Op.JB: lambda d, zf, sf, cf, of: cf,
    Op.JBE: lambda d, zf, sf, cf, of: d.bool_or(cf, zf),
    Op.JA: lambda d, zf, sf, cf, of: d.bool_and(d.bool_not(cf), d.bool_not(zf)),
    Op.JAE: lambda d, zf, sf, cf, of: d.bool_not(cf),
    Op.JS: lambda d, zf, sf, cf, of: sf,
    Op.JNS: lambda d, zf, sf, cf, of: d.bool_not(sf),
}


class IntDomain:
    """The concrete domain.  ``bv_udiv``/``bv_umod`` take a nonzero
    divisor only: the engine traps first."""

    FALSE = False
    bv_const = staticmethod(lambda v: v & MASK64)
    bv_add = staticmethod(lambda a, b: (a + b) & MASK64)
    bv_sub = staticmethod(lambda a, b: (a - b) & MASK64)
    bv_mul = staticmethod(lambda a, b: (a * b) & MASK64)
    bv_udiv = staticmethod(operator.floordiv)
    bv_umod = staticmethod(operator.mod)
    bv_and = staticmethod(operator.and_)
    bv_or = staticmethod(operator.or_)
    bv_xor = staticmethod(operator.xor)
    bv_shl = staticmethod(lambda a, count: (a << count) & MASK64)
    bv_shr = staticmethod(operator.rshift)
    bv_sar = staticmethod(lambda a, count: (to_signed(a) >> count) & MASK64)
    bv_not = staticmethod(lambda a: a ^ MASK64)
    bv_neg = staticmethod(lambda a: -a & MASK64)
    bv_eq = staticmethod(operator.eq)
    bv_ult = staticmethod(operator.lt)
    bv_negative = staticmethod(lambda a: a >> 63 == 1)
    # On bools, & | != are and, or, xor, and stay bools.
    bool_and = staticmethod(operator.and_)
    bool_or = staticmethod(operator.or_)
    bool_not = staticmethod(operator.not_)
    bool_xor = staticmethod(operator.ne)
