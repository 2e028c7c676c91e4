"""Symbolic machine state for gadget analysis.

The state models exactly what the paper's gadget records need:

* registers as 64-bit expressions over the *initial* register symbols
  (``rax0``, ``rbx0``, ...);
* the stack as an attacker-controlled array: reads at concrete offsets
  from the initial ``rsp`` become ``stk<offset>`` symbols (the payload
  words), with read-over-write for values the gadget itself stored;
* all other memory reads become fresh unconstrained ``mem<n>`` symbols
  ("wild reads" — the paper leaves these unconstrained so that they are
  free to take on whatever value the rest of the plan needs);
* memory writes are recorded as effects, so the planner can use
  write-gadgets to plant strings like ``"/bin/sh"``;
* flags as boolean expressions, remembering the producing comparison so
  that ``cmp rdx, rbx ; jne`` yields the readable precondition
  ``rdx0 == rbx0`` from Fig. 4 rather than a flag-bit formula.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..isa.registers import ALL_REGS, Reg
from .expr import (
    BV,
    BVConst,
    BVSym,
    Bool,
    CmpOp,
    FALSE,
    TRUE,
    bool_and,
    bool_not,
    bool_or,
    bv_and,
    bv_const,
    bv_eq,
    bv_or,
    bv_shl,
    bv_shr,
    bv_sym,
    cmp,
)

#: Prefix for symbols the attacker controls via the stack payload.
STACK_SYM_PREFIX = "stk"
#: Prefix for initial-register symbols.
REG_SYM_SUFFIX = "0"
#: Prefix for unconstrained wild-memory symbols.
WILD_SYM_PREFIX = "mem"
#: Prefix for unknown initial flags, modelled as BV symbols != 0.
FLAG_SYM_PREFIX = "flag_"


def reg_sym(reg: Reg) -> BVSym:
    """The symbol naming register ``reg``'s value at gadget entry."""
    return bv_sym(f"{reg}{REG_SYM_SUFFIX}")


_REG_OF_SYMBOL: Dict[str, Reg] = {reg_sym(r).name: r for r in ALL_REGS}


def reg_of_symbol(name: str) -> Optional[Reg]:
    """Inverse of :func:`reg_sym`: the register, or None for any other
    symbol (payload word, wild read, flag)."""
    return _REG_OF_SYMBOL.get(name)


def stack_sym(offset: int) -> BVSym:
    """The symbol naming the payload word at ``rsp0 + offset``."""
    suffix = f"m{-offset}" if offset < 0 else str(offset)
    return bv_sym(f"{STACK_SYM_PREFIX}{suffix}")


def stack_sym_offset(name: str) -> Optional[int]:
    """Inverse of :func:`stack_sym`: the byte offset, or None."""
    if not name.startswith(STACK_SYM_PREFIX):
        return None
    body = name[len(STACK_SYM_PREFIX) :]
    try:
        if body.startswith("m"):
            return -int(body[1:])
        return int(body)
    except ValueError:
        return None


def is_controlled_symbol(name: str) -> bool:
    """Can the attacker choose this symbol's value directly?

    Payload stack slots at non-negative offsets are controlled (they
    are the overflow bytes).  Initial registers are not, in general —
    the planner must *make* them hold values via gadgets.
    """
    offset = stack_sym_offset(name)
    return offset is not None and offset >= 0


class FlagsKind(enum.Enum):
    """What operation produced the current flags."""

    INITIAL = "initial"  # unknown at gadget entry
    SUB = "sub"  # sub/cmp: conditions phrase directly over (a, b)
    ADD = "add"
    LOGIC = "logic"  # and/or/xor/test/shift/neg: CF=OF=0


def _sign(e: BV) -> Bool:
    return cmp(CmpOp.SLT, e, bv_const(0))


def _bool_xor(a: Bool, b: Bool) -> Bool:
    return bool_or(bool_and(a, bool_not(b)), bool_and(bool_not(a), b))


@dataclass
class FlagsState:
    """Symbolic flags plus their provenance."""

    kind: FlagsKind
    zf: Bool
    sf: Bool
    cf: Bool
    of: Bool
    # Operands of the producing sub/cmp, for readable conditions.
    a: Optional[BV] = None
    b: Optional[BV] = None
    # True when ``cf`` was overwritten after construction (INC/DEC
    # preserve CF on x86): the SUB/ADD borrow no longer describes it,
    # so CF-dependent conditions must use ``cf`` itself, not a/b.
    cf_patched: bool = False

    @classmethod
    def initial(cls) -> "FlagsState":
        def flag(name: str) -> Bool:
            return cmp(CmpOp.NE, bv_sym(f"{FLAG_SYM_PREFIX}{name}"), bv_const(0))

        return cls(
            kind=FlagsKind.INITIAL,
            zf=flag("zf"),
            sf=flag("sf"),
            cf=flag("cf"),
            of=flag("of"),
        )

    @classmethod
    def from_sub(cls, a: BV, b: BV, result: BV) -> "FlagsState":
        return cls(
            kind=FlagsKind.SUB,
            zf=bv_eq(a, b),
            sf=_sign(result),
            cf=cmp(CmpOp.ULT, a, b),
            of=bool_and(_bool_xor(_sign(a), _sign(b)), _bool_xor(_sign(result), _sign(a))),
            a=a,
            b=b,
        )

    @classmethod
    def from_add(cls, a: BV, b: BV, result: BV) -> "FlagsState":
        return cls(
            kind=FlagsKind.ADD,
            zf=bv_eq(result, bv_const(0)),
            sf=_sign(result),
            cf=cmp(CmpOp.ULT, result, a),
            of=bool_and(
                bool_not(_bool_xor(_sign(a), _sign(b))), _bool_xor(_sign(result), _sign(a))
            ),
            a=a,
            b=b,
        )

    @classmethod
    def from_logic(cls, result: BV) -> "FlagsState":
        return cls(
            kind=FlagsKind.LOGIC,
            zf=bv_eq(result, bv_const(0)),
            sf=_sign(result),
            cf=FALSE,
            of=FALSE,
        )

    def condition(self, mnemonic: str) -> Bool:
        """The Bool under which the given Jcc is taken."""
        if self.kind is FlagsKind.SUB and self.a is not None:
            a, b = self.a, self.b
            direct = {
                "je": cmp(CmpOp.EQ, a, b),
                "jne": cmp(CmpOp.NE, a, b),
                "jl": cmp(CmpOp.SLT, a, b),
                "jle": cmp(CmpOp.SLE, a, b),
                "jg": cmp(CmpOp.SLT, b, a),
                "jge": cmp(CmpOp.SLE, b, a),
                "jb": cmp(CmpOp.ULT, a, b),
                "jbe": cmp(CmpOp.ULE, a, b),
                "ja": cmp(CmpOp.ULT, b, a),
                "jae": cmp(CmpOp.ULE, b, a),
            }
            if self.cf_patched and mnemonic in ("jb", "jbe", "ja", "jae"):
                pass  # borrow of a-b is stale; fall through to patched cf
            elif mnemonic in direct:
                return direct[mnemonic]
        generic = {
            "je": self.zf,
            "jne": bool_not(self.zf),
            "jl": _bool_xor(self.sf, self.of),
            "jle": bool_or(self.zf, _bool_xor(self.sf, self.of)),
            "jg": bool_and(bool_not(self.zf), bool_not(_bool_xor(self.sf, self.of))),
            "jge": bool_not(_bool_xor(self.sf, self.of)),
            "jb": self.cf,
            "jbe": bool_or(self.cf, self.zf),
            "ja": bool_and(bool_not(self.cf), bool_not(self.zf)),
            "jae": bool_not(self.cf),
            "js": self.sf,
            "jns": bool_not(self.sf),
        }
        return generic[mnemonic]


@dataclass(frozen=True)
class MemRead:
    """A wild (non-stack) memory read effect."""

    addr: BV
    value_sym: BVSym
    width: int


@dataclass(frozen=True)
class MemWrite:
    """A memory write effect (stack or wild)."""

    addr: BV
    value: BV
    width: int
    stack_offset: Optional[int] = None  # set when addr is rsp0 + const


def split_base_offset(addr: BV) -> Tuple[BV, int]:
    """Decompose ``addr`` as (base_expr, constant offset)."""
    from .expr import BVBin, BVBinOp

    if isinstance(addr, BVBin) and addr.op is BVBinOp.ADD and isinstance(addr.rhs, BVConst):
        value = addr.rhs.value
        signed = value - (1 << 64) if value >> 63 else value
        return addr.lhs, signed
    return addr, 0


class SymState:
    """One symbolic execution path's complete state."""

    def __init__(self) -> None:
        self.regs: Dict[Reg, BV] = {r: reg_sym(r) for r in ALL_REGS}
        self.flags: FlagsState = FlagsState.initial()
        self.constraints: List[Bool] = []
        self._stack_writes: Dict[int, BV] = {}
        self._stack_reads: Dict[int, BVSym] = {}
        self.mem_reads: List[MemRead] = []
        self.mem_writes: List[MemWrite] = []
        self._wild_counter = 0
        self.stack_smashed = False  # rsp escaped the rsp0 + const form
        self.max_stack_offset_read = -1  # payload length tracking

    def clone(self) -> "SymState":
        new = SymState.__new__(SymState)
        new.regs = dict(self.regs)
        new.flags = self.flags
        new.constraints = list(self.constraints)
        new._stack_writes = dict(self._stack_writes)
        new._stack_reads = dict(self._stack_reads)
        new.mem_reads = list(self.mem_reads)
        new.mem_writes = list(self.mem_writes)
        new._wild_counter = self._wild_counter
        new.stack_smashed = self.stack_smashed
        new.max_stack_offset_read = self.max_stack_offset_read
        return new

    # -- registers ------------------------------------------------------------

    def get(self, reg: Reg) -> BV:
        return self.regs[reg]

    def set(self, reg: Reg, value: BV) -> None:
        self.regs[reg] = value

    def add_constraint(self, c: Bool) -> None:
        if c != TRUE:
            self.constraints.append(c)

    # -- stack tracking -----------------------------------------------------

    def rsp_offset(self) -> Optional[int]:
        """Current rsp as a constant offset from rsp0, if it is one."""
        base, offset = split_base_offset(self.regs[Reg.RSP])
        if base == reg_sym(Reg.RSP):
            return offset
        return None

    def stack_offset_of(self, addr: BV) -> Optional[int]:
        base, offset = split_base_offset(addr)
        if base == reg_sym(Reg.RSP):
            return offset
        return None

    def _fresh_wild(self, width: int) -> BVSym:
        sym = bv_sym(f"{WILD_SYM_PREFIX}{self._wild_counter}")
        self._wild_counter += 1
        return sym

    # -- memory ----------------------------------------------------------------

    def load(self, addr: BV, width: int = 8) -> BV:
        """Read ``width`` bytes (1 or 8), zero-extended to 64 bits."""
        offset = self.stack_offset_of(addr)
        if offset is not None and offset % 8 == 0 and width == 8:
            return self._stack_read_slot(offset)
        if offset is not None and width == 1:
            slot = offset - (offset % 8)
            word = self._stack_read_slot(slot)
            return bv_and(bv_shr(word, (offset % 8) * 8), bv_const(0xFF))
        sym = self._fresh_wild(width)
        self.mem_reads.append(MemRead(addr=addr, value_sym=sym, width=width))
        if width == 1:
            return bv_and(sym, bv_const(0xFF))
        return sym

    def _stack_read_slot(self, offset: int) -> BV:
        if offset in self._stack_writes:
            return self._stack_writes[offset]
        sym = self._stack_reads.get(offset)
        if sym is None:
            sym = stack_sym(offset)
            self._stack_reads[offset] = sym
        if offset >= 0:
            self.max_stack_offset_read = max(self.max_stack_offset_read, offset)
        return sym

    def store(self, addr: BV, value: BV, width: int = 8) -> None:
        offset = self.stack_offset_of(addr)
        if offset is not None and offset % 8 == 0 and width == 8:
            self._stack_writes[offset] = value
            self.mem_writes.append(
                MemWrite(addr=addr, value=value, width=width, stack_offset=offset)
            )
            return
        if offset is not None and width == 1:
            slot = offset - (offset % 8)
            shift = (offset % 8) * 8
            old = self._stack_read_slot(slot)
            mask = bv_const(~(0xFF << shift))
            merged = bv_or(bv_and(old, mask), bv_shl(bv_and(value, bv_const(0xFF)), shift))
            self._stack_writes[slot] = merged
            self.mem_writes.append(
                MemWrite(addr=addr, value=value, width=width, stack_offset=offset)
            )
            return
        self.mem_writes.append(MemWrite(addr=addr, value=value, width=width, stack_offset=None))

    # -- stack slot views for the record builder ------------------------------

    def stack_writes(self) -> Dict[int, BV]:
        return dict(self._stack_writes)
