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

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..isa.instructions import Op
from ..isa.registers import ALL_REGS, Reg
from ..isa.semantics import JCC, FlagRule, Step, flag_values
from . import expr
from .expr import (
    BV,
    BVConst,
    BVSym,
    Bool,
    CmpOp,
    TRUE,
    bv_and,
    bv_const,
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


#: The entry symbol of every register, built once: every state starts
#: from these objects, so an untouched register is the same object.
_ENTRY_REGS: Dict[Reg, BVSym] = {r: bv_sym(f"{r}{REG_SYM_SUFFIX}") for r in ALL_REGS}


def reg_sym(reg: Reg) -> BVSym:
    """The symbol naming register ``reg``'s value at gadget entry."""
    return _ENTRY_REGS[reg]


_REG_OF_SYMBOL: Dict[str, Reg] = {sym.name: r for r, sym in _ENTRY_REGS.items()}


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


#: The readable form of each condition after ``sub``/``cmp a, b``,
#: phrased over the operands rather than the flag bits.
_SUB_CONDITIONS = {
    Op.JE: lambda a, b: cmp(CmpOp.EQ, a, b),
    Op.JNE: lambda a, b: cmp(CmpOp.NE, a, b),
    Op.JL: lambda a, b: cmp(CmpOp.SLT, a, b),
    Op.JLE: lambda a, b: cmp(CmpOp.SLE, a, b),
    Op.JG: lambda a, b: cmp(CmpOp.SLT, b, a),
    Op.JGE: lambda a, b: cmp(CmpOp.SLE, b, a),
    Op.JB: lambda a, b: cmp(CmpOp.ULT, a, b),
    Op.JBE: lambda a, b: cmp(CmpOp.ULE, a, b),
    Op.JA: lambda a, b: cmp(CmpOp.ULT, b, a),
    Op.JAE: lambda a, b: cmp(CmpOp.ULE, b, a),
}
_CF_CONDITIONS = frozenset({Op.JB, Op.JBE, Op.JA, Op.JAE})


class FlagsState:
    """Symbolic flags plus their provenance.

    ``kind``, the operands ``a``/``b`` and ``cf_patched`` are set when
    a step sets the flags.  The flag bits ``zf``/``sf``/``cf``/``of``
    are computed by :func:`~repro.isa.semantics.flag_values` only when
    first read (by ``condition()`` or an attribute), as no gadget
    record reads them and a ``cmp``/``sub`` condition is phrased over
    the operands.
    """

    __slots__ = ("kind", "a", "b", "cf_patched", "_result", "_cf_from", "_bits")

    def __init__(
        self,
        kind: Optional[FlagRule],
        result: Optional[BV] = None,
        a: Optional[BV] = None,
        b: Optional[BV] = None,
        cf_patched: bool = False,
        cf_from: Optional["FlagsState"] = None,
        bits: Optional[Tuple[Bool, Bool, Bool, Bool]] = None,
    ) -> None:
        #: The rule that set the flags; None while they are the unknown
        #: flags at gadget entry.
        self.kind = kind
        # Operands of the producing add/sub/cmp, for readable conditions.
        self.a = a
        self.b = b
        # True when ``cf`` was kept from the previous flags (INC/DEC
        # preserve CF on x86): the SUB borrow no longer describes it, so
        # CF-dependent conditions must use ``cf`` itself, not a/b.
        self.cf_patched = cf_patched
        self._result = result
        #: The flags whose ``cf`` these keep, until the bits are computed.
        self._cf_from = cf_from
        self._bits = bits

    @classmethod
    def initial(cls) -> "FlagsState":
        def flag(name: str) -> Bool:
            return cmp(CmpOp.NE, bv_sym(f"{FLAG_SYM_PREFIX}{name}"), bv_const(0))

        return cls(None, bits=(flag("zf"), flag("sf"), flag("cf"), flag("of")))

    def after(self, step: Step, result: BV, a: BV, b: Optional[BV] = None) -> "FlagsState":
        """The flags ``step`` leaves, from its result and operands ``a``, ``b``."""
        cf_from = None
        if step.keep_cf:
            # Point at the flags that compute this CF, never at another
            # keeper still waiting, so a run of inc/dec keeps one
            # earlier state alive rather than a chain of them.
            cf_from = self._cf_from or self
        if step.flags is FlagRule.LOGIC:
            return FlagsState(step.flags, result, cf_from=cf_from)
        return FlagsState(step.flags, result, a, b, step.keep_cf, cf_from)

    def _force(self) -> Tuple[Bool, Bool, Bool, Bool]:
        zf, sf, cf, of = flag_values(expr, self.kind, self._result, self.a, self.b)
        if self._cf_from is not None:
            cf = self._cf_from.cf
        self._bits = (zf, sf, cf, of)
        self._result = self._cf_from = None
        return self._bits

    @property
    def zf(self) -> Bool:
        return (self._bits or self._force())[0]

    @property
    def sf(self) -> Bool:
        return (self._bits or self._force())[1]

    @property
    def cf(self) -> Bool:
        return (self._bits or self._force())[2]

    @property
    def of(self) -> Bool:
        return (self._bits or self._force())[3]

    def condition(self, op: Op) -> Bool:
        """The Bool under which the conditional jump ``op`` is taken."""
        if self.kind is FlagRule.SUB and not (self.cf_patched and op in _CF_CONDITIONS):
            direct = _SUB_CONDITIONS.get(op)
            if direct is not None:
                return direct(self.a, self.b)
        return JCC[op](expr, *(self._bits or self._force()))


#: The unknown flags at gadget entry, shared by every fresh state.
_ENTRY_FLAGS = FlagsState.initial()


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
        self.regs: Dict[Reg, BV] = dict(_ENTRY_REGS)
        self.flags: FlagsState = _ENTRY_FLAGS
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
