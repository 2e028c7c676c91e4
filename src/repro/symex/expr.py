"""Bit-vector and boolean expression language for symbolic execution.

This is the claripy stand-in.  Expressions are immutable trees over
64-bit bit-vectors with aggressive constant folding and light algebraic
simplification applied by the smart constructors (``bv_add`` and
friends).  Everything downstream — gadget pre/post-conditions,
subsumption queries, plan constraints — is phrased in this language and
discharged either syntactically, by random evaluation, or by the
bit-blasting solver in :mod:`repro.solver`.

Design notes:

* All bit-vectors are 64 bits wide.  Sub-word operations (byte loads)
  are expressed with masks, which keeps the bit-blaster simple.
* Shift amounts are constants (the ISA only has immediate shifts), so
  no barrel shifter is needed.
* Booleans are a separate sort (comparisons and connectives), as in
  SMT-LIB's QF_BV.
* This module is the symbolic value domain of :mod:`repro.isa.semantics`:
  the symbolic executor's handlers, generated from each instruction's
  row, call these builders.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, Tuple, Union

MASK64 = (1 << 64) - 1


def _signed(v: int) -> int:
    v &= MASK64
    return v - (1 << 64) if v >> 63 else v


# ---------------------------------------------------------------------------
# Sorts
# ---------------------------------------------------------------------------


class BVBinOp(enum.Enum):
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    UDIV = "udiv"
    UMOD = "umod"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"  # rhs always a constant
    SHR = "shr"
    SAR = "sar"


class BVUnOp(enum.Enum):
    NOT = "not"
    NEG = "neg"


class CmpOp(enum.Enum):
    EQ = "=="
    NE = "!="
    ULT = "u<"
    ULE = "u<="
    SLT = "s<"
    SLE = "s<="


class BoolConn(enum.Enum):
    AND = "and"
    OR = "or"
    NOT = "not"


@dataclass(frozen=True)
class BV:
    """Base class for bit-vector expressions."""

    def __add__(self, other: "BVLike") -> "BV":
        return bv_add(self, to_bv(other))

    def __sub__(self, other: "BVLike") -> "BV":
        return bv_sub(self, to_bv(other))

    def __xor__(self, other: "BVLike") -> "BV":
        return bv_xor(self, to_bv(other))

    def __and__(self, other: "BVLike") -> "BV":
        return bv_and(self, to_bv(other))

    def __or__(self, other: "BVLike") -> "BV":
        return bv_or(self, to_bv(other))


@dataclass(frozen=True)
class BVConst(BV):
    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value & MASK64)

    def __str__(self) -> str:
        return f"{self.value:#x}" if self.value > 9 else str(self.value)


@dataclass(frozen=True)
class BVSym(BV):
    """A free 64-bit variable (an initial register, a stack slot, ...)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BVBin(BV):
    op: BVBinOp
    lhs: BV
    rhs: BV

    def __str__(self) -> str:
        return f"({self.lhs} {self.op.value} {self.rhs})"


@dataclass(frozen=True)
class BVUn(BV):
    op: BVUnOp
    arg: BV

    def __str__(self) -> str:
        return f"({self.op.value} {self.arg})"


@dataclass(frozen=True)
class BVIte(BV):
    cond: "Bool"
    then: BV
    other: BV

    def __str__(self) -> str:
        return f"ite({self.cond}, {self.then}, {self.other})"


@dataclass(frozen=True)
class Bool:
    """Base class for boolean expressions."""

    def __invert__(self) -> "Bool":
        return bool_not(self)


@dataclass(frozen=True)
class BoolConst(Bool):
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class Cmp(Bool):
    op: CmpOp
    lhs: BV
    rhs: BV

    def __str__(self) -> str:
        return f"({self.lhs} {self.op.value} {self.rhs})"


@dataclass(frozen=True)
class BoolExpr(Bool):
    conn: BoolConn
    args: Tuple[Bool, ...]

    def __str__(self) -> str:
        if self.conn is BoolConn.NOT:
            return f"(not {self.args[0]})"
        joiner = f" {self.conn.value} "
        return "(" + joiner.join(str(a) for a in self.args) + ")"


TRUE = BoolConst(True)
FALSE = BoolConst(False)

BVLike = Union[BV, int]


def to_bv(value: BVLike) -> BV:
    if isinstance(value, BV):
        return value
    return BVConst(value)


def bv_const(value: int) -> BVConst:
    return BVConst(value)


def bv_sym(name: str) -> BVSym:
    return BVSym(name)


# ---------------------------------------------------------------------------
# Smart constructors with folding
# ---------------------------------------------------------------------------

_ZERO = BVConst(0)
_ONES = BVConst(MASK64)


def _const_fold(op: BVBinOp, a: int, b: int) -> int:
    if op is BVBinOp.ADD:
        return a + b
    if op is BVBinOp.SUB:
        return a - b
    if op is BVBinOp.MUL:
        return a * b
    if op is BVBinOp.UDIV:
        return a // b if b else 0
    if op is BVBinOp.UMOD:
        return a % b if b else a
    if op is BVBinOp.AND:
        return a & b
    if op is BVBinOp.OR:
        return a | b
    if op is BVBinOp.XOR:
        return a ^ b
    if op is BVBinOp.SHL:
        return a << (b & 0x3F)
    if op is BVBinOp.SHR:
        return (a & MASK64) >> (b & 0x3F)
    if op is BVBinOp.SAR:
        return _signed(a) >> (b & 0x3F)
    raise AssertionError(op)  # pragma: no cover


def bv_add(a: BV, b: BV) -> BV:
    if isinstance(a, BVConst) and isinstance(b, BVConst):
        return BVConst(a.value + b.value)
    if isinstance(a, BVConst) and a.value == 0:
        return b
    if isinstance(b, BVConst) and b.value == 0:
        return a
    # (x + c1) + c2 → x + (c1+c2): keeps stack-pointer arithmetic flat.
    if isinstance(b, BVConst) and isinstance(a, BVBin) and a.op is BVBinOp.ADD and isinstance(a.rhs, BVConst):
        return bv_add(a.lhs, BVConst(a.rhs.value + b.value))
    if isinstance(b, BVConst) and isinstance(a, BVBin) and a.op is BVBinOp.SUB and isinstance(a.rhs, BVConst):
        return bv_add(a.lhs, BVConst(b.value - a.rhs.value))
    if isinstance(a, BVConst):
        return bv_add(b, a)  # canonical: constant on the right
    return BVBin(BVBinOp.ADD, a, b)


def bv_sub(a: BV, b: BV) -> BV:
    if isinstance(b, BVConst):
        return bv_add(a, BVConst(-b.value))
    if isinstance(a, BVConst) and isinstance(b, BVConst):
        return BVConst(a.value - b.value)
    if a == b:
        return _ZERO
    return BVBin(BVBinOp.SUB, a, b)


def bv_mul(a: BV, b: BV) -> BV:
    if isinstance(a, BVConst) and isinstance(b, BVConst):
        return BVConst(a.value * b.value)
    for x, y in ((a, b), (b, a)):
        if isinstance(x, BVConst):
            if x.value == 0:
                return _ZERO
            if x.value == 1:
                return y
    return BVBin(BVBinOp.MUL, a, b)


def bv_udiv(a: BV, b: BV) -> BV:
    if isinstance(a, BVConst) and isinstance(b, BVConst) and b.value:
        return BVConst(a.value // b.value)
    if isinstance(b, BVConst) and b.value == 1:
        return a
    # Power-of-two divisor → logical shift; keeps opaque-predicate
    # constraints out of the expensive division encoding.
    if isinstance(b, BVConst) and b.value and b.value & (b.value - 1) == 0:
        return bv_shr(a, b.value.bit_length() - 1)
    return BVBin(BVBinOp.UDIV, a, b)


def bv_umod(a: BV, b: BV) -> BV:
    if isinstance(a, BVConst) and isinstance(b, BVConst) and b.value:
        return BVConst(a.value % b.value)
    if isinstance(b, BVConst) and b.value and b.value & (b.value - 1) == 0:
        return bv_and(a, BVConst(b.value - 1))
    return BVBin(BVBinOp.UMOD, a, b)


def bv_and(a: BV, b: BV) -> BV:
    if isinstance(a, BVConst) and isinstance(b, BVConst):
        return BVConst(a.value & b.value)
    for x, y in ((a, b), (b, a)):
        if isinstance(x, BVConst):
            if x.value == 0:
                return _ZERO
            if x.value == MASK64:
                return y
    if a == b:
        return a
    return BVBin(BVBinOp.AND, a, b)


def bv_or(a: BV, b: BV) -> BV:
    if isinstance(a, BVConst) and isinstance(b, BVConst):
        return BVConst(a.value | b.value)
    for x, y in ((a, b), (b, a)):
        if isinstance(x, BVConst):
            if x.value == 0:
                return y
            if x.value == MASK64:
                return _ONES
    if a == b:
        return a
    return BVBin(BVBinOp.OR, a, b)


def bv_xor(a: BV, b: BV) -> BV:
    if isinstance(a, BVConst) and isinstance(b, BVConst):
        return BVConst(a.value ^ b.value)
    for x, y in ((a, b), (b, a)):
        if isinstance(x, BVConst) and x.value == 0:
            return y
    if a == b:
        return _ZERO
    return BVBin(BVBinOp.XOR, a, b)


def bv_shl(a: BV, amount: int) -> BV:
    amount &= 0x3F
    if amount == 0:
        return a
    if isinstance(a, BVConst):
        return BVConst(a.value << amount)
    return BVBin(BVBinOp.SHL, a, BVConst(amount))


def bv_shr(a: BV, amount: int) -> BV:
    amount &= 0x3F
    if amount == 0:
        return a
    if isinstance(a, BVConst):
        return BVConst(a.value >> amount)
    return BVBin(BVBinOp.SHR, a, BVConst(amount))


def bv_sar(a: BV, amount: int) -> BV:
    amount &= 0x3F
    if amount == 0:
        return a
    if isinstance(a, BVConst):
        return BVConst(_signed(a.value) >> amount)
    return BVBin(BVBinOp.SAR, a, BVConst(amount))


def bv_not(a: BV) -> BV:
    if isinstance(a, BVConst):
        return BVConst(~a.value)
    if isinstance(a, BVUn) and a.op is BVUnOp.NOT:
        return a.arg
    return BVUn(BVUnOp.NOT, a)


def bv_neg(a: BV) -> BV:
    if isinstance(a, BVConst):
        return BVConst(-a.value)
    if isinstance(a, BVUn) and a.op is BVUnOp.NEG:
        return a.arg
    return BVUn(BVUnOp.NEG, a)


def bv_ite(cond: Bool, then: BV, other: BV) -> BV:
    if isinstance(cond, BoolConst):
        return then if cond.value else other
    if then == other:
        return then
    return BVIte(cond, then, other)


# ---------------------------------------------------------------------------
# Boolean constructors
# ---------------------------------------------------------------------------


def _cmp_fold(op: CmpOp, a: int, b: int) -> bool:
    if op is CmpOp.EQ:
        return a == b
    if op is CmpOp.NE:
        return a != b
    if op is CmpOp.ULT:
        return a < b
    if op is CmpOp.ULE:
        return a <= b
    if op is CmpOp.SLT:
        return _signed(a) < _signed(b)
    if op is CmpOp.SLE:
        return _signed(a) <= _signed(b)
    raise AssertionError(op)  # pragma: no cover


def cmp(op: CmpOp, a: BVLike, b: BVLike) -> Bool:
    a, b = to_bv(a), to_bv(b)
    if isinstance(a, BVConst) and isinstance(b, BVConst):
        return BoolConst(_cmp_fold(op, a.value, b.value))
    if a == b:
        if op in (CmpOp.EQ, CmpOp.ULE, CmpOp.SLE):
            return TRUE
        if op in (CmpOp.NE, CmpOp.ULT, CmpOp.SLT):
            return FALSE
    return Cmp(op, a, b)


def bv_eq(a: BVLike, b: BVLike) -> Bool:
    return cmp(CmpOp.EQ, a, b)


def bv_ne(a: BVLike, b: BVLike) -> Bool:
    return cmp(CmpOp.NE, a, b)


def bv_ult(a: BVLike, b: BVLike) -> Bool:
    return cmp(CmpOp.ULT, a, b)


def bv_negative(a: BVLike) -> Bool:
    """The sign bit of ``a``, as ``a <s 0``."""
    return cmp(CmpOp.SLT, a, bv_const(0))


def bool_and(*args: Bool) -> Bool:
    flat = []
    for arg in args:
        if isinstance(arg, BoolConst):
            if not arg.value:
                return FALSE
            continue
        if isinstance(arg, BoolExpr) and arg.conn is BoolConn.AND:
            flat.extend(arg.args)
        else:
            flat.append(arg)
    unique = tuple(dict.fromkeys(flat))
    if not unique:
        return TRUE
    if len(unique) == 1:
        return unique[0]
    return BoolExpr(BoolConn.AND, unique)


def bool_or(*args: Bool) -> Bool:
    flat = []
    for arg in args:
        if isinstance(arg, BoolConst):
            if arg.value:
                return TRUE
            continue
        if isinstance(arg, BoolExpr) and arg.conn is BoolConn.OR:
            flat.extend(arg.args)
        else:
            flat.append(arg)
    unique = tuple(dict.fromkeys(flat))
    if not unique:
        return FALSE
    if len(unique) == 1:
        return unique[0]
    return BoolExpr(BoolConn.OR, unique)


def bool_not(arg: Bool) -> Bool:
    if isinstance(arg, BoolConst):
        return BoolConst(not arg.value)
    if isinstance(arg, BoolExpr) and arg.conn is BoolConn.NOT:
        return arg.args[0]
    _NEGATED = {
        CmpOp.EQ: CmpOp.NE,
        CmpOp.NE: CmpOp.EQ,
        CmpOp.ULT: None,
        CmpOp.ULE: None,
        CmpOp.SLT: None,
        CmpOp.SLE: None,
    }
    if isinstance(arg, Cmp):
        if arg.op is CmpOp.EQ:
            return Cmp(CmpOp.NE, arg.lhs, arg.rhs)
        if arg.op is CmpOp.NE:
            return Cmp(CmpOp.EQ, arg.lhs, arg.rhs)
        if arg.op is CmpOp.ULT:
            return Cmp(CmpOp.ULE, arg.rhs, arg.lhs)
        if arg.op is CmpOp.ULE:
            return Cmp(CmpOp.ULT, arg.rhs, arg.lhs)
        if arg.op is CmpOp.SLT:
            return Cmp(CmpOp.SLE, arg.rhs, arg.lhs)
        if arg.op is CmpOp.SLE:
            return Cmp(CmpOp.SLT, arg.rhs, arg.lhs)
    return BoolExpr(BoolConn.NOT, (arg,))


def bool_xor(a: Bool, b: Bool) -> Bool:
    return bool_or(bool_and(a, bool_not(b)), bool_and(bool_not(a), b))


AnyExpr = Union[BV, Bool]


# ---------------------------------------------------------------------------
# Traversal, substitution, evaluation
# ---------------------------------------------------------------------------


def iter_subexprs(expr: AnyExpr) -> Iterator[AnyExpr]:
    """Pre-order traversal over an expression tree."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, BVBin):
            stack += [node.lhs, node.rhs]
        elif isinstance(node, BVUn):
            stack.append(node.arg)
        elif isinstance(node, BVIte):
            stack += [node.cond, node.then, node.other]
        elif isinstance(node, Cmp):
            stack += [node.lhs, node.rhs]
        elif isinstance(node, BoolExpr):
            stack.extend(node.args)


def free_symbols(expr: AnyExpr) -> FrozenSet[str]:
    """The names of all free bit-vector variables in ``expr``."""
    return frozenset(n.name for n in iter_subexprs(expr) if isinstance(n, BVSym))


def expr_size(expr: AnyExpr) -> int:
    """Node count; used by the planner's "fewer constraints" heuristic."""
    return sum(1 for _ in iter_subexprs(expr))


def substitute(expr: AnyExpr, bindings: Dict[str, BV]) -> AnyExpr:
    """Replace free variables by expressions; re-runs the smart constructors."""
    if isinstance(expr, BVSym):
        return bindings.get(expr.name, expr)
    if isinstance(expr, (BVConst, BoolConst)):
        return expr
    if isinstance(expr, BVBin):
        lhs = substitute(expr.lhs, bindings)
        rhs = substitute(expr.rhs, bindings)
        return _REBUILD_BIN[expr.op](lhs, rhs)
    if isinstance(expr, BVUn):
        arg = substitute(expr.arg, bindings)
        return bv_not(arg) if expr.op is BVUnOp.NOT else bv_neg(arg)
    if isinstance(expr, BVIte):
        return bv_ite(
            substitute(expr.cond, bindings),
            substitute(expr.then, bindings),
            substitute(expr.other, bindings),
        )
    if isinstance(expr, Cmp):
        return cmp(expr.op, substitute(expr.lhs, bindings), substitute(expr.rhs, bindings))
    if isinstance(expr, BoolExpr):
        args = tuple(substitute(a, bindings) for a in expr.args)
        if expr.conn is BoolConn.AND:
            return bool_and(*args)
        if expr.conn is BoolConn.OR:
            return bool_or(*args)
        return bool_not(args[0])
    raise TypeError(f"not an expression: {expr!r}")


_REBUILD_BIN = {
    BVBinOp.ADD: bv_add,
    BVBinOp.SUB: bv_sub,
    BVBinOp.MUL: bv_mul,
    BVBinOp.UDIV: bv_udiv,
    BVBinOp.UMOD: bv_umod,
    BVBinOp.AND: bv_and,
    BVBinOp.OR: bv_or,
    BVBinOp.XOR: bv_xor,
    BVBinOp.SHL: lambda a, b: bv_shl(a, b.value) if isinstance(b, BVConst) else BVBin(BVBinOp.SHL, a, b),
    BVBinOp.SHR: lambda a, b: bv_shr(a, b.value) if isinstance(b, BVConst) else BVBin(BVBinOp.SHR, a, b),
    BVBinOp.SAR: lambda a, b: bv_sar(a, b.value) if isinstance(b, BVConst) else BVBin(BVBinOp.SAR, a, b),
}


class EvalError(KeyError):
    """A free variable had no value in the environment."""


def eval_bv(expr: BV, env: Dict[str, int]) -> int:
    """Concretely evaluate a bit-vector expression under ``env``."""
    if isinstance(expr, BVConst):
        return expr.value
    if isinstance(expr, BVSym):
        try:
            return env[expr.name] & MASK64
        except KeyError:
            raise EvalError(expr.name) from None
    if isinstance(expr, BVBin):
        return _const_fold(expr.op, eval_bv(expr.lhs, env), eval_bv(expr.rhs, env)) & MASK64
    if isinstance(expr, BVUn):
        arg = eval_bv(expr.arg, env)
        return (~arg if expr.op is BVUnOp.NOT else -arg) & MASK64
    if isinstance(expr, BVIte):
        return eval_bv(expr.then, env) if eval_bool(expr.cond, env) else eval_bv(expr.other, env)
    raise TypeError(f"not a bit-vector expression: {expr!r}")


def eval_bool(expr: Bool, env: Dict[str, int]) -> bool:
    """Concretely evaluate a boolean expression under ``env``."""
    if isinstance(expr, BoolConst):
        return expr.value
    if isinstance(expr, Cmp):
        return _cmp_fold(expr.op, eval_bv(expr.lhs, env), eval_bv(expr.rhs, env))
    if isinstance(expr, BoolExpr):
        if expr.conn is BoolConn.AND:
            return all(eval_bool(a, env) for a in expr.args)
        if expr.conn is BoolConn.OR:
            return any(eval_bool(a, env) for a in expr.args)
        return not eval_bool(expr.args[0], env)
    raise TypeError(f"not a boolean expression: {expr!r}")
