"""Tseitin bit-blasting of bit-vector expressions to CNF.

Each 64-bit expression becomes a vector of 64 "bits" (LSB first), where
a bit is either a Python ``bool`` (a known constant — kept out of the
CNF entirely) or a SAT literal.  Expression nodes are cached
structurally, so shared subtrees are encoded once.

Encoding, not search, is what a large query costs (a 64-bit divider is
~175k clauses and most of a second of Python), so a blaster built with
``max_clauses`` counts clauses as it emits them and raises
:class:`BlastError` the moment the count passes the budget.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..symex.expr import (
    BV,
    BVBin,
    BVBinOp,
    BVConst,
    BVIte,
    BVSym,
    BVUn,
    BVUnOp,
    Bool,
    BoolConn,
    BoolConst,
    BoolExpr,
    Cmp,
    CmpOp,
)
from .sat import SATSolver

WIDTH = 64

Bit = Union[bool, int]  # constant or SAT literal


class BlastError(ValueError):
    """An expression form the blaster cannot encode, or an encoding
    that would pass the clause budget."""


class BitBlaster:
    """Encodes expressions into a :class:`SATSolver` instance."""

    def __init__(self, solver: SATSolver, *, max_clauses: Optional[int] = None):
        self.solver = solver
        self.max_clauses = max_clauses
        self.clauses = 0  # clauses emitted so far
        self._bv_cache: Dict[BV, List[Bit]] = {}
        self._bool_cache: Dict[Bool, Bit] = {}
        self._sym_bits: Dict[str, List[int]] = {}

    # -- gate primitives ----------------------------------------------------

    def _new_lit(self) -> int:
        return self.solver.new_var()

    def _clause(self, *lits: int) -> None:
        self.clauses += 1
        if self.max_clauses is not None and self.clauses > self.max_clauses:
            raise BlastError(f"encoding passes the {self.max_clauses}-clause budget")
        self.solver.add_clause(lits)

    def _gate_and(self, a: Bit, b: Bit) -> Bit:
        if a is False or b is False:
            return False
        if a is True:
            return b
        if b is True:
            return a
        if a == b:
            return a
        out = self._new_lit()
        self._clause(-out, a)
        self._clause(-out, b)
        self._clause(out, -a, -b)
        return out

    def _gate_or(self, a: Bit, b: Bit) -> Bit:
        return self._neg(self._gate_and(self._neg(a), self._neg(b)))

    def _gate_xor(self, a: Bit, b: Bit) -> Bit:
        if a is False:
            return b
        if b is False:
            return a
        if a is True:
            return self._neg(b)
        if b is True:
            return self._neg(a)
        if a == b:
            return False
        out = self._new_lit()
        self._clause(-out, a, b)
        self._clause(-out, -a, -b)
        self._clause(out, -a, b)
        self._clause(out, a, -b)
        return out

    @staticmethod
    def _neg(a: Bit) -> Bit:
        if isinstance(a, bool):
            return not a
        return -a

    def _gate_mux(self, sel: Bit, then: Bit, other: Bit) -> Bit:
        """out = sel ? then : other."""
        if sel is True:
            return then
        if sel is False:
            return other
        # Compare types too: literal 1 == True in Python.
        if then == other and isinstance(then, bool) == isinstance(other, bool):
            return then
        return self._gate_or(self._gate_and(sel, then), self._gate_and(self._neg(sel), other))

    def _full_adder(self, a: Bit, b: Bit, c: Bit) -> tuple[Bit, Bit]:
        s = self._gate_xor(self._gate_xor(a, b), c)
        carry = self._gate_or(self._gate_and(a, b), self._gate_and(c, self._gate_xor(a, b)))
        return s, carry

    # -- vector operations ----------------------------------------------------

    def _add_vec(self, a: List[Bit], b: List[Bit], carry_in: Bit = False) -> List[Bit]:
        out: List[Bit] = []
        carry = carry_in
        for bit_a, bit_b in zip(a, b):
            s, carry = self._full_adder(bit_a, bit_b, carry)
            out.append(s)
        return out

    def _neg_vec(self, a: List[Bit]) -> List[Bit]:
        inverted = [self._neg(x) for x in a]
        return self._add_vec(inverted, self._const_vec(1))

    def _sub_vec(self, a: List[Bit], b: List[Bit]) -> List[Bit]:
        inverted = [self._neg(x) for x in b]
        return self._add_vec(a, inverted, carry_in=True)

    def _mul_vec(self, a: List[Bit], b: List[Bit]) -> List[Bit]:
        acc = self._const_vec(0)
        for i, bit in enumerate(b):
            if bit is False:
                continue
            partial = [False] * i + [self._gate_and(x, bit) for x in a[: WIDTH - i]]
            acc = self._add_vec(acc, partial)
        return acc

    @staticmethod
    def _const_vec(value: int) -> List[Bit]:
        return [bool((value >> i) & 1) for i in range(WIDTH)]

    def _ult_vec(self, a: List[Bit], b: List[Bit]) -> Bit:
        """Unsigned a < b via borrow chain from LSB."""
        lt: Bit = False
        for bit_a, bit_b in zip(a, b):
            same = self._neg(self._gate_xor(bit_a, bit_b))
            this_lt = self._gate_and(self._neg(bit_a), bit_b)
            lt = self._gate_or(this_lt, self._gate_and(same, lt))
        return lt

    def _eq_vec(self, a: List[Bit], b: List[Bit]) -> Bit:
        acc: Bit = True
        for bit_a, bit_b in zip(a, b):
            acc = self._gate_and(acc, self._neg(self._gate_xor(bit_a, bit_b)))
        return acc

    def _slt_vec(self, a: List[Bit], b: List[Bit]) -> Bit:
        sign_a, sign_b = a[-1], b[-1]
        diff_sign = self._gate_xor(sign_a, sign_b)
        ult = self._ult_vec(a, b)
        # If signs differ, a<b iff a is negative; else unsigned compare.
        return self._gate_mux(diff_sign, sign_a, ult)

    # -- expression encoding ----------------------------------------------------

    def sym_bits(self, name: str) -> List[int]:
        """SAT literals for a named 64-bit symbol (allocated on demand)."""
        bits = self._sym_bits.get(name)
        if bits is None:
            bits = [self._new_lit() for _ in range(WIDTH)]
            self._sym_bits[name] = bits
        return bits

    def blast_bv(self, expr: BV) -> List[Bit]:
        cached = self._bv_cache.get(expr)
        if cached is not None:
            return cached
        bits = self._blast_bv_inner(expr)
        self._bv_cache[expr] = bits
        return bits

    def _blast_bv_inner(self, expr: BV) -> List[Bit]:
        if isinstance(expr, BVConst):
            return self._const_vec(expr.value)
        if isinstance(expr, BVSym):
            return list(self.sym_bits(expr.name))
        if isinstance(expr, BVUn):
            arg = self.blast_bv(expr.arg)
            if expr.op is BVUnOp.NOT:
                return [self._neg(x) for x in arg]
            return self._neg_vec(arg)
        if isinstance(expr, BVIte):
            sel = self.blast_bool(expr.cond)
            then = self.blast_bv(expr.then)
            other = self.blast_bv(expr.other)
            return [self._gate_mux(sel, t, o) for t, o in zip(then, other)]
        if isinstance(expr, BVBin):
            return self._blast_bin(expr)
        raise BlastError(f"cannot blast {expr!r}")

    def _blast_bin(self, expr: BVBin) -> List[Bit]:
        op = expr.op
        a = self.blast_bv(expr.lhs)
        if op in (BVBinOp.SHL, BVBinOp.SHR, BVBinOp.SAR):
            if not isinstance(expr.rhs, BVConst):
                raise BlastError("shift amount must be constant")
            amount = expr.rhs.value & 0x3F
            if op is BVBinOp.SHL:
                return [False] * amount + a[: WIDTH - amount]
            if op is BVBinOp.SHR:
                return a[amount:] + [False] * amount
            sign = a[-1]
            return a[amount:] + [sign] * amount
        b = self.blast_bv(expr.rhs)
        if op is BVBinOp.ADD:
            return self._add_vec(a, b)
        if op is BVBinOp.SUB:
            return self._sub_vec(a, b)
        if op is BVBinOp.AND:
            return [self._gate_and(x, y) for x, y in zip(a, b)]
        if op is BVBinOp.OR:
            return [self._gate_or(x, y) for x, y in zip(a, b)]
        if op is BVBinOp.XOR:
            return [self._gate_xor(x, y) for x, y in zip(a, b)]
        if op is BVBinOp.MUL:
            return self._mul_vec(a, b)
        if op in (BVBinOp.UDIV, BVBinOp.UMOD):
            return self._blast_divmod(a, b, want_div=op is BVBinOp.UDIV)
        raise BlastError(f"cannot blast binop {op}")  # pragma: no cover

    def _blast_divmod(self, a: List[Bit], b: List[Bit], want_div: bool) -> List[Bit]:
        """Encode unsigned division via restoring long division.

        Processing from the MSB down keeps every intermediate remainder
        < divisor, so 64-bit arithmetic suffices (no 128-bit product).
        Semantics match the emulator-adjacent folding rules:
        ``x / 0 == 0`` and ``x % 0 == x``.
        """
        quotient: List[Bit] = [False] * WIDTH
        remainder: List[Bit] = self._const_vec(0)
        for i in reversed(range(WIDTH)):
            # remainder = (remainder << 1) | a[i]
            remainder = [a[i]] + remainder[: WIDTH - 1]
            # if remainder >= b: remainder -= b ; quotient[i] = 1
            geq = self._neg(self._ult_vec(remainder, b))
            sub = self._sub_vec(remainder, b)
            remainder = [self._gate_mux(geq, s, r) for s, r in zip(sub, remainder)]
            quotient[i] = geq
        b_is_zero = self._eq_vec(b, self._const_vec(0))
        if want_div:
            return [self._gate_mux(b_is_zero, False, q) for q in quotient]
        return [self._gate_mux(b_is_zero, x, r) for x, r in zip(a, remainder)]

    def blast_bool(self, expr: Bool) -> Bit:
        cached = self._bool_cache.get(expr)
        if cached is not None:
            return cached
        bit = self._blast_bool_inner(expr)
        self._bool_cache[expr] = bit
        return bit

    def _blast_bool_inner(self, expr: Bool) -> Bit:
        if isinstance(expr, BoolConst):
            return expr.value
        if isinstance(expr, Cmp):
            a = self.blast_bv(expr.lhs)
            b = self.blast_bv(expr.rhs)
            if expr.op is CmpOp.EQ:
                return self._eq_vec(a, b)
            if expr.op is CmpOp.NE:
                return self._neg(self._eq_vec(a, b))
            if expr.op is CmpOp.ULT:
                return self._ult_vec(a, b)
            if expr.op is CmpOp.ULE:
                return self._neg(self._ult_vec(b, a))
            if expr.op is CmpOp.SLT:
                return self._slt_vec(a, b)
            if expr.op is CmpOp.SLE:
                return self._neg(self._slt_vec(b, a))
            raise BlastError(f"cannot blast cmp {expr.op}")  # pragma: no cover
        if isinstance(expr, BoolExpr):
            if expr.conn is BoolConn.NOT:
                return self._neg(self.blast_bool(expr.args[0]))
            bits = [self.blast_bool(a) for a in expr.args]
            acc: Bit = expr.conn is BoolConn.AND
            for bit in bits:
                if expr.conn is BoolConn.AND:
                    acc = self._gate_and(acc, bit)
                else:
                    acc = self._gate_or(acc, bit)
            return acc
        raise BlastError(f"cannot blast {expr!r}")

    # -- top-level assertion and model extraction -------------------------------

    def assert_bool(self, expr: Bool) -> None:
        """Assert that ``expr`` holds."""
        bit = self.blast_bool(expr)
        if bit is True:
            return
        if bit is False:
            # Directly unsatisfiable: add the empty clause.
            self._clause()
            return
        self._clause(bit)

    def extract_value(self, name: str, model: Dict[int, bool]) -> int:
        """Recover a symbol's 64-bit value from a SAT model."""
        bits = self._sym_bits.get(name)
        if bits is None:
            return 0  # unconstrained symbol: any value works
        value = 0
        for i, lit in enumerate(bits):
            if model.get(lit, False):
                value |= 1 << i
        return value
