"""Tests for the syntactic equation inverter and Jcc inversion."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.isa.instructions import COND_JUMPS, Op
from repro.isa.semantics import JCC, FlagRule, IntDomain, flag_values
from repro.symex.expr import (
    MASK64,
    bv_add,
    bv_const,
    bv_mul,
    bv_neg,
    bv_not,
    bv_shl,
    bv_sub,
    bv_sym,
    bv_xor,
    eval_bv,
)
from repro.symex.invert import JCC_INVERSE, invert_jcc, solve_for

X = bv_sym("x")
U64 = st.integers(min_value=0, max_value=MASK64)
S64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)


def _all_flag_states():
    """All 16 assignments of (ZF, SF, CF, OF)."""
    return itertools.product((False, True), repeat=4)


def _taken(op, flags):
    """The semantics table's Jcc predicate on concrete (ZF, SF, CF, OF)."""
    return JCC[op](IntDomain, *flags)


def check_inversion(expr, target):
    result = solve_for(expr, target)
    assert result is not None
    name, value = result
    assert name == "x"
    assert eval_bv(expr, {"x": value}) == target & MASK64
    return value


def test_identity():
    assert check_inversion(X, 42) == 42


def test_add_const():
    check_inversion(bv_add(X, bv_const(5)), 42)


def test_sub_const_both_sides():
    check_inversion(bv_sub(X, bv_const(5)), 10)
    check_inversion(bv_sub(bv_const(100), X), 10)


def test_xor_chain():
    expr = bv_xor(bv_add(X, bv_const(7)), bv_const(0xFF))
    check_inversion(expr, 0x1234)


def test_not_neg():
    check_inversion(bv_not(X), 99)
    check_inversion(bv_neg(X), 99)


def test_mul_odd():
    check_inversion(bv_mul(X, bv_const(33)), 66)
    check_inversion(bv_mul(X, bv_const(33)), 67)  # still solvable mod 2^64


def test_mul_even_rejected():
    assert solve_for(bv_mul(X, bv_const(2)), 3) is None  # odd target via *2


def test_shl_aligned_ok_unaligned_rejected():
    check_inversion(bv_shl(X, 4), 0x160)
    assert solve_for(bv_shl(X, 4), 0x161) is None


def test_constant_expression_rejected():
    assert solve_for(bv_const(5), 5) is None


def test_two_variable_rejected():
    assert solve_for(bv_add(X, bv_sym("y")), 1) is None


@given(a=U64, b=U64, t=U64)
def test_property_affine_inversion(a, b, t):
    expr = bv_add(bv_mul(X, bv_const(a | 1)), bv_const(b))
    check_inversion(expr, t)


@given(consts=st.lists(U64, min_size=1, max_size=6), t=U64)
def test_property_random_invertible_chains(consts, t):
    expr = X
    for i, c in enumerate(consts):
        kind = i % 4
        if kind == 0:
            expr = bv_add(expr, bv_const(c))
        elif kind == 1:
            expr = bv_xor(expr, bv_const(c))
        elif kind == 2:
            expr = bv_not(expr)
        else:
            expr = bv_sub(bv_const(c), expr)
    check_inversion(expr, t)


# -- conditional-jump inversion -------------------------------------------


def test_invert_jcc_covers_every_conditional_jump():
    assert set(JCC_INVERSE) == set(COND_JUMPS) == set(JCC)


@pytest.mark.parametrize("op", sorted(COND_JUMPS, key=lambda o: o.value))
def test_invert_jcc_round_trip(op):
    inverse = invert_jcc(op)
    assert inverse in COND_JUMPS
    assert inverse is not op
    assert invert_jcc(inverse) is op


@pytest.mark.parametrize("op", sorted(COND_JUMPS, key=lambda o: o.value))
def test_invert_jcc_predicate_complement(op):
    """For every flag assignment, exactly one of op / invert(op) fires."""
    for flags in _all_flag_states():
        assert _taken(op, flags) != _taken(invert_jcc(op), flags)


def test_invert_jcc_rejects_non_conditionals():
    for op in (Op.RET, Op.JMP_REL, Op.JMP_R, Op.CALL_R, Op.SYSCALL):
        with pytest.raises(ValueError):
            invert_jcc(op)


@given(a=S64, b=S64)
def test_invert_jcc_complement_on_cmp_flags(a, b):
    """Complementarity on *reachable* flag states too: flags as a real
    ``cmp a, b`` would set them, over signed and unsigned orderings."""
    a64, b64 = a & MASK64, b & MASK64
    flags = flag_values(IntDomain, FlagRule.SUB, IntDomain.bv_sub(a64, b64), a64, b64)
    for op in COND_JUMPS:
        assert _taken(op, flags) != _taken(invert_jcc(op), flags)
    # Sanity: the CMP-derived predicates mean what their names say.
    assert _taken(Op.JE, flags) == ((a & MASK64) == (b & MASK64))
    assert _taken(Op.JL, flags) == (a < b)
    assert _taken(Op.JB, flags) == ((a & MASK64) < (b & MASK64))
    assert _taken(Op.JLE, flags) == (a <= b)
    assert _taken(Op.JBE, flags) == ((a & MASK64) <= (b & MASK64))
    assert _taken(Op.JS, flags) == (((a - b) & MASK64) >> 63 == 1)
