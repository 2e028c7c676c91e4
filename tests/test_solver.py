"""Tests for the BV solver frontend: fast paths, bit-blasting, models."""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.obs import Tracer, metrics, reset_metrics, tracing
from repro.solver import Solver, Status
from repro.solver import solver as solver_module
from repro.symex.expr import (
    MASK64,
    CmpOp,
    bool_and,
    bool_not,
    bool_or,
    bv_add,
    bv_and,
    bv_const,
    bv_eq,
    bv_ite,
    bv_mul,
    bv_ne,
    bv_not,
    bv_shl,
    bv_sub,
    bv_sym,
    bv_udiv,
    bv_umod,
    bv_xor,
    cmp,
    eval_bool,
)

S = Solver()
X = bv_sym("x")
Y = bv_sym("y")
Z = bv_sym("z")


def test_trivial_sat():
    assert S.check([]).is_sat


def test_binding_fast_path():
    result = S.check([bv_eq(X, bv_const(59)), bv_eq(Y, bv_const(0))])
    assert result.is_sat
    assert result.model["x"] == 59
    assert result.model["y"] == 0


def test_conflicting_bindings_unsat():
    assert S.check([bv_eq(X, bv_const(1)), bv_eq(X, bv_const(2))]).is_unsat


def test_propagation_through_expressions():
    # x == 5 and x + y == 9 → y == 4
    result = S.check([bv_eq(X, bv_const(5)), bv_eq(bv_add(X, Y), bv_const(9))])
    assert result.is_sat
    assert (result.model["x"] + result.model["y"]) & MASK64 == 9


def test_sat_needs_bitblasting():
    # x ^ y == 0xff and x & y == 0 → e.g. x=0xff, y=0
    result = S.check([bv_eq(bv_xor(X, Y), bv_const(0xFF)), bv_eq(bv_and(X, Y), bv_const(0))])
    assert result.is_sat
    m = result.model
    assert m["x"] ^ m["y"] == 0xFF
    assert m["x"] & m["y"] == 0


def test_unsat_arithmetic():
    # x + 1 == x is unsatisfiable in BV arithmetic
    assert S.check([bv_eq(bv_add(X, bv_const(1)), X)]).is_unsat


def test_overflow_wraps_makes_sat():
    # x + 1 == 0 has the solution x == 2^64-1
    result = S.check([bv_eq(bv_add(X, bv_const(1)), bv_const(0))])
    assert result.is_sat
    assert result.model["x"] == MASK64


def test_unsigned_vs_signed_bounds():
    big = bv_const(1 << 63)
    result = S.check([cmp(CmpOp.SLT, X, bv_const(0)), cmp(CmpOp.ULT, X, bv_add(big, bv_const(1)))])
    assert result.is_sat
    assert result.model["x"] == 1 << 63


def test_prove_valid_identity():
    # x ^ y == (~x & y) | (x & ~y) — the paper's instruction-substitution identity
    from repro.symex.expr import bv_or

    lhs = bv_xor(X, Y)
    identity = bv_or(bv_and(bv_not(X), Y), bv_and(X, bv_not(Y)))
    assert S.prove(bv_eq(lhs, identity))


def test_prove_invalid_rejected():
    assert not S.prove(bv_eq(bv_add(X, Y), bv_sub(X, Y)))


def test_equivalent_api():
    assert S.equivalent(bv_add(X, X), bv_mul(X, bv_const(2)))
    assert S.equivalent(bv_shl(X, 1), bv_mul(X, bv_const(2)))
    assert not S.equivalent(X, Y)


def test_equivalent_under_assumptions():
    # x == y is not valid, but it is under the assumption x == y.
    assert S.equivalent(X, Y, assuming=[bv_eq(X, Y)])


def test_opaque_predicate_always_true():
    """x*(x+1) % 2 == 0 — the canonical opaque predicate is valid."""
    expr = bv_umod(bv_mul(X, bv_add(X, bv_const(1))), bv_const(2))
    assert S.prove(bv_eq(expr, bv_const(0)))


def test_opaque_predicate_7x2_neq_y2_plus_1():
    """7x² != y²+1 stays valid mod 2⁶⁴ (squares mod 8 rule it out) —
    the solver must prove this quadratic opaque predicate UNSAT."""
    seven_x2 = bv_mul(bv_const(7), bv_mul(X, X))
    y2_plus_1 = bv_add(bv_mul(Y, Y), bv_const(1))
    assert S.check([bv_eq(seven_x2, y2_plus_1)]).is_unsat


def test_ite_constraint():
    e = bv_ite(bv_eq(X, bv_const(0)), bv_const(10), bv_const(20))
    result = S.check([bv_eq(e, bv_const(20))])
    assert result.is_sat
    assert result.model["x"] != 0


def test_division_constraint():
    result = S.check([bv_eq(bv_udiv(X, Y), bv_const(3)), bv_eq(Y, bv_const(5))])
    assert result.is_sat
    assert result.model["x"] // 5 == 3


def test_div_by_zero_semantics():
    # x / 0 == 0 in our semantics: so x/0 == 1 is unsat.
    zero = bv_const(0)
    assert S.check([bv_eq(bv_udiv(X, zero), bv_const(1))]).is_unsat
    # x % 0 == x: always true.
    assert S.prove(bv_eq(bv_umod(X, zero), X))


def test_disjunction():
    result = S.check([bool_or(bv_eq(X, bv_const(1)), bv_eq(X, bv_const(2))), bv_ne(X, bv_const(1))])
    assert result.is_sat
    assert result.model["x"] == 2


def test_unknown_on_tiny_budget():
    tiny = Solver(max_conflicts=1, sample_attempts=0)
    # A constraint that needs real search: multiplication inversion.
    result = tiny.check([bv_eq(bv_mul(X, X), bv_const(0x123456789))])
    assert result.status in (Status.UNKNOWN, Status.UNSAT)


U64 = st.integers(min_value=0, max_value=MASK64)


@settings(deadline=None, max_examples=30)
@given(a=U64, b=st.integers(min_value=0, max_value=1 << 16))
def test_property_linear_equations_solved(a, b):
    """x + a == b always has the unique model x = b - a."""
    result = S.check([bv_eq(bv_add(X, bv_const(a)), bv_const(b))])
    assert result.is_sat
    assert (result.model["x"] + a) & MASK64 == b


@settings(deadline=None, max_examples=20)
@given(a=U64)
def test_property_model_satisfies_constraints(a):
    constraints = [
        bv_eq(bv_xor(X, bv_const(a)), Y),
        cmp(CmpOp.ULE, Z, bv_const(100)),
        bv_eq(bv_and(Z, bv_const(1)), bv_const(1)),
    ]
    result = S.check(constraints)
    assert result.is_sat
    env = dict(result.model)
    for c in constraints:
        assert eval_bool(c, env)


# -- word-level refutation -----------------------------------------------------

FLAGS_LE = bool_or(
    bv_ne(bv_sym("flag_zf"), bv_const(0)),
    bool_and(bv_ne(bv_sym("flag_sf"), bv_const(0)), bv_eq(bv_sym("flag_of"), bv_const(0))),
    bool_and(bv_eq(bv_sym("flag_sf"), bv_const(0)), bv_ne(bv_sym("flag_of"), bv_const(0))),
)


def _traced_check(solver, constraints):
    """(result, spans by name, registry counters) of one check."""
    reset_metrics()
    tracer = Tracer()
    with tracing(tracer):
        result = solver.check(constraints)
    spans = {}
    for root in tracer.roots:
        for node, _ in root.walk():
            spans.setdefault(node.name, []).append(node)
    return result, spans, metrics().to_dict()["counters"]


def _refuted_by(constraints):
    result, spans, counters = _traced_check(Solver(), constraints)
    assert result.is_unsat
    rules = [k[len("solver.refuted.") :] for k in counters if k.startswith("solver.refuted.")]
    return rules, spans


def test_refutes_complementary_eq_ne_without_blasting():
    rules, spans = _refuted_by([bv_eq(X, bv_add(Y, bv_const(3))), bv_ne(X, bv_add(Y, bv_const(3)))])
    assert rules == ["complement"]
    assert "solver.blast" not in spans


def test_refutes_complementary_ult_ule_pair():
    # not (x u< y) is y u<= x.
    rules, spans = _refuted_by([cmp(CmpOp.ULT, X, Y), cmp(CmpOp.ULE, Y, X)])
    assert rules == ["complement"]
    assert "solver.blast" not in spans


def test_refutes_strict_two_cycle():
    rules, spans = _refuted_by([cmp(CmpOp.ULT, X, Y), cmp(CmpOp.ULT, Y, X)])
    assert rules == ["order_cycle"]
    assert "solver.blast" not in spans


def test_refutes_three_term_strict_cycle():
    rules, _ = _refuted_by(
        [cmp(CmpOp.SLT, X, Y), cmp(CmpOp.SLE, Y, Z), cmp(CmpOp.SLE, Z, X)]
    )
    assert rules == ["order_cycle"]


def test_refutes_logged_winnow_divider_query():
    """The implication query every cold winnow used to pay a 175k-clause
    divider for: (rax0 udiv rcx0) != 0 and == 0, plus the flags test."""
    quotient = bv_udiv(bv_sym("rax0"), bv_sym("rcx0"))
    for phi in (FLAGS_LE, bool_not(FLAGS_LE)):
        rules, spans = _refuted_by(
            [bv_ne(quotient, bv_const(0)), bv_eq(quotient, bv_const(0)), phi]
        )
        assert rules == ["complement"]
        assert "solver.blast" not in spans


def _assert_sat_unrefuted(constraints):
    result, _, counters = _traced_check(Solver(sample_attempts=0), constraints)
    assert result.is_sat
    assert all(eval_bool(c, result.model) for c in constraints)
    assert not [k for k in counters if k.startswith("solver.refuted.")]


def test_nonstrict_two_cycle_not_refuted():
    _assert_sat_unrefuted([cmp(CmpOp.ULE, X, Y), cmp(CmpOp.ULE, Y, X)])


def test_mixed_order_families_not_refuted():
    # x u< y and y s< x: x = 0, y = 2^64 - 1 (signed -1).
    _assert_sat_unrefuted([cmp(CmpOp.ULT, X, Y), cmp(CmpOp.SLT, Y, X)])


def test_division_sat_not_refuted():
    _assert_sat_unrefuted([bv_eq(bv_udiv(X, Y), bv_const(3)), bv_eq(Y, bv_const(5))])


def test_over_blast_budget_answers_unknown(monkeypatch):
    budget = 2_000
    monkeypatch.setattr(solver_module, "MAX_BLAST_CLAUSES", budget)
    query = [bv_eq(bv_mul(X, X), bv_const(4)), cmp(CmpOp.ULT, X, bv_const(8)), bv_ne(X, 2)]
    solver = Solver(sample_attempts=0)
    result, spans, counters = _traced_check(solver, query)
    assert result.status is Status.UNKNOWN
    assert counters["solver.unknowns"] == 1 and solver.unknowns == 1
    # The multiplier stops one clause past the budget and is never searched.
    (blast,) = spans["solver.blast"]
    assert blast.counters["clauses"] == budget + 1
    assert "solver.sat" not in spans
    monkeypatch.undo()
    assert Solver(sample_attempts=0).check(query).is_unsat


def _probe_records():
    """Two records with equal posts whose subsumption is the implication
    (x*x == 4 and x u< 8) -> x == 2: true, but provable only through the
    64-bit multiplier."""
    from repro.binfmt.image import make_image
    from repro.gadgets.extract import ExtractionConfig, extract_gadgets
    from repro.isa.encoding import encode_program
    from repro.isa.instructions import Instruction, Op
    from repro.isa.registers import Reg

    text = encode_program([Instruction(op=Op.POP1, dst=Reg.RAX), Instruction(op=Op.RET)])
    records = extract_gadgets(make_image(text), ExtractionConfig(max_insns=3))
    (record,) = [r for r in records if r.insns[0].op is Op.POP1]
    x = bv_sym("rbx0")
    weaker = [bv_eq(x, bv_const(2))]
    stronger = [bv_eq(bv_mul(x, x), bv_const(4)), cmp(CmpOp.ULT, x, bv_const(8))]
    return [
        dataclasses.replace(record, location=record.location + 1, pre_cond=weaker),
        dataclasses.replace(record, location=record.location + 2, pre_cond=stronger),
    ]


def test_winnow_keeps_gadget_when_blast_over_budget(monkeypatch):
    from repro.gadgets.subsumption import winnow_bucket

    bucket = _probe_records()
    assert len(winnow_bucket(bucket, Solver(max_conflicts=4000))) == 1
    monkeypatch.setattr(solver_module, "MAX_BLAST_CLAUSES", 2_000)
    assert len(winnow_bucket(bucket, Solver(max_conflicts=4000))) == 2


def test_cold_winnow_blasts_nothing_large():
    """Non-timing guard: a cold winnow of binary_search/none (the image
    whose implication queries used to encode a 175k-clause divider)
    blasts no query over 10,000 clauses."""
    from repro.bench.harness import BENCH_EXTRACTION, build
    from repro.gadgets.extract import extract_gadgets
    from repro.gadgets.subsumption import deduplicate_gadgets

    records = extract_gadgets(build("binary_search", "none").image, BENCH_EXTRACTION)
    reset_metrics()
    tracer = Tracer()
    with tracing(tracer):
        deduplicate_gadgets(records, solver=Solver(max_conflicts=4000))
    blasts = [n for root in tracer.roots for n, _ in root.walk() if n.name == "solver.blast"]
    assert max((b.counters["clauses"] for b in blasts), default=0) <= 10_000
    assert metrics().to_dict()["counters"].get("solver.refuted.complement", 0) >= 2


def test_sat_span_and_slow_log_carry_search_effort():
    # x * y == 15 with both factors in 2..15: the search must branch.
    query = [
        bv_eq(bv_mul(X, Y), bv_const(15)),
        cmp(CmpOp.ULT, bv_const(1), X),
        cmp(CmpOp.ULT, X, bv_const(16)),
        cmp(CmpOp.ULT, bv_const(1), Y),
        cmp(CmpOp.ULT, Y, bv_const(16)),
    ]
    result, spans, _ = _traced_check(Solver(sample_attempts=0), query)
    assert result.is_sat and result.model["x"] * result.model["y"] == 15
    (sat,) = spans["solver.sat"]
    assert sat.counters["decisions"] > 0
    assert sat.counters["propagations"] > sat.counters["decisions"]
    (entry,) = metrics().to_dict()["slow_logs"]["solver.slow_queries"]
    assert {k: entry[k] for k in ("conflicts", "decisions", "propagations")} == {
        k: sat.counters[k] for k in ("conflicts", "decisions", "propagations")
    }


def test_answers_are_counted_by_path():
    solver = Solver()
    queries = {
        "propagation": [bv_eq(X, bv_const(5))],
        "sampling": [cmp(CmpOp.ULT, X, bv_const(100))],
        "refutation": [cmp(CmpOp.ULT, X, Y), cmp(CmpOp.ULT, Y, X)],
        "blast": [cmp(CmpOp.ULT, X, Y), cmp(CmpOp.ULT, Y, bv_const(2)), bv_ne(X, bv_const(0))],
    }
    reset_metrics()
    for path, query in queries.items():
        before = dict(solver.answers)
        solver.check(query)
        assert solver.answers == {**before, path: before[path] + 1}, path
    solver.check(queries["blast"])
    assert solver.answers == {
        "memo": 1,
        "propagation": 1,
        "sampling": 1,
        "refutation": 1,
        "blast": 1,
    }
    assert sum(solver.answers.values()) == solver.queries
    counters = metrics().to_dict()["counters"]
    assert {path: counters[f"solver.answers.{path}"] for path in solver.answers} == solver.answers
