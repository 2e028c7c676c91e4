"""Tests for the CDCL SAT core."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.solver.sat import SATBudgetExceeded, SATSolver, solve_clauses


def brute_force_sat(clauses, num_vars):
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {i + 1: bits[i] for i in range(num_vars)}
        ok = True
        for clause in clauses:
            if not any(assignment[abs(lit)] == (lit > 0) for lit in clause):
                ok = False
                break
        if ok:
            return True
    return False


def test_empty_problem_is_sat():
    assert solve_clauses([]).satisfiable


def test_single_unit():
    result = solve_clauses([[1]])
    assert result.satisfiable
    assert result.model[1] is True


def test_contradictory_units():
    assert not solve_clauses([[1], [-1]]).satisfiable


def test_simple_implication_chain():
    # 1 and (1->2) and (2->3) and (3 -> not 1) is unsat
    clauses = [[1], [-1, 2], [-2, 3], [-3, -1]]
    assert not solve_clauses(clauses).satisfiable


def test_model_satisfies_clauses():
    clauses = [[1, 2], [-1, 3], [-2, -3], [2, 3]]
    result = solve_clauses(clauses)
    assert result.satisfiable
    for clause in clauses:
        assert any(result.model[abs(lit)] == (lit > 0) for lit in clause)


def test_pigeonhole_3_into_2_unsat():
    # Variables p[i][j]: pigeon i in hole j (i in 0..2, j in 0..1).
    def var(i, j):
        return i * 2 + j + 1

    clauses = []
    for i in range(3):
        clauses.append([var(i, 0), var(i, 1)])
    for j in range(2):
        for i1 in range(3):
            for i2 in range(i1 + 1, 3):
                clauses.append([-var(i1, j), -var(i2, j)])
    assert not solve_clauses(clauses).satisfiable


def test_tautology_removed():
    solver = SATSolver()
    solver.add_clause([1, -1])
    assert solver.solve().satisfiable


def test_duplicate_literals_in_clause():
    assert solve_clauses([[1, 1, 1]]).satisfiable


def test_empty_clause_unsat():
    solver = SATSolver()
    solver.add_clause([])
    assert not solver.solve().satisfiable


def test_zero_literal_rejected():
    solver = SATSolver()
    with pytest.raises(ValueError):
        solver.add_clause([0])


def test_budget_exceeded_raises():
    # A hard pigeonhole instance (5 into 4) with a tiny budget.
    def var(i, j):
        return i * 4 + j + 1

    solver = SATSolver()
    for i in range(5):
        solver.add_clause([var(i, j) for j in range(4)])
    for j in range(4):
        for i1 in range(5):
            for i2 in range(i1 + 1, 5):
                solver.add_clause([-var(i1, j), -var(i2, j)])
    with pytest.raises(SATBudgetExceeded) as budget:
        solver.solve(max_conflicts=3)
    # The overrun reports the effort it spent, as a verdict does.
    assert budget.value.conflicts == 4
    assert budget.value.decisions >= budget.value.conflicts
    assert budget.value.propagations > 0


def test_effort_counters():
    """One decision per ``_decide`` call (the last one finds nothing to
    decide), and propagations are the literals unit propagation put on
    the trail: a chain x1 -> x2 -> ... -> x5 under x1 assigns four."""
    solver = SATSolver()
    for v in range(1, 5):
        solver.add_clause([-v, v + 1])
    solver.add_clause([1])
    result = solver.solve()
    assert result.satisfiable
    assert (result.decisions, result.propagations, result.conflicts) == (1, 4, 0)

    pigeons = SATSolver()
    for i in range(3):
        pigeons.add_clause([2 * i + 1, 2 * i + 2])
    for j in (1, 2):
        for a, b in itertools.combinations(range(3), 2):
            pigeons.add_clause([-(2 * a + j), -(2 * b + j)])
    unsat = pigeons.solve()
    assert not unsat.satisfiable and unsat.conflicts > 0
    assert unsat.decisions > 0 and unsat.propagations > unsat.decisions


@st.composite
def random_cnf(draw):
    num_vars = draw(st.integers(min_value=1, max_value=8))
    num_clauses = draw(st.integers(min_value=1, max_value=20))
    clauses = []
    for _ in range(num_clauses):
        size = draw(st.integers(min_value=1, max_value=4))
        clause = [
            draw(st.integers(min_value=1, max_value=num_vars))
            * (1 if draw(st.booleans()) else -1)
            for _ in range(size)
        ]
        clauses.append(clause)
    return num_vars, clauses


@settings(deadline=None, max_examples=150)
@given(problem=random_cnf())
def test_property_matches_brute_force(problem):
    num_vars, clauses = problem
    expected = brute_force_sat(clauses, num_vars)
    result = solve_clauses(clauses)
    assert result.satisfiable == expected
    if result.satisfiable:
        for clause in clauses:
            assert any(result.model[abs(lit)] == (lit > 0) for lit in clause)
