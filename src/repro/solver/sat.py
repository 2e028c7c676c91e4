"""A CDCL SAT solver.

This is the decision core underneath the bit-vector solver: conflict-
driven clause learning with two-watched-literal propagation, VSIDS-style
activity-based branching, first-UIP learning, and Luby restarts.  It is
deliberately dependency-free; performance is adequate for the clause
sizes that gadget subsumption and plan-constraint queries produce
(thousands to low hundreds of thousands of clauses).

Literals use the DIMACS convention: variables are positive integers,
a negated literal is the negative integer.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence


class SATResult:
    """Outcome of a :meth:`SATSolver.solve` call.

    ``conflicts`` reports the CDCL conflicts the verdict cost — the
    effort signal the observability layer histograms per check — and
    ``decisions`` and ``propagations`` the branching and the literals
    unit propagation assigned.
    """

    __slots__ = ("satisfiable", "model", "conflicts", "decisions", "propagations")

    def __init__(
        self,
        satisfiable: bool,
        model: Optional[Dict[int, bool]] = None,
        conflicts: int = 0,
        decisions: int = 0,
        propagations: int = 0,
    ):
        self.satisfiable = satisfiable
        self.model = model or {}
        self.conflicts = conflicts
        self.decisions = decisions
        self.propagations = propagations

    def __bool__(self) -> bool:
        return self.satisfiable

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SATResult(sat={self.satisfiable}, |model|={len(self.model)}, "
            f"conflicts={self.conflicts}, decisions={self.decisions}, "
            f"propagations={self.propagations})"
        )


def _luby(i: int) -> int:
    """The Luby restart sequence (1-indexed): 1 1 2 1 1 2 4 1 1 2 ..."""
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


class SATSolver:
    """CDCL with two-watched literals and first-UIP clause learning."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: List[List[int]] = []
        self._watches: Dict[int, List[int]] = {}  # literal -> clause indices
        self.assignment: Dict[int, bool] = {}
        self._trail: List[int] = []  # literals in assignment order
        self._trail_lim: List[int] = []  # trail indices at decision levels
        self._reason: Dict[int, Optional[int]] = {}  # var -> clause index
        self._level: Dict[int, int] = {}
        self._activity: Dict[int, float] = {}
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._propagate_head = 0
        self._ok = True
        #: Effort counters: calls to :meth:`_decide`, and literals that
        #: unit propagation put on the trail.
        self.decisions = 0
        self.propagations = 0

    # -- problem construction ------------------------------------------------

    def new_var(self) -> int:
        self.num_vars += 1
        self._activity[self.num_vars] = 0.0
        return self.num_vars

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause; duplicate literals removed, tautologies dropped."""
        seen = set()
        clause: List[int] = []
        for lit in lits:
            if lit == 0:
                raise ValueError("0 is not a literal")
            if -lit in seen:
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
            self.num_vars = max(self.num_vars, abs(lit))
            self._activity.setdefault(abs(lit), 0.0)
        if not clause:
            self._ok = False
            return
        if len(clause) == 1:
            # Unit clause: assign immediately at level 0 (defer conflicts).
            lit = clause[0]
            var = abs(lit)
            value = lit > 0
            if var in self.assignment:
                if self.assignment[var] != value:
                    self._ok = False
                return
            self._assign(lit, reason=None)
            return
        index = len(self.clauses)
        self.clauses.append(clause)
        self._watch(clause[0], index)
        self._watch(clause[1], index)

    def _watch(self, lit: int, clause_index: int) -> None:
        self._watches.setdefault(lit, []).append(clause_index)

    # -- assignment machinery ------------------------------------------------

    def _value(self, lit: int) -> Optional[bool]:
        var = abs(lit)
        if var not in self.assignment:
            return None
        value = self.assignment[var]
        return value if lit > 0 else not value

    def _assign(self, lit: int, reason: Optional[int]) -> None:
        var = abs(lit)
        self.assignment[var] = lit > 0
        self._reason[var] = reason
        self._level[var] = len(self._trail_lim)
        self._trail.append(lit)

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None."""
        start = len(self._trail)
        conflict = self._propagate_from_head()
        self.propagations += len(self._trail) - start
        return conflict

    def _propagate_from_head(self) -> Optional[int]:
        while self._propagate_head < len(self._trail):
            lit = self._trail[self._propagate_head]
            self._propagate_head += 1
            false_lit = -lit
            watch_list = self._watches.get(false_lit, [])
            new_watch_list: List[int] = []
            conflict = None
            i = 0
            while i < len(watch_list):
                ci = watch_list[i]
                i += 1
                clause = self.clauses[ci]
                # Ensure false_lit is at position 1.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) is True:
                    new_watch_list.append(ci)
                    continue
                # Look for a new literal to watch.
                moved = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) is not False:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watch(clause[1], ci)
                        moved = True
                        break
                if moved:
                    continue
                new_watch_list.append(ci)
                if self._value(first) is False:
                    # Conflict: keep remaining watches, report.
                    new_watch_list.extend(watch_list[i:])
                    conflict = ci
                    break
                self._assign(first, reason=ci)
            self._watches[false_lit] = new_watch_list
            if conflict is not None:
                return conflict
        return None

    # -- conflict analysis -----------------------------------------------------

    def _bump(self, var: int) -> None:
        self._activity[var] = self._activity.get(var, 0.0) + self._var_inc
        if self._activity[var] > 1e100:
            for v in self._activity:
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100

    def _analyze(self, conflict: int) -> tuple[List[int], int]:
        """First-UIP conflict analysis → (learned clause, backjump level)."""
        current_level = len(self._trail_lim)
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = set()
        counter = 0
        lit = None
        index = len(self._trail) - 1
        clause = self.clauses[conflict]
        while True:
            for q in clause:
                if lit is not None and q == lit:
                    continue
                var = abs(q)
                if var in seen or self._level.get(var, 0) == 0:
                    continue
                seen.add(var)
                self._bump(var)
                if self._level[var] == current_level:
                    counter += 1
                else:
                    learned.append(q)
            # Find the next literal on the trail to resolve on.
            while abs(self._trail[index]) not in seen:
                index -= 1
            lit = self._trail[index]
            index -= 1
            var = abs(lit)
            seen.discard(var)
            counter -= 1
            if counter == 0:
                learned[0] = -lit
                break
            reason = self._reason[var]
            assert reason is not None
            clause = self.clauses[reason]
        if len(learned) == 1:
            return learned, 0
        levels = sorted({self._level[abs(q)] for q in learned[1:]}, reverse=True)
        return learned, levels[0]

    def _backjump(self, level: int) -> None:
        while len(self._trail_lim) > level:
            limit = self._trail_lim.pop()
            while len(self._trail) > limit:
                lit = self._trail.pop()
                var = abs(lit)
                del self.assignment[var]
                self._reason.pop(var, None)
                self._level.pop(var, None)
        self._propagate_head = min(self._propagate_head, len(self._trail))

    def _decide(self) -> Optional[int]:
        self.decisions += 1
        best_var = None
        best_act = -1.0
        for var in range(1, self.num_vars + 1):
            if var not in self.assignment:
                act = self._activity.get(var, 0.0)
                if act > best_act:
                    best_act = act
                    best_var = var
        if best_var is None:
            return None
        return -best_var  # negative-first polarity: zeros are common in BV models

    # -- main loop -----------------------------------------------------------

    def _result(
        self, satisfiable: bool, model: Optional[Dict[int, bool]] = None, *, conflicts: int
    ) -> SATResult:
        return SATResult(satisfiable, model, conflicts, self.decisions, self.propagations)

    def solve(self, max_conflicts: Optional[int] = None) -> SATResult:
        """Run CDCL; ``max_conflicts`` bounds effort (None = unbounded).

        Raises :class:`SATBudgetExceeded` when the conflict budget runs
        out, so callers can distinguish "unsat" from "gave up".
        """
        if not self._ok:
            return SATResult(False)
        if self._propagate() is not None:
            return self._result(False, conflicts=0)
        conflicts = 0
        restart_count = 1
        restart_limit = 32 * _luby(restart_count)
        conflicts_since_restart = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflicts += 1
                conflicts_since_restart += 1
                if max_conflicts is not None and conflicts > max_conflicts:
                    raise SATBudgetExceeded(conflicts, self.decisions, self.propagations)
                if not self._trail_lim:
                    return self._result(False, conflicts=conflicts)
                learned, back_level = self._analyze(conflict)
                self._backjump(back_level)
                if len(learned) == 1:
                    self._assign(learned[0], reason=None)
                else:
                    index = len(self.clauses)
                    self.clauses.append(learned)
                    self._watch(learned[0], index)
                    self._watch(learned[1], index)
                    self._assign(learned[0], reason=index)
                self._var_inc /= self._var_decay
                if conflicts_since_restart >= restart_limit:
                    restart_count += 1
                    restart_limit = 32 * _luby(restart_count)
                    conflicts_since_restart = 0
                    self._backjump(0)
            else:
                decision = self._decide()
                if decision is None:
                    model = dict(self.assignment)
                    for var in range(1, self.num_vars + 1):
                        model.setdefault(var, False)
                    return self._result(True, model, conflicts=conflicts)
                self._trail_lim.append(len(self._trail))
                self._assign(decision, reason=None)


class SATBudgetExceeded(Exception):
    """The conflict budget was exhausted before a verdict; the effort
    spent is reported as on :class:`SATResult`."""

    def __init__(self, conflicts: int, decisions: int = 0, propagations: int = 0):
        super().__init__(f"SAT budget exceeded after {conflicts} conflicts")
        self.conflicts = conflicts
        self.decisions = decisions
        self.propagations = propagations


def solve_clauses(clauses: Sequence[Sequence[int]], max_conflicts: Optional[int] = None) -> SATResult:
    """One-shot convenience wrapper."""
    solver = SATSolver()
    for clause in clauses:
        solver.add_clause(clause)
    return solver.solve(max_conflicts=max_conflicts)
