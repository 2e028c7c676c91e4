"""Bit-vector constraint solver frontend (the Z3 stand-in).

Layered decision procedure:

1. **Syntactic**: smart-constructor folding already reduced each
   constraint; a ``FALSE`` conjunct is UNSAT, all-``TRUE`` is SAT.
2. **Equality propagation**: ``sym == const`` conjuncts are substituted
   through the rest and the system re-simplified to a fixpoint.  This
   alone discharges the vast majority of plan-binding queries
   ("stack slot 3 must equal 59").
3. **Random sampling**: a handful of random assignments to the free
   variables; any hit is a model.  Catches loose constraint systems
   without touching CNF.
4. **Word-level refutation** (:meth:`Solver.refute`): a conjunct
   together with its negation, or a cycle of unsigned (or of signed)
   order atoms with a strict edge.  Both are contradictions a blast
   would only rediscover, after encoding every term they mention (a
   64-bit divider is 175k clauses).  This layer only ever answers UNSAT.
5. **Bit-blasting + CDCL SAT** (:mod:`repro.solver.bitblast`,
   :mod:`repro.solver.sat`) as the complete fallback.  Two budgets
   bound it: :data:`MAX_BLAST_CLAUSES` on the encoding and
   ``max_conflicts`` on the search; either overrun answers UNKNOWN
   instead of costing seconds and megabytes.

Every query that reaches layer 4 opens a ``solver.query`` span, with
``solver.blast`` (``vars`` and ``clauses`` counters) and ``solver.sat``
(``conflicts``) beneath it when it is blasted, bumps
``solver.refuted.<rule>`` when a rule refutes it, and is entered in the
``solver.slow_queries`` slow log, which ``nfl trace`` prints.
"""

from __future__ import annotations

import enum
import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..symex.expr import (
    BV,
    BVConst,
    BVSym,
    Bool,
    BoolConn,
    BoolConst,
    BoolExpr,
    Cmp,
    CmpOp,
    bool_and,
    bool_not,
    bv_eq,
    eval_bool,
    free_symbols,
    substitute,
)
from ..obs import metrics, span
from .bitblast import BitBlaster, BlastError
from .sat import SATBudgetExceeded, SATSolver


class Status(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolverResult:
    status: Status
    model: Dict[str, int] = field(default_factory=dict)

    @property
    def is_sat(self) -> bool:
        return self.status is Status.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is Status.UNSAT


def _flatten_conjuncts(constraints: Iterable[Bool]) -> List[Bool]:
    out: List[Bool] = []
    stack = list(constraints)
    while stack:
        c = stack.pop()
        if isinstance(c, BoolExpr) and c.conn is BoolConn.AND:
            stack.extend(c.args)
        else:
            out.append(c)
    return out


def _propagate_equalities(conjuncts: List[Bool]) -> tuple[List[Bool], Dict[str, int], bool]:
    """Substitute ``sym == const`` bindings to a fixpoint.

    Returns (residual conjuncts, bindings, consistent?).
    """
    bindings: Dict[str, int] = {}
    work = list(conjuncts)
    changed = True
    while changed:
        changed = False
        residual: List[Bool] = []
        for c in work:
            if isinstance(c, BoolConst):
                if not c.value:
                    return [], bindings, False
                continue
            if isinstance(c, Cmp) and c.op is CmpOp.EQ:
                sym, const = None, None
                if isinstance(c.lhs, BVSym) and isinstance(c.rhs, BVConst):
                    sym, const = c.lhs.name, c.rhs.value
                elif isinstance(c.rhs, BVSym) and isinstance(c.lhs, BVConst):
                    sym, const = c.rhs.name, c.lhs.value
                if sym is not None:
                    if sym in bindings and bindings[sym] != const:
                        return [], bindings, False
                    if sym not in bindings:
                        bindings[sym] = const
                        changed = True
                    continue
            residual.append(c)
        if changed and bindings:
            subs = {name: BVConst(value) for name, value in bindings.items()}
            work = []
            for c in residual:
                simplified = substitute(c, subs)
                if isinstance(simplified, BoolConst) and not simplified.value:
                    return [], bindings, False
                work.append(simplified)
        else:
            work = residual
    final = [c for c in work if not (isinstance(c, BoolConst) and c.value)]
    return final, bindings, True


# -- word-level refutation ------------------------------------------------------

#: Order comparisons by family: an unsigned and a signed atom never
#: share a cycle.  The flag marks strict edges.
_ORDER_EDGES = {
    CmpOp.ULT: ("unsigned", True),
    CmpOp.ULE: ("unsigned", False),
    CmpOp.SLT: ("signed", True),
    CmpOp.SLE: ("signed", False),
}


def _has_complement(conjuncts: Sequence[Bool]) -> bool:
    """Some conjunct's negation is itself a conjunct."""
    present = set(conjuncts)
    return any(bool_not(c) in present for c in conjuncts)


def _has_order_cycle(conjuncts: Sequence[Bool]) -> bool:
    """``a < b`` with a path of ``<``/``<=`` atoms from ``b`` back to
    ``a`` in the same family: ``a < a``, a contradiction."""
    graphs: Dict[str, Dict[BV, List[BV]]] = {}
    strict: List[tuple] = []
    for c in conjuncts:
        if isinstance(c, Cmp) and c.op in _ORDER_EDGES:
            family, is_strict = _ORDER_EDGES[c.op]
            graphs.setdefault(family, {}).setdefault(c.lhs, []).append(c.rhs)
            if is_strict:
                strict.append((family, c.lhs, c.rhs))
    for family, low, high in strict:
        graph = graphs[family]
        seen = {high}
        stack = [high]
        while stack:
            node = stack.pop()
            if node == low:
                return True
            for succ in graph.get(node, ()):
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
    return False


def _query_digest(conjuncts: Sequence[Bool]) -> str:
    """A short stable name for a query in the slow-query log."""
    text = "\n".join(str(c) for c in conjuncts)
    return hashlib.blake2b(text.encode(), digest_size=6).hexdigest()


#: Clause budget of one blast: above the 64-bit restoring divider
#: (175,311 clauses), the largest encoding any tier-1 query needs.
#: Winnow pools depend on it, so changing it means bumping
#: ``repro.pipeline.PIPELINE_VERSION``.
MAX_BLAST_CLAUSES = 250_000


class Solver:
    """Stateless checker over conjunctions of :class:`Bool` constraints.

    "Stateless" semantically: every :meth:`check` answer depends only on
    the constraints.  That makes the instance-level memo sound — repeat
    queries (common during winnowing, where the same pre-condition pairs
    recur across buckets) return the first answer verbatim.
    """

    def __init__(
        self,
        *,
        max_conflicts: int = 200_000,
        sample_attempts: int = 24,
        rng_seed: int = 0x5EED,
        memoize: bool = True,
        memo_limit: int = 100_000,
    ) -> None:
        self.max_conflicts = max_conflicts
        self.sample_attempts = sample_attempts
        self._rng = random.Random(rng_seed)
        self.memoize = memoize
        self.memo_limit = memo_limit
        self._memo: Dict[tuple, SolverResult] = {}
        self.queries = 0
        self.memo_hits = 0
        self.sat_calls = 0  # checks that sampling left to layers 4-5
        self.sat_conflicts = 0  # CDCL conflicts spent across those calls
        self.unknowns = 0  # budget/blast failures answered UNKNOWN

    # -- public API -----------------------------------------------------------

    def check(self, constraints: Sequence[Bool]) -> SolverResult:
        """Decide satisfiability of the conjunction of ``constraints``."""
        self.queries += 1
        key = None
        if self.memoize:
            try:
                key = tuple(constraints)
            except TypeError:  # pragma: no cover - defensive
                key = None
            if key is not None and key in self._memo:
                self.memo_hits += 1
                cached = self._memo[key]
                return SolverResult(cached.status, dict(cached.model))
        result = self._check_uncached(constraints)
        if key is not None:
            if len(self._memo) >= self.memo_limit:
                self._memo.clear()
            self._memo[key] = SolverResult(result.status, dict(result.model))
        return result

    @property
    def memo_hit_rate(self) -> float:
        return self.memo_hits / self.queries if self.queries else 0.0

    def _check_uncached(self, constraints: Sequence[Bool]) -> SolverResult:
        conjuncts = _flatten_conjuncts(constraints)
        residual, bindings, consistent = _propagate_equalities(conjuncts)
        if not consistent:
            return SolverResult(Status.UNSAT)
        if not residual:
            return SolverResult(Status.SAT, model=dict(bindings))
        symbols = sorted(set().union(*(free_symbols(c) for c in residual)))
        sampled = self._try_sampling(residual, symbols)
        if sampled is not None:
            sampled.update(bindings)
            return SolverResult(Status.SAT, model=sampled)
        return self._check_with_sat(residual, symbols, bindings)

    def prove(self, formula: Bool) -> bool:
        """True iff ``formula`` is valid (its negation is UNSAT)."""
        return self.check([bool_not(formula)]).is_unsat

    def equivalent(self, a: BV, b: BV, assuming: Optional[Sequence[Bool]] = None) -> bool:
        """True iff ``a == b`` under the (optional) assumptions."""
        if a == b:
            return True
        goal = bv_eq(a, b)
        if assuming:
            hypothesis = bool_and(*assuming)
            query = [hypothesis, bool_not(goal)]
        else:
            query = [bool_not(goal)]
        return self.check(query).is_unsat

    def satisfiable(self, constraints: Sequence[Bool]) -> bool:
        return self.check(constraints).is_sat

    # -- internals ---------------------------------------------------------------

    def _try_sampling(self, conjuncts: List[Bool], symbols: List[str]) -> Optional[Dict[str, int]]:
        if len(symbols) > 64:
            return None
        special = [0, 1, (1 << 64) - 1, 59, 0x600000]
        for attempt in range(self.sample_attempts):
            env = {}
            for s in symbols:
                if attempt < len(special):
                    env[s] = special[attempt]
                else:
                    env[s] = self._rng.getrandbits(64)
            try:
                if all(eval_bool(c, env) for c in conjuncts):
                    return env
            except Exception:  # pragma: no cover - defensive
                return None
        return None

    @staticmethod
    def refute(conjuncts: Sequence[Bool]) -> Optional[str]:
        """The word-level rule that refutes the conjunction, cheapest
        first (``complement``, then ``order_cycle``), or None.  None
        never means SAT."""
        if _has_complement(conjuncts):
            return "complement"
        if _has_order_cycle(conjuncts):
            return "order_cycle"
        return None

    def _check_with_sat(
        self, conjuncts: List[Bool], symbols: List[str], bindings: Dict[str, int]
    ) -> SolverResult:
        self.sat_calls += 1
        registry = metrics()
        registry.counter("solver.sat_calls").inc()
        cost = {"vars": 0, "clauses": 0, "conflicts": 0}
        with span("solver.query") as query_sp:
            rule = self.refute(conjuncts)
            if rule is not None:
                registry.counter(f"solver.refuted.{rule}").inc()
                result = SolverResult(Status.UNSAT)
            else:
                result = self._blast_and_solve(conjuncts, symbols, cost)
        if result.status is Status.UNKNOWN:
            self.unknowns += 1
            registry.counter("solver.unknowns").inc()
        if result.is_sat:
            result.model.update(bindings)
        registry.slow_log("solver.slow_queries").observe(
            query_sp.wall,
            digest=_query_digest(conjuncts),
            **cost,
            status=result.status.value,
            rule=rule or "-",
        )
        return result

    def _blast_and_solve(
        self, conjuncts: Sequence[Bool], symbols: List[str], cost: Dict[str, int]
    ) -> SolverResult:
        """Blast and search within both budgets; UNKNOWN on an overrun.
        A SAT answer carries the values of ``symbols``; what the query
        cost is recorded in ``cost``."""
        sat = SATSolver()
        blaster = BitBlaster(sat, max_clauses=MAX_BLAST_CLAUSES)
        with span("solver.blast") as blast_sp:
            try:
                for c in conjuncts:
                    blaster.assert_bool(c)
                blasted = True
            except BlastError:
                blasted = False
            blast_sp.add("vars", sat.num_vars)
            blast_sp.add("clauses", blaster.clauses)
        cost.update(vars=sat.num_vars, clauses=blaster.clauses)
        if not blasted:
            return SolverResult(Status.UNKNOWN)
        with span("solver.sat") as sat_sp:
            try:
                result = sat.solve(max_conflicts=self.max_conflicts)
                conflicts = result.conflicts
            except SATBudgetExceeded as budget:
                result = None
                conflicts = budget.conflicts
            sat_sp.add("conflicts", conflicts)
        self.sat_conflicts += conflicts
        cost["conflicts"] = conflicts
        metrics().histogram("solver.conflicts_per_check").observe(conflicts)
        if result is None:
            return SolverResult(Status.UNKNOWN)
        if not result.satisfiable:
            return SolverResult(Status.UNSAT)
        model = {name: blaster.extract_value(name, result.model) for name in symbols}
        return SolverResult(Status.SAT, model=model)


#: A module-level default solver for casual callers.
DEFAULT_SOLVER = Solver()


def check(constraints: Sequence[Bool]) -> SolverResult:
    return DEFAULT_SOLVER.check(constraints)


def prove(formula: Bool) -> bool:
    return DEFAULT_SOLVER.prove(formula)
