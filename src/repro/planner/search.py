"""The planning search — Algorithm 1.

Greedy best-first search over partial plans, backward from the goal:
pop the most promising partial plan, pick an open condition, generate a
successor per provider (existing step or fresh gadget), discard plans
with unsatisfiable constraints or unresolvable threats, output complete
plans, keep going until the queue empties or budgets run out — the
paper's planner "does not stop when finding one gadget chain".
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional

from ..gadgets.record import GadgetRecord
from ..obs import span
from ..solver.solver import Solver
from .conditions import (
    MemCondition,
    Provision,
    RegCondition,
    discharge_preconditions,
    provide_mem_condition,
    provide_reg_condition,
    regress_equation,
    target_provision,
)
from .goals import ResolvedGoal
from .library import ChainKind, GadgetLibrary
from .plan import GOAL_STEP, OpenCondition, PartialPlan


#: Syscall gadgets a goal seeds plans from (dead seeds are cheap).
MAX_GOAL_GADGETS = 256


@dataclass
class PlannerConfig:
    """Search budgets and knobs."""

    max_nodes: int = 4000  # partial plans expanded
    max_plans: int = 12  # complete plans to emit per goal
    max_steps: int = 10  # gadget instances per plan
    providers_per_cond: int = 6  # branching factor cap


@dataclass
class SearchStats:
    """One search's counters; the ``plan.search`` span carries them all."""

    nodes_expanded: int = 0
    plans_emitted: int = 0
    dead_ends: int = 0
    seeds: int = 0
    #: Provision requests, and those the search's memo answered.
    provides: int = 0
    provide_hits: int = 0
    #: (causal link, step) pairs checked for a threat.
    threat_checks: int = 0
    pushes: int = 0
    #: ``dead_ends`` by reason: no provider to ask, every provision
    #: None, the step cap, every successor lost to a threat or cycle.
    dead_no_provider: int = 0
    dead_no_provision: int = 0
    dead_step_cap: int = 0
    dead_threat: int = 0


_MISSING = object()


class _Provisions:
    """Every provision one search asks for, computed once.

    The answer depends only on the gadget and what is asked of it, not
    on the plan, and most requests repeat one already made.  Records are
    keyed by ``id``: ``GadgetRecord`` is not hashable, and the library
    keeps every record alive until the search returns.  A
    :class:`~repro.planner.conditions.Provision` is immutable, so one
    entry is shared by every plan that uses it.
    """

    def __init__(self, solver: Solver, locator, stats: SearchStats) -> None:
        self.solver = solver
        self.locator = locator
        self.stats = stats
        self.memo: Dict[tuple, Optional[Provision]] = {}

    def _get(self, rule, gadget: GadgetRecord, want, *extra) -> Optional[Provision]:
        """``rule(gadget, want, solver, *extra)``, the first time it is asked."""
        self.stats.provides += 1
        key = (rule, id(gadget), want)
        found = self.memo.get(key, _MISSING)
        if found is _MISSING:
            found = self.memo[key] = rule(gadget, want, self.solver, *extra)
        else:
            self.stats.provide_hits += 1
        return found

    def reg(self, gadget: GadgetRecord, cond: RegCondition) -> Optional[Provision]:
        return self._get(provide_reg_condition, gadget, cond, self.locator)

    def mem(self, gadget: GadgetRecord, cond: MemCondition) -> Optional[Provision]:
        return self._get(provide_mem_condition, gadget, cond)

    def target(self, gadget: GadgetRecord, next_addr: int) -> Optional[Provision]:
        return self._get(target_provision, gadget, next_addr)


def _seed_plans(
    library: GadgetLibrary,
    resolved: ResolvedGoal,
    solver: Solver,
) -> List[PartialPlan]:
    """One initial plan per viable syscall gadget (Algorithm 1 line 4)."""
    seeds: List[PartialPlan] = []
    for goal_gadget in library.goal_gadgets[:MAX_GOAL_GADGETS]:
        bindings: List = []
        open_regs: List[RegCondition] = []
        feasible = True
        for reg, value in resolved.reg_values.items():
            post = goal_gadget.post_regs[reg]
            provision = regress_equation(post, value, solver)
            if provision is None:
                feasible = False
                break
            bindings.extend(provision.bindings)
            open_regs.extend(provision.regressed)
        if not feasible:
            continue
        pre = discharge_preconditions(goal_gadget, solver)
        if pre is None:
            continue
        bindings.extend(pre.bindings)
        open_regs.extend(pre.regressed)
        mem_conds = [
            MemCondition(addr=addr, value=word)
            for mg in resolved.memory_goals
            for addr, word in mg.words()
        ]
        seeds.append(PartialPlan.initial(goal_gadget, open_regs, mem_conds, bindings))
    return seeds


def search_plans(
    library: GadgetLibrary,
    resolved: ResolvedGoal,
    *,
    solver: Optional[Solver] = None,
    config: Optional[PlannerConfig] = None,
    stats: Optional[SearchStats] = None,
    locator=None,
) -> List[PartialPlan]:
    """The complete plans, best-first (Algorithm 1).

    ``locator`` (value → static address of those bytes, or None)
    enables data-reuse providers; see
    :func:`repro.planner.conditions.provide_reg_condition`.
    """
    solver = solver or Solver()
    config = config or PlannerConfig()
    stats = stats if stats is not None else SearchStats()
    provisions = _Provisions(solver, locator, stats)

    counter = itertools.count()
    queue: List = []

    def push(plan: PartialPlan) -> None:
        stats.pushes += 1
        heapq.heappush(queue, (plan.priority_key(), next(counter), plan))

    complete: List[PartialPlan] = []
    with span("plan.search") as search_sp:
        for seed in _seed_plans(library, resolved, solver):
            stats.seeds += 1
            push(seed)

        while (
            queue
            and stats.nodes_expanded < config.max_nodes
            and len(complete) < config.max_plans
        ):
            _, _, plan = heapq.heappop(queue)
            if plan.is_complete:
                stats.plans_emitted += 1
                complete.append(plan)
                continue
            stats.nodes_expanded += 1
            asked = stats.provides
            tried = list(_expand(plan, plan.open_conds[0], library, provisions, config))
            successors = [successor for successor in tried if successor is not None]
            if not successors:
                stats.dead_ends += 1
                if tried:
                    stats.dead_threat += 1
                elif plan.num_steps >= config.max_steps:
                    stats.dead_step_cap += 1
                elif stats.provides > asked:
                    stats.dead_no_provision += 1
                else:
                    stats.dead_no_provider += 1
            for successor in successors:
                push(successor)

        for key, value in asdict(stats).items():
            search_sp.add(key, value)
    return complete


def _expand(
    plan: PartialPlan,
    open_cond: OpenCondition,
    library: GadgetLibrary,
    provisions: _Provisions,
    config: PlannerConfig,
) -> Iterator[Optional[PartialPlan]]:
    """Every successor ``open_cond`` gives ``plan``, in the order tried;
    None where a provision applied but the plan died of a threat or an
    ordering cycle."""
    condition = open_cond.condition
    if isinstance(condition, RegCondition):
        yield from _expand_reg(plan, open_cond, condition, library, provisions, config)
    elif isinstance(condition, MemCondition):
        yield from _expand_mem(plan, open_cond, condition, library, provisions, config)
    else:  # pragma: no cover - no other condition kinds
        raise AssertionError(condition)


def _expand_reg(
    plan: PartialPlan,
    open_cond: OpenCondition,
    condition: RegCondition,
    library: GadgetLibrary,
    provisions: _Provisions,
    config: PlannerConfig,
) -> Iterator[Optional[PartialPlan]]:
    stats = provisions.stats
    # (a) Reuse an existing step: either it already yields the value
    # (constant post), or it can be *made* to yield it by regressing
    # further entry conditions onto the same instance — how one ret2csu
    # dispatcher step provides rdi, rsi and rdx at once.
    for sid, step in plan.steps.items():
        if sid == open_cond.consumer or sid == GOAL_STEP:
            continue
        if condition.reg not in step.gadget.clob_regs:
            continue
        provision = provisions.reg(step.gadget, condition)
        if provision is None:
            continue
        already = plan.established_at(sid)
        if any(already.get(rc.reg, rc.value) != rc.value for rc in provision.regressed):
            continue  # conflicting demand on this instance's entry state
        new_regressed = tuple(
            rc for rc in provision.regressed if already.get(rc.reg) != rc.value
        )
        yield plan.reuse_provider_step(sid, open_cond, provision.bindings, new_regressed, stats)
    # (b) Instantiate a fresh provider from the library.
    if plan.num_steps >= config.max_steps:
        return
    produced = 0
    for gadget in library.providers_for(condition.reg):
        if produced >= config.providers_per_cond:
            break
        kind = library.kind_of(gadget)
        if kind is ChainKind.CONNECTOR:
            if plan.immediate_pre_goal is not None:
                continue
            if open_cond.consumer != GOAL_STEP:
                continue  # connectors only wire directly into the goal
        provision = provisions.reg(gadget, condition)
        if provision is None:
            continue
        regressed = provision.regressed
        bindings = provision.bindings
        if kind is ChainKind.CONNECTOR:
            # The connector's indirect jump must land on the goal gadget.
            tp = provisions.target(gadget, plan.steps[GOAL_STEP].gadget.location)
            if tp is None:
                continue
            bindings += tp.bindings
            regressed += tp.regressed
        successor = plan.add_provider_step(gadget, open_cond, bindings, regressed, stats)
        if successor is not None:
            if kind is ChainKind.CONNECTOR:
                successor.immediate_pre_goal = successor._next_sid - 1
            produced += 1
        yield successor


def _expand_mem(
    plan: PartialPlan,
    open_cond: OpenCondition,
    condition: MemCondition,
    library: GadgetLibrary,
    provisions: _Provisions,
    config: PlannerConfig,
) -> Iterator[Optional[PartialPlan]]:
    if plan.num_steps >= config.max_steps:
        return
    produced = 0
    for gadget in library.writers:
        if produced >= config.providers_per_cond:
            break
        if library.kind_of(gadget) is ChainKind.CONNECTOR:
            continue  # keep write steps freely orderable
        provision = provisions.mem(gadget, condition)
        if provision is None:
            continue
        successor = plan.add_provider_step(
            gadget, open_cond, provision.bindings, provision.regressed, provisions.stats
        )
        if successor is not None:
            produced += 1
        yield successor
