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
from dataclasses import dataclass
from typing import Iterator, List, Optional

from ..obs import span
from ..solver.solver import Solver
from .conditions import (
    MemCondition,
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
    nodes_expanded: int = 0
    plans_emitted: int = 0
    dead_ends: int = 0
    seeds: int = 0


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

    counter = itertools.count()
    queue: List = []

    def push(plan: PartialPlan) -> None:
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
            open_cond = plan.open_conds[0]
            successors = list(_expand(plan, open_cond, library, solver, config, locator))
            if not successors:
                stats.dead_ends += 1
            for successor in successors:
                push(successor)

        search_sp.add("seeds", stats.seeds)
        search_sp.add("nodes_expanded", stats.nodes_expanded)
        search_sp.add("plans_emitted", stats.plans_emitted)
        search_sp.add("dead_ends", stats.dead_ends)
    return complete


def _expand(
    plan: PartialPlan,
    open_cond: OpenCondition,
    library: GadgetLibrary,
    solver: Solver,
    config: PlannerConfig,
    locator=None,
) -> Iterator[PartialPlan]:
    condition = open_cond.condition
    if isinstance(condition, RegCondition):
        yield from _expand_reg(plan, open_cond, condition, library, solver, config, locator)
    elif isinstance(condition, MemCondition):
        yield from _expand_mem(plan, open_cond, condition, library, solver, config)
    else:  # pragma: no cover - no other condition kinds
        raise AssertionError(condition)


def _expand_reg(
    plan: PartialPlan,
    open_cond: OpenCondition,
    condition: RegCondition,
    library: GadgetLibrary,
    solver: Solver,
    config: PlannerConfig,
    locator=None,
) -> Iterator[PartialPlan]:
    # (a) Reuse an existing step: either it already yields the value
    # (constant post), or it can be *made* to yield it by regressing
    # further entry conditions onto the same instance — how one ret2csu
    # dispatcher step provides rdi, rsi and rdx at once.
    for sid, step in plan.steps.items():
        if sid == open_cond.consumer or sid == GOAL_STEP:
            continue
        if condition.reg not in step.gadget.clob_regs:
            continue
        provision = provide_reg_condition(step.gadget, condition, solver, locator=locator)
        if provision is None:
            continue
        already = plan.established_at(sid)
        if any(already.get(rc.reg, rc.value) != rc.value for rc in provision.regressed):
            continue  # conflicting demand on this instance's entry state
        new_regressed = tuple(
            rc for rc in provision.regressed if already.get(rc.reg) != rc.value
        )
        reused = plan.reuse_provider_step(
            sid, open_cond, tuple(provision.bindings), new_regressed
        )
        if reused is not None:
            yield reused
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
        provision = provide_reg_condition(gadget, condition, solver, locator=locator)
        if provision is None:
            continue
        regressed = list(provision.regressed)
        bindings = list(provision.bindings)
        if kind is ChainKind.CONNECTOR:
            # The connector's indirect jump must land on the goal gadget.
            tp = target_provision(gadget, plan.steps[GOAL_STEP].gadget.location, solver)
            if tp is None:
                continue
            bindings.extend(tp.bindings)
            regressed.extend(tp.regressed)
        successor = plan.add_provider_step(gadget, open_cond, bindings, regressed)
        if successor is None:
            continue
        if kind is ChainKind.CONNECTOR:
            successor.immediate_pre_goal = successor._next_sid - 1
        produced += 1
        yield successor


def _expand_mem(
    plan: PartialPlan,
    open_cond: OpenCondition,
    condition: MemCondition,
    library: GadgetLibrary,
    solver: Solver,
    config: PlannerConfig,
) -> Iterator[PartialPlan]:
    if plan.num_steps >= config.max_steps:
        return
    produced = 0
    for gadget in library.writers:
        if produced >= config.providers_per_cond:
            break
        if library.kind_of(gadget) is ChainKind.CONNECTOR:
            continue  # keep write steps freely orderable
        provision = provide_mem_condition(gadget, condition, solver)
        if provision is None:
            continue
        successor = plan.add_provider_step(
            gadget, open_cond, list(provision.bindings), list(provision.regressed)
        )
        if successor is not None:
            produced += 1
            yield successor
