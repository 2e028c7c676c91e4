"""Partial plan representation — the paper's (α, β, γ, δ, ε) tuple.

* α — :attr:`PartialPlan.steps`: gadget instances selected so far;
* β — :attr:`PartialPlan.orderings`: pairs (before, after);
* γ — :attr:`PartialPlan.links`: causal links (provider, consumer, condition);
* δ — :attr:`PartialPlan.open_conds`: conditions not yet fulfilled;
* ε — threats are resolved eagerly on every mutation (promotion /
  demotion, Sec. IV-D "Unsafe Causal Link Elimination"); a plan that
  cannot resolve a threat is discarded by returning ``None``.  Only the
  pairs a mutation adds are checked: the plan it starts from is
  threat-free, and orderings only grow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..isa.registers import Reg
from ..symex.expr import Bool, expr_size
from ..gadgets.record import GadgetRecord
from .conditions import MemCondition, RegCondition

GOAL_STEP = 0  # the goal (syscall) step always has id 0


@dataclass(frozen=True)
class Step:
    sid: int
    gadget: GadgetRecord

    def clobbers(self, reg: Reg) -> bool:
        return reg in self.gadget.clob_regs

    def __str__(self) -> str:
        return f"s{self.sid}:{self.gadget}"


@dataclass(frozen=True)
class CausalLink:
    provider: int
    consumer: int
    condition: RegCondition

    def __str__(self) -> str:
        return f"s{self.provider} --[{self.condition}]--> s{self.consumer}"


@dataclass(frozen=True)
class OpenCondition:
    consumer: int
    condition: object  # RegCondition | MemCondition

    def __str__(self) -> str:
        return f"{self.condition} @ s{self.consumer}"


@dataclass
class PartialPlan:
    """One (possibly incomplete) attack plan.

    Two summaries are carried along with the tuple and kept current by
    every mutation; a plan built directly derives them in
    ``__post_init__``:

    * ``closure`` — β's transitive closure, one bitmask per step: bit
      ``t`` of ``closure[s]`` is set when the orderings force s before t;
    * ``load`` — the total :func:`expr_size` of the bindings, the second
      heuristic key.

    A mutation builds its successor in one pass, resolving threats in
    place on it.  Nothing writes into a returned plan's dicts, so a
    successor shares those it does not change with its parent.
    """

    steps: Dict[int, Step]
    orderings: FrozenSet[Tuple[int, int]]
    links: Tuple[CausalLink, ...]
    open_conds: Tuple[OpenCondition, ...]
    #: Per-step payload-word constraints (local stk syms of that step).
    bindings: Dict[int, Tuple[Bool, ...]]
    #: Step that must immediately precede the goal (indirect connector).
    immediate_pre_goal: Optional[int] = None
    _next_sid: int = 1
    closure: Optional[Dict[int, int]] = None
    load: Optional[int] = None

    def __post_init__(self) -> None:
        if self.closure is None:
            self.closure = {sid: 0 for sid in self.steps}
            for before, after in self.orderings:
                self._close(before, after)
        if self.load is None:
            self.load = sum(expr_size(c) for cs in self.bindings.values() for c in cs)

    # -- constructors -----------------------------------------------------

    @classmethod
    def initial(
        cls,
        goal_gadget: GadgetRecord,
        goal_conds: List[RegCondition],
        mem_conds: List[MemCondition],
        goal_bindings: List[Bool],
    ) -> "PartialPlan":
        goal_step = Step(sid=GOAL_STEP, gadget=goal_gadget)
        opens = tuple(OpenCondition(GOAL_STEP, c) for c in goal_conds) + tuple(
            OpenCondition(GOAL_STEP, c) for c in mem_conds
        )
        return cls(
            steps={GOAL_STEP: goal_step},
            orderings=frozenset(),
            links=(),
            open_conds=opens,
            bindings={GOAL_STEP: tuple(goal_bindings)},
        )

    # -- ordering machinery ------------------------------------------------

    def _close(self, before: int, after: int) -> None:
        """Fold the edge before<after into ``closure`` (in place, so only
        on a plan no one else holds yet)."""
        closure = self.closure
        closure.setdefault(before, 0)
        gained = (1 << after) | closure.setdefault(after, 0)
        bit = 1 << before
        for sid, mask in closure.items():
            if sid == before or mask & bit:
                closure[sid] = mask | gained

    def precedes(self, before: int, after: int) -> bool:
        """Do the orderings force ``before`` to run before ``after``?"""
        return bool(self.closure.get(before, 0) >> after & 1)

    def can_order(self, before: int, after: int) -> bool:
        """Would adding before<after keep the orderings acyclic?"""
        return before != after and not self.precedes(after, before)

    # -- step addition ------------------------------------------------------------

    def add_provider_step(
        self,
        gadget: GadgetRecord,
        open_cond: OpenCondition,
        bindings: Sequence[Bool],
        regressed: Sequence[RegCondition],
        stats=None,
        load: Optional[int] = None,
    ) -> Optional["PartialPlan"]:
        """Insert a fresh step providing ``open_cond``; ``load`` is the
        bindings' total :func:`expr_size` when the caller knows it."""
        sid = self._next_sid
        consumer = open_cond.consumer
        closure = dict(self.closure)
        # A fresh step has no predecessor: sid<consumer changes its row only.
        closure[sid] = (1 << consumer) | closure[consumer]
        new = PartialPlan(
            steps={**self.steps, sid: Step(sid=sid, gadget=gadget)},
            orderings=self.orderings | {(sid, consumer)},
            links=self.links,
            open_conds=self.open_conds,
            bindings={**self.bindings, sid: tuple(bindings)},
            immediate_pre_goal=self.immediate_pre_goal,
            _next_sid=sid + 1,
            closure=closure,
            load=self.load + (sum(expr_size(c) for c in bindings) if load is None else load),
        )
        return new._link(sid, open_cond, regressed, True, stats)

    def reuse_provider_step(
        self,
        sid: int,
        open_cond: OpenCondition,
        extra_bindings: Tuple[Bool, ...] = (),
        extra_regressed: Tuple[RegCondition, ...] = (),
        stats=None,
    ) -> Optional["PartialPlan"]:
        """Link an existing step as provider for ``open_cond``.

        A multi-effect gadget instance (e.g. the ret2csu ``mov rdx, r14;
        mov rsi, r13; mov rdi, r12; call r15`` dispatcher) provides
        several conditions from one step: each reuse may contribute
        further payload bindings and regress further entry conditions.
        """
        consumer = open_cond.consumer
        if not self.can_order(sid, consumer):
            return None
        bindings, load = self.bindings, self.load
        if extra_bindings:
            bindings = {**bindings, sid: tuple(bindings.get(sid, ())) + tuple(extra_bindings)}
            load += sum(expr_size(c) for c in extra_bindings)
        new = PartialPlan(
            steps=self.steps,
            orderings=self.orderings,
            links=self.links,
            open_conds=self.open_conds,
            bindings=bindings,
            immediate_pre_goal=self.immediate_pre_goal,
            _next_sid=self._next_sid,
            closure=dict(self.closure),
            load=load,
        )
        if (sid, consumer) not in new.orderings:
            new._order(sid, consumer)
        return new._link(sid, open_cond, extra_regressed, False, stats)

    def _order(self, before: int, after: int) -> None:
        """Add before<after to β, in place (a plan no one else holds yet)."""
        self.orderings = self.orderings | {(before, after)}
        self._close(before, after)

    def _link(
        self,
        sid: int,
        open_cond: OpenCondition,
        regressed: Sequence[RegCondition],
        fresh: bool,
        stats,
    ) -> Optional["PartialPlan"]:
        """Make ``sid`` (a step just added when ``fresh``) ``open_cond``'s
        provider on this plan, which no one else holds yet, and order away
        every threat that makes (ε elimination); None when one cannot be.

        Only the (link, step) pairs this adds are checked, in that order:
        the old links against a fresh step, then the new link against
        every step.  The plan this grew from is threat-free and orderings
        only grow, so a pair that was no threat before stays none.  For a
        link p --[reg]--> c and a step s ∉ {p, c} that clobbers reg and
        could sit between them, force c<s (demotion) or, failing that,
        s<p (promotion).  ``stats`` (the search's
        :class:`~repro.planner.search.SearchStats`) counts the pairs checked.
        """
        steps, old_links = self.steps, self.links
        pairs: List[Tuple[CausalLink, int]] = []
        if fresh:
            clobbered = steps[sid].gadget.clob_regs
            pairs = [(link, sid) for link in old_links if link.condition.reg in clobbered]
        condition = open_cond.condition
        if isinstance(condition, RegCondition):
            link = CausalLink(provider=sid, consumer=open_cond.consumer, condition=condition)
            self.links = old_links + (link,)
            reg = condition.reg
            pairs += [
                (link, s)
                for s, step in steps.items()
                if s != sid and s != link.consumer and reg in step.gadget.clob_regs
            ]
        self.open_conds = tuple(c for c in self.open_conds if c is not open_cond) + tuple(
            OpenCondition(sid, rc) for rc in regressed
        )
        plan: Optional[PartialPlan] = self
        closure = self.closure
        checks = 0
        for link, s in pairs:
            checks += 1
            p, c = link.provider, link.consumer
            if closure[s] >> p & 1 or closure[c] >> s & 1:
                continue  # s cannot sit between p and c
            if not closure[s] >> c & 1:
                self._order(c, s)
            elif not closure[p] >> s & 1:
                self._order(s, p)
            else:
                plan = None  # unresolvable threat → dead plan
                break
        if stats is not None:
            stats.threat_checks += checks
        return plan

    def established_at(self, sid: int) -> Dict[Reg, int]:
        """Register values already demanded at step ``sid``'s entry."""
        out: Dict[Reg, int] = {}
        for link in self.links:
            if link.consumer == sid:
                out[link.condition.reg] = link.condition.value
        for oc in self.open_conds:
            if oc.consumer == sid and isinstance(oc.condition, RegCondition):
                out[oc.condition.reg] = oc.condition.value
        return out

    # -- introspection --------------------------------------------------------------

    @property
    def is_complete(self) -> bool:
        return not self.open_conds

    @property
    def connector_misplaced(self) -> bool:
        """Is the connector ordered before a step other than the goal?

        The connector must run right before the goal, so such a plan and
        every plan grown from it (orderings only grow) never linearize.
        A plan without this flaw that is complete always does.
        """
        connector = self.immediate_pre_goal
        return connector is not None and bool(self.closure[connector] & ~(1 << GOAL_STEP))

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def constraint_load(self) -> int:
        """Total constraint size — the paper's second heuristic key."""
        return self.load

    def priority_key(self) -> Tuple[int, int, int]:
        """Heuristic ordering: fewest open conditions, then fewest/simplest
        constraints, then fewest steps (Sec. IV-D "Heuristics")."""
        return (len(self.open_conds), self.constraint_load(), self.num_steps)

    def established_values(self) -> Dict[int, Dict[Reg, int]]:
        """Per-consumer register values guaranteed by causal links."""
        out: Dict[int, Dict[Reg, int]] = {}
        for link in self.links:
            out.setdefault(link.consumer, {})[link.condition.reg] = link.condition.value
        return out

    def linearize(self) -> Optional[List[int]]:
        """A total order consistent with β, goal last, connector adjacent.

        Returns step ids in execution order (goal step included, last),
        or None when constraints cannot be met.
        """
        sids = [s for s in self.steps if s != GOAL_STEP]
        adjacency: Dict[int, Set[int]] = {s: set() for s in self.steps}
        indegree: Dict[int, int] = {s: 0 for s in self.steps}
        for a, b in self.orderings:
            if b not in adjacency[a]:
                adjacency[a].add(b)
                indegree[b] += 1
        # Kahn's algorithm; defer the connector and the goal as long as
        # possible so the connector lands immediately before the goal.
        order: List[int] = []
        ready = [s for s in self.steps if indegree[s] == 0]
        deferred = {GOAL_STEP, self.immediate_pre_goal} - {None}
        while ready:
            # Deferred steps go last; among them the goal goes very last.
            ready.sort(key=lambda s: (s in deferred, s == GOAL_STEP, s))
            node = ready.pop(0)
            order.append(node)
            for nxt in adjacency[node]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(self.steps):
            return None  # cycle (should not happen)
        if order[-1] != GOAL_STEP:
            return None
        if self.immediate_pre_goal is not None and len(order) >= 2:
            if order[-2] != self.immediate_pre_goal:
                return None
        return order
