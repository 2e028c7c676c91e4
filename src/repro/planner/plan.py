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
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

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

    def clone(self) -> "PartialPlan":
        return PartialPlan(
            steps=dict(self.steps),
            orderings=self.orderings,
            links=self.links,
            open_conds=self.open_conds,
            bindings=dict(self.bindings),
            immediate_pre_goal=self.immediate_pre_goal,
            _next_sid=self._next_sid,
            closure=dict(self.closure),
            load=self.load,
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

    def with_ordering(self, before: int, after: int) -> Optional["PartialPlan"]:
        if (before, after) in self.orderings:
            return self
        if not self.can_order(before, after):
            return None
        new = self.clone()
        new.orderings = self.orderings | {(before, after)}
        new._close(before, after)
        return new

    def possibly_between(self, step: int, before: int, after: int) -> bool:
        """Could ``step`` be linearized strictly between before and after?"""
        if step in (before, after):
            return False
        if self.precedes(step, before):
            return False  # step must come before `before`
        if self.precedes(after, step):
            return False  # step must come after `after`
        return True

    # -- threat resolution ----------------------------------------------------

    def _new_threats(
        self, old_links: int, new_step: Optional[int]
    ) -> Iterator[Tuple[CausalLink, int]]:
        """The (link, step) pairs a mutation can have made threats, in
        (link, step) order: every link against ``new_step``, and each
        link from index ``old_links`` on against every step.

        Every plan a mutation starts from is threat-free, and orderings
        only grow, so a pair that was no threat before stays none.
        """
        for index, link in enumerate(self.links):
            if index >= old_links:
                sids: Iterable[int] = self.steps
            elif new_step is not None:
                sids = (new_step,)
            else:
                continue
            reg = link.condition.reg
            for sid in sids:
                if sid not in (link.provider, link.consumer) and self.steps[sid].clobbers(reg):
                    yield link, sid

    def _resolve_threats(
        self, pairs: Iterable[Tuple[CausalLink, int]], stats=None
    ) -> Optional["PartialPlan"]:
        """Order away every unsafe causal link among ``pairs`` (ε elimination).

        For a link p --[reg]--> c and a step s ∉ {p, c} that clobbers
        reg and could sit between them, force c<s (demotion) or, failing
        that, s<p (promotion).  A resolved pair stays resolved, so the
        scan goes on from the pair after it.  Returns None when a threat
        cannot be resolved.  ``stats`` (the search's
        :class:`~repro.planner.search.SearchStats`) counts the pairs checked.
        """
        plan: Optional[PartialPlan] = self
        checks = 0
        for link, sid in pairs:
            checks += 1
            if not plan.possibly_between(sid, link.provider, link.consumer):
                continue
            resolved = plan.with_ordering(link.consumer, sid)
            if resolved is None:
                resolved = plan.with_ordering(sid, link.provider)
            plan = resolved
            if plan is None:
                break  # unresolvable threat → dead plan
        if stats is not None:
            stats.threat_checks += checks
        return plan

    # -- step addition ------------------------------------------------------------

    def add_provider_step(
        self,
        gadget: GadgetRecord,
        open_cond: OpenCondition,
        bindings: Sequence[Bool],
        regressed: Sequence[RegCondition],
        stats=None,
    ) -> Optional["PartialPlan"]:
        """Insert a fresh step providing ``open_cond``."""
        new = self.clone()
        sid = new._next_sid
        new._next_sid += 1
        new.steps[sid] = Step(sid=sid, gadget=gadget)
        new.orderings = new.orderings | {(sid, open_cond.consumer)}
        new._close(sid, open_cond.consumer)
        if isinstance(open_cond.condition, RegCondition):
            new.links = new.links + (
                CausalLink(provider=sid, consumer=open_cond.consumer, condition=open_cond.condition),
            )
        new.open_conds = tuple(c for c in new.open_conds if c is not open_cond) + tuple(
            OpenCondition(sid, rc) for rc in regressed
        )
        new.bindings[sid] = tuple(bindings)
        new.load += sum(expr_size(c) for c in bindings)
        return new._resolve_threats(new._new_threats(len(self.links), sid), stats)

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
        ordered = self.with_ordering(sid, open_cond.consumer)
        if ordered is None:
            return None
        new = ordered.clone()
        if isinstance(open_cond.condition, RegCondition):
            new.links = new.links + (
                CausalLink(provider=sid, consumer=open_cond.consumer, condition=open_cond.condition),
            )
        new.open_conds = tuple(c for c in new.open_conds if c is not open_cond) + tuple(
            OpenCondition(sid, rc) for rc in extra_regressed
        )
        if extra_bindings:
            new.bindings[sid] = tuple(new.bindings.get(sid, ())) + tuple(extra_bindings)
            new.load += sum(expr_size(c) for c in extra_bindings)
        return new._resolve_threats(new._new_threats(len(self.links), None), stats)

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
