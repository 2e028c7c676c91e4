"""Unit tests for the partial-plan machinery: orderings, threats,
causal links, linearization — the α/β/γ/δ/ε bookkeeping of Sec. IV-D."""

import random

import pytest

from repro.binfmt import make_image
from repro.gadgets import ExtractionConfig, extract_gadgets
from repro.isa import Reg, assemble_unit
from repro.planner.conditions import RegCondition
from repro.fuzz.oracles import _ref_provide
from repro.planner.plan import GOAL_STEP, CausalLink, OpenCondition, PartialPlan, Step
from repro.planner.search import SearchStats
from repro.symex.expr import bv_const, bv_eq, bv_sym, expr_size


def gadget_pool():
    unit = assemble_unit(
        """
        hlt
    g_pop_rax:
        pop rax
        ret
    g_pop_rdi:
        pop rdi
        ret
    g_clob_rax:
        pop rdi
        mov rax, 0
        ret
    g_syscall:
        syscall
        ret
        """,
        base_addr=0x400000,
    )
    image = make_image(unit.code, symbols=dict(unit.labels))
    records = extract_gadgets(image, ExtractionConfig(probe_unaligned=False))
    by_label = {}
    for name, addr in unit.labels.items():
        for r in records:
            if r.location == addr:
                by_label[name] = r
                break
    return by_label


@pytest.fixture(scope="module")
def pool():
    return gadget_pool()


def snapshot(plan):
    """Every field of ``plan``, copied."""
    return (
        dict(plan.steps),
        dict(plan.closure),
        plan.orderings,
        plan.links,
        plan.open_conds,
        dict(plan.bindings),
        plan.load,
        plan.immediate_pre_goal,
        plan._next_sid,
    )


def initial_plan(pool, conds):
    return PartialPlan.initial(
        pool["g_syscall"],
        [RegCondition(reg, value) for reg, value in conds],
        [],
        [],
    )


def test_initial_plan_shape(pool):
    plan = initial_plan(pool, [(Reg.RAX, 59), (Reg.RDI, 0)])
    assert plan.num_steps == 1
    assert len(plan.open_conds) == 2
    assert not plan.is_complete
    assert GOAL_STEP in plan.steps


def test_add_provider_resolves_condition(pool):
    plan = initial_plan(pool, [(Reg.RAX, 59)])
    oc = plan.open_conds[0]
    new = plan.add_provider_step(pool["g_pop_rax"], oc, [], [])
    assert new is not None
    assert new.is_complete
    assert new.num_steps == 2
    assert len(new.links) == 1
    link = new.links[0]
    assert link.consumer == GOAL_STEP
    assert link.condition.reg == Reg.RAX


def test_ordering_cycle_rejected(pool):
    plan = initial_plan(pool, [(Reg.RAX, 59)])
    oc = plan.open_conds[0]
    new = plan.add_provider_step(pool["g_pop_rax"], oc, [], [])
    (provider_sid,) = [s for s in new.steps if s != GOAL_STEP]
    assert not new.can_order(GOAL_STEP, provider_sid)  # would cycle
    assert new.can_order(provider_sid, GOAL_STEP)  # already present
    # The goal cannot provide a condition of a step that runs before it.
    at_provider = OpenCondition(provider_sid, RegCondition(Reg.RDI, 1))
    assert new.reuse_provider_step(GOAL_STEP, at_provider) is None


def test_threat_resolution_orders_clobberer(pool):
    """g_clob_rax clobbers rax; it must be ordered before g_pop_rax
    (the rax provider) to keep the rax causal link safe."""
    plan = initial_plan(pool, [(Reg.RAX, 59), (Reg.RDI, 7)])
    rax_cond = next(c for c in plan.open_conds if c.condition.reg == Reg.RAX)
    with_rax = plan.add_provider_step(pool["g_pop_rax"], rax_cond, [], [])
    rax_sid = max(with_rax.steps)
    rdi_cond = next(c for c in with_rax.open_conds if c.condition.reg == Reg.RDI)
    final = with_rax.add_provider_step(pool["g_clob_rax"], rdi_cond, [], [])
    assert final is not None
    clob_sid = max(final.steps)
    # Threat resolved: the clobberer cannot sit between provider and goal.
    assert final.precedes(clob_sid, rax_sid) or final.precedes(GOAL_STEP, clob_sid)
    order = final.linearize()
    assert order.index(clob_sid) < order.index(rax_sid)


def test_linearize_goal_last(pool):
    plan = initial_plan(pool, [(Reg.RAX, 59)])
    oc = plan.open_conds[0]
    new = plan.add_provider_step(pool["g_pop_rax"], oc, [], [])
    order = new.linearize()
    assert order[-1] == GOAL_STEP


def test_established_values_tracks_links(pool):
    plan = initial_plan(pool, [(Reg.RAX, 59)])
    oc = plan.open_conds[0]
    new = plan.add_provider_step(pool["g_pop_rax"], oc, [], [])
    established = new.established_values()
    assert established[GOAL_STEP][Reg.RAX] == 59


def test_priority_key_prefers_fewer_open_conds(pool):
    two = initial_plan(pool, [(Reg.RAX, 59), (Reg.RDI, 0)])
    one = initial_plan(pool, [(Reg.RAX, 59)])
    assert one.priority_key() < two.priority_key()


def test_reuse_provider_step_adds_link(pool):
    plan = initial_plan(pool, [(Reg.RAX, 1), (Reg.RDI, 2)])
    rax_cond = next(c for c in plan.open_conds if c.condition.reg == Reg.RAX)
    with_step = plan.add_provider_step(pool["g_pop_rax"], rax_cond, [], [])
    sid = max(with_step.steps)
    rdi_cond = next(c for c in with_step.open_conds if c.condition.reg == Reg.RDI)
    # g_pop_rax does not clobber rdi, but the API accepts any reuse;
    # here we just confirm the bookkeeping.
    reused = with_step.reuse_provider_step(sid, rdi_cond)
    assert reused is not None
    assert reused.is_complete
    assert len(reused.links) == 2


def test_clone_isolation(pool):
    """A successor is a plan of its own: growing it leaves it as it was."""
    plan = initial_plan(pool, [(Reg.RAX, 59), (Reg.RDI, 7)])
    grown = plan.add_provider_step(pool["g_pop_rax"], plan.open_conds[0], [], [])
    before = snapshot(grown)
    grown.add_provider_step(pool["g_clob_rax"], grown.open_conds[0], [], [])
    assert snapshot(grown) == before
    assert plan.num_steps == 1
    assert grown.num_steps == 2
    assert len(plan.open_conds) == 2


def test_immediate_pre_goal_linearization(pool):
    plan = initial_plan(pool, [(Reg.RAX, 59), (Reg.RDI, 7)])
    rax_cond = next(c for c in plan.open_conds if c.condition.reg == Reg.RAX)
    p1 = plan.add_provider_step(pool["g_pop_rax"], rax_cond, [], [])
    rax_sid = max(p1.steps)
    rdi_cond = next(c for c in p1.open_conds if c.condition.reg == Reg.RDI)
    p2 = p1.add_provider_step(pool["g_pop_rdi"], rdi_cond, [], [])
    rdi_sid = max(p2.steps)
    p2.immediate_pre_goal = rdi_sid
    order = p2.linearize()
    assert order[-1] == GOAL_STEP
    assert order[-2] == rdi_sid


# ---------------------------------------------------------------------------
# β's transitive closure (one bitmask per step) against a DFS
# ---------------------------------------------------------------------------


def dfs_precedes(orderings, before, after):
    adjacency = {}
    for a, b in orderings:
        adjacency.setdefault(a, []).append(b)
    stack, seen = [before], {before}
    while stack:
        for nxt in adjacency.get(stack.pop(), ()):
            if nxt == after:
                return True
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def assert_closure_is_dfs(plan):
    for a in plan.steps:
        for b in plan.steps:
            assert plan.precedes(a, b) == dfs_precedes(plan.orderings, a, b), (a, b)
            assert plan.can_order(a, b) == (a != b and not dfs_precedes(plan.orderings, b, a))


def bare_plan(pool, n):
    steps = {sid: Step(sid, pool["g_pop_rax"]) for sid in range(n)}
    return PartialPlan(steps=steps, orderings=frozenset(), links=(), open_conds=(), bindings={})


@pytest.mark.parametrize("seed", range(40))
def test_closure_matches_dfs_on_random_orderings(pool, seed):
    """Adding an edge keeps the closure equal to DFS reachability, and
    ``can_order`` refuses exactly the edges that close a cycle; a plan
    built from the same orderings derives the same closure."""
    rng = random.Random(seed)
    n = rng.randrange(2, 10)
    plan = bare_plan(pool, n)
    for _ in range(rng.randrange(1, 30)):
        a, b = rng.randrange(n), rng.randrange(n)
        if not plan.can_order(a, b):
            assert a == b or dfs_precedes(plan.orderings, b, a)
            continue
        plan._order(a, b)
        assert (a, b) in plan.orderings
        assert_closure_is_dfs(plan)
    rebuilt = PartialPlan(
        steps=dict(plan.steps), orderings=plan.orderings, links=(), open_conds=(), bindings={}
    )
    assert rebuilt.closure == plan.closure


def test_closure_of_a_plan_built_like_the_sgc_baseline(pool):
    """The SGC baseline builds a complete plan directly: a total chain
    order plus every step before the goal.  Its closure is derived."""
    chain = [3, 1, 4, 2]
    steps = {GOAL_STEP: Step(GOAL_STEP, pool["g_syscall"])}
    steps.update({sid: Step(sid, pool["g_pop_rax"]) for sid in chain})
    orderings = {(a, b) for a, b in zip(chain, chain[1:])} | {(s, GOAL_STEP) for s in chain}
    plan = PartialPlan(
        steps=steps,
        orderings=frozenset(orderings),
        links=(),
        open_conds=(),
        bindings={GOAL_STEP: (), **{s: () for s in chain}},
    )
    assert_closure_is_dfs(plan)
    assert plan.precedes(3, 2) and plan.precedes(3, GOAL_STEP) and not plan.precedes(2, 3)
    assert plan.linearize() == chain + [GOAL_STEP]


def test_step_mutations_keep_closure_and_load(pool):
    plan = initial_plan(pool, [(Reg.RAX, 59), (Reg.RDI, 7)])
    rax_cond = next(c for c in plan.open_conds if c.condition.reg == Reg.RAX)
    binding = bv_eq(bv_sym("stk8"), bv_const(59))
    p1 = plan.add_provider_step(pool["g_pop_rax"], rax_cond, [binding], [])
    rdi_cond = next(c for c in p1.open_conds if c.condition.reg == Reg.RDI)
    p2 = p1.add_provider_step(pool["g_clob_rax"], rdi_cond, [], [])
    for p in (plan, p1, p2):
        assert_closure_is_dfs(p)
        assert p.constraint_load() == sum(
            expr_size(c) for cs in p.bindings.values() for c in cs
        )
    assert p1.constraint_load() == expr_size(binding) > 0


def test_threat_checks_are_counted_once_per_new_pair(pool):
    """Adding the rdi clobberer checks only the pairs it adds: the rax
    link against the new step, and the new rdi link against each
    step that clobbers rdi."""
    stats = SearchStats()
    plan = initial_plan(pool, [(Reg.RAX, 59), (Reg.RDI, 7)])
    rax_cond = next(c for c in plan.open_conds if c.condition.reg == Reg.RAX)
    p1 = plan.add_provider_step(pool["g_pop_rax"], rax_cond, [], [], stats)
    assert stats.threat_checks == 0  # one link, no other step clobbers rax
    rdi_cond = next(c for c in p1.open_conds if c.condition.reg == Reg.RDI)
    p1.add_provider_step(pool["g_clob_rax"], rdi_cond, [], [], stats)
    assert stats.threat_checks == 1  # (rax link, clobberer); nothing else clobbers rdi


# ---------------------------------------------------------------------------
# successors are built in one pass; threats resolve in place on them
# ---------------------------------------------------------------------------


def two_link_plan(pool, forced=False):
    """The goal s0 and a neutral step s1, then the links s2 (pop rdi)
    --[rdi]--> s1 and s3 (pop rax) --[rax]--> s0, in that order; rdx is
    open at the goal, and ``forced`` also orders s3 < s1.  Threat-free:
    no other step clobbers rdi or rax."""
    steps = {
        GOAL_STEP: Step(GOAL_STEP, pool["g_syscall"]),
        1: Step(1, pool["g_syscall"]),
        2: Step(2, pool["g_pop_rdi"]),
        3: Step(3, pool["g_pop_rax"]),
    }
    orderings = {(1, GOAL_STEP), (2, 1), (3, GOAL_STEP)} | ({(3, 1)} if forced else set())
    return PartialPlan(
        steps=steps,
        orderings=frozenset(orderings),
        links=(
            CausalLink(2, 1, RegCondition(Reg.RDI, 1)),
            CausalLink(3, GOAL_STEP, RegCondition(Reg.RAX, 2)),
        ),
        open_conds=(OpenCondition(GOAL_STEP, RegCondition(Reg.RDX, 3)),),
        bindings={sid: () for sid in steps},
        _next_sid=4,
    )


def test_a_step_threatening_two_links_demotes_then_promotes(pool):
    """A fresh clobberer of rdi and rax threatens both links.  The rdi
    link is demoted (s1 < s4); after that only promotion (s4 < s3) can
    resolve the rax link into the goal.  The orderings are the
    rescanning reference's, and each (link, step) pair is checked once."""
    plan = two_link_plan(pool)
    oc = plan.open_conds[0]
    stats = SearchStats()
    grown = plan.add_provider_step(pool["g_clob_rax"], oc, [], [], stats)
    want = _ref_provide(plan, 4, pool["g_clob_rax"], oc, [], [])
    assert grown is not None and want is not None
    assert grown.orderings == want.orderings
    assert grown.orderings - plan.orderings == {(4, GOAL_STEP), (1, 4), (4, 3)}
    assert stats.threat_checks == 2  # nothing else clobbers rdx
    assert_closure_is_dfs(grown)


def test_a_threat_no_ordering_resolves_kills_the_plan(pool):
    """Demotion first can leave a later threat with no resolution: the
    plan dies (promoting first would have kept it), as it does under
    the rescanning reference, after both pairs are checked."""
    # s1 runs after s3, so demoting the rdi link (s1 < s4) forces
    # s3 < s4, and the rax link into the goal can no longer be resolved.
    plan = two_link_plan(pool, forced=True)
    oc = plan.open_conds[0]
    stats = SearchStats()
    assert plan.add_provider_step(pool["g_clob_rax"], oc, [], [], stats) is None
    assert _ref_provide(plan, 4, pool["g_clob_rax"], oc, [], []) is None
    assert stats.threat_checks == 2


def reuse_plan(pool, forced):
    """s1 (pop rax) --[rax]--> s0 and s2 (pop rdi) before the goal, with
    rdi open at the goal; ``forced`` also orders s1 < s2."""
    steps = {
        GOAL_STEP: Step(GOAL_STEP, pool["g_syscall"]),
        1: Step(1, pool["g_pop_rax"]),
        2: Step(2, pool["g_pop_rdi"]),
    }
    orderings = {(1, GOAL_STEP), (2, GOAL_STEP)} | ({(1, 2)} if forced else set())
    return PartialPlan(
        steps=steps,
        orderings=frozenset(orderings),
        links=(CausalLink(1, GOAL_STEP, RegCondition(Reg.RAX, 2)),),
        open_conds=(OpenCondition(GOAL_STEP, RegCondition(Reg.RDI, 1)),),
        bindings={sid: () for sid in steps},
        _next_sid=3,
    )


@pytest.mark.parametrize("live", [True, False])
def test_mutations_leave_their_parent_unchanged(pool, live):
    """Both mutations write only into the plan they build, whether it
    lives or dies of a threat: every field of the parent is as it was."""
    binding = bv_eq(bv_sym("stk8"), bv_const(7))
    cases = [
        (two_link_plan(pool, forced=not live), "add"),
        (reuse_plan(pool, forced=not live), "reuse"),
    ]
    for plan, kind in cases:
        before = snapshot(plan)
        oc = plan.open_conds[0]
        if kind == "add":
            grown = plan.add_provider_step(
                pool["g_clob_rax"], oc, [binding], [RegCondition(Reg.RAX, 5)]
            )
        else:
            grown = plan.reuse_provider_step(1, oc, (binding,), (RegCondition(Reg.RSI, 5),))
        assert (grown is not None) == live, kind
        assert snapshot(plan) == before, kind
        if grown is not None:
            assert grown.closure is not plan.closure
            assert_closure_is_dfs(grown)
