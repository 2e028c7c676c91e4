"""Subsumption testing — stage 2 of Gadget-Planner's workflow.

The extraction stage produces an enormous pool; this stage winnows it
to a minimal subset by removing redundant gadgets.  Gadget g1 subsumes
g2 when (Sec. IV-C, eqn. 1)::

    (pre_2 → pre_1)  ∧  (post_1 = post_2)

i.e. g1 computes the same post-state under a *looser* pre-condition,
so g2 can be dropped without shrinking the pool's expressiveness.

Checking all pairs with a solver is quadratic and slow, so the stage
first buckets gadgets by a *semantic fingerprint* — the post-state
evaluated on a handful of fixed pseudo-random input vectors.  Gadgets
in different buckets cannot have equal post-conditions; within a
bucket, equality is decided in three tiers:

1. syntactic identity (free);
2. random evaluation on 12 further sample vectors — any disagreement
   proves inequality; full agreement is accepted as equality.  (With
   independent 64-bit probes a false collision is vanishingly unlikely.
   On the six nflbench cold-sweep and census images, every post pair
   compared within a bucket is syntactically identical, so a solver
   proof of equality would send no query.)
3. pre-condition *implication* (the directional part of eqn. 1) is
   checked with the solver — sampling cannot prove implications.

Treating sampled equality as equality makes deduplication
probabilistic, which is safe here: a wrongly dropped gadget only
shrinks the pool (it can cost completeness, never soundness — every
emitted payload is validated by concrete execution).
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..isa.registers import ALL_REGS
from ..obs import metrics, span
from ..solver.solver import Solver
from ..symex.expr import Bool, bool_and, bool_not, eval_bool, eval_bv
from .record import GadgetRecord

_NUM_PROBES = 4

#: Conflict budget of the winnow's solver when the caller supplies none;
#: the planner's solver has the same budget, so ``nfl extract`` and
#: ``nfl plan`` winnow alike and share one cache entry.
WINNOW_MAX_CONFLICTS = 4000


def _probe_value(name: str, trial: int) -> int:
    """A deterministic pseudo-random 64-bit value per (symbol, trial)."""
    digest = hashlib.blake2b(f"{name}|{trial}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class _ProbeEnv(dict):
    """An env that lazily invents values for any symbol."""

    def __init__(self, trial: int):
        super().__init__()
        self.trial = trial

    def __missing__(self, key: str) -> int:
        value = _probe_value(key, self.trial)
        self[key] = value
        return value


def fingerprint(record: GadgetRecord) -> Tuple:
    """Semantic fingerprint: post-state sampled on fixed inputs."""
    samples = []
    for trial in range(_NUM_PROBES):
        env = _ProbeEnv(trial)
        regs = tuple(eval_bv(record.post_regs[r], env) for r in ALL_REGS)
        target = eval_bv(record.jump_target, env)
        samples.append((regs, target))
    # Structural effects must match exactly for interchangeability.
    effects = (
        record.end,
        len(record.mem_writes),
        tuple((w.width, w.stack_offset) for w in record.mem_writes),
    )
    return (tuple(samples), effects)


#: Extra sample vectors used to refute equivalence before any SAT call.
_REFUTE_TRIALS = tuple(range(_NUM_PROBES, _NUM_PROBES + 12))


def _sampled_equal(ea, eb) -> bool:
    """True when the two expressions agree on every refutation sample."""
    for trial in _REFUTE_TRIALS:
        env = _ProbeEnv(trial)
        if eval_bv(ea, env) != eval_bv(eb, env):
            return False
    return True


def _exprs_equal(ea, eb) -> bool:
    """Tiered equality: syntactic, then sampling."""
    return ea == eb or _sampled_equal(ea, eb)


def _posts_equal(a: GadgetRecord, b: GadgetRecord) -> bool:
    """post_a == post_b for every register and the jump target."""
    for r in ALL_REGS:
        if not _exprs_equal(a.post_regs[r], b.post_regs[r]):
            return False
    if not _exprs_equal(a.jump_target, b.jump_target):
        return False
    # Memory effects: compare syntactically (conservative).
    if len(a.mem_writes) != len(b.mem_writes):
        return False
    for wa, wb in zip(a.mem_writes, b.mem_writes):
        if (wa.addr, wa.value, wa.width) != (wb.addr, wb.value, wb.width):
            return False
    return True


#: Memo table type for pre-condition implication decisions: the key is
#: the normalized (stronger, weaker) pair of constraint tuples.
ImplicationMemo = Dict[Tuple[Tuple[Bool, ...], Tuple[Bool, ...]], bool]


def _pre_implies(
    weaker: Sequence[Bool],
    stronger: Sequence[Bool],
    solver: Solver,
    memo: Optional[ImplicationMemo] = None,
    stats: Optional["SubsumptionStats"] = None,
) -> bool:
    """Does ``stronger`` imply ``weaker``? (pre_2 → pre_1 in eqn. 1).

    Implication decisions recur heavily inside one winnow — the same
    handful of pre-condition lists shows up across a bucket's records —
    so with a ``memo`` the sampling + solver work runs once per
    normalized ``(pre₁, pre₂)`` pair.
    """
    if not weaker:
        return True  # an empty pre-condition is implied by anything
    if list(weaker) == list(stronger):
        return True
    if stats is not None:
        stats.implication_queries += 1
    key = None
    if memo is not None:
        key = (tuple(dict.fromkeys(stronger)), tuple(dict.fromkeys(weaker)))
        if key in memo:
            if stats is not None:
                stats.memo_hits += 1
            return memo[key]
    result = _pre_implies_uncached(weaker, stronger, solver)
    if key is not None:
        memo[key] = result
    return result


def _pre_implies_uncached(
    weaker: Sequence[Bool], stronger: Sequence[Bool], solver: Solver
) -> bool:
    # Sampling refutation: a vector satisfying `stronger` but not
    # `weaker` disproves the implication without any solver work.
    for trial in _REFUTE_TRIALS:
        env = _ProbeEnv(trial)
        try:
            if all(eval_bool(c, env) for c in stronger) and not all(
                eval_bool(c, env) for c in weaker
            ):
                return False
        except Exception:  # pragma: no cover - defensive
            break
    if not stronger:
        # TRUE → pre_1 requires pre_1 to be valid.
        return solver.prove(bool_and(*weaker))
    hypothesis = bool_and(*stronger)
    goal = bool_and(*weaker)
    return solver.check([hypothesis, bool_not(goal)]).is_unsat


def subsumes(
    g1: GadgetRecord,
    g2: GadgetRecord,
    solver: Optional[Solver] = None,
    *,
    memo: Optional[ImplicationMemo] = None,
    stats: Optional["SubsumptionStats"] = None,
) -> bool:
    """True iff g1 subsumes g2 per eqn. (1)."""
    solver = solver or Solver(max_conflicts=WINNOW_MAX_CONFLICTS)
    return _posts_equal(g1, g2) and _pre_implies(
        g1.pre_cond, g2.pre_cond, solver, memo, stats
    )


@dataclass
class SubsumptionStats:
    input_count: int = 0
    output_count: int = 0
    buckets: int = 0
    solver_checks: int = 0
    implication_queries: int = 0  # non-trivial pre-implication decisions
    memo_hits: int = 0  # answered from the implication memo
    cache_hits: int = 0  # persistent-cache lookups that short-circuited
    cache_misses: int = 0
    wall_total: float = 0.0

    @property
    def reduction_factor(self) -> float:
        if self.output_count == 0:
            return 1.0
        return self.input_count / self.output_count

    @property
    def memo_hit_rate(self) -> float:
        if not self.implication_queries:
            return 0.0
        return self.memo_hits / self.implication_queries

    @property
    def cache_hit(self) -> bool:
        return self.cache_hits > 0


def bucketize(records: Sequence[GadgetRecord]) -> List[List[GadgetRecord]]:
    """Group records into fingerprint buckets, in fingerprint
    first-occurrence order (the final stable location sort keeps that
    order among location ties)."""
    buckets: Dict[Tuple, List[GadgetRecord]] = defaultdict(list)
    for record in records:
        buckets[fingerprint(record)].append(record)
    out = list(buckets.values())
    size_histogram = metrics().histogram("winnow.bucket_size")
    for bucket in out:
        size_histogram.observe(len(bucket))
    return out


def winnow_bucket(
    bucket: Sequence[GadgetRecord],
    solver: Solver,
    stats: Optional[SubsumptionStats] = None,
    *,
    memo: Optional[ImplicationMemo] = None,
) -> List[GadgetRecord]:
    """Winnow one fingerprint bucket; records in different buckets
    never subsume each other."""
    # Candidate order: fewest preconditions first, then shortest —
    # the preferred representative wins ties cheaply.
    ordered = sorted(bucket, key=lambda g: (len(g.pre_cond), g.num_insns, g.location))
    kept: List[GadgetRecord] = []
    for record in ordered:
        dominated = False
        for keeper in kept:
            if stats is not None:
                stats.solver_checks += 1
            if subsumes(keeper, record, solver, memo=memo, stats=stats):
                dominated = True
                break
        if not dominated:
            kept.append(record)
    return kept


def winnow_buckets(
    buckets: Sequence[Sequence[GadgetRecord]],
    solver: Solver,
    stats: SubsumptionStats,
) -> List[GadgetRecord]:
    """Winnow buckets in order on one solver and one implication memo;
    survivors in bucket order."""
    memo: ImplicationMemo = {}
    survivors: List[GadgetRecord] = []
    with span("winnow.buckets.run") as sp:
        for bucket in buckets:
            survivors.extend(winnow_bucket(bucket, solver, stats, memo=memo))
        sp.add("buckets", len(buckets))
        sp.add("survivors", len(survivors))
        sp.add("solver_checks", stats.solver_checks)
    return survivors


def deduplicate_gadgets(
    records: Sequence[GadgetRecord],
    *,
    solver: Optional[Solver] = None,
    stats: Optional[SubsumptionStats] = None,
) -> List[GadgetRecord]:
    """Winnow the pool: keep one representative per equivalence class,
    preferring the loosest pre-condition, then the shortest gadget.

    This is the stage's one driver; :mod:`repro.pipeline` only puts the
    result cache in front of it.  Subsumption decisions depend only on
    the records and the solver's conflict budget.
    """
    solver = solver or Solver(max_conflicts=WINNOW_MAX_CONFLICTS)
    stats = stats if stats is not None else SubsumptionStats()
    stats.input_count = len(records)
    with span("winnow") as root:
        with span("winnow.bucketize") as bkt_sp:
            buckets = bucketize(records)
        bkt_sp.add("buckets", len(buckets))
        stats.buckets = len(buckets)
        with span("winnow.buckets") as run_sp:
            survivors = winnow_buckets(buckets, solver, stats)
            run_sp.add("solver_checks", stats.solver_checks)
            run_sp.add("memo_hits", stats.memo_hits)
        survivors.sort(key=lambda g: g.location)
        root.add("input", stats.input_count)
        root.add("output", len(survivors))
    stats.output_count = len(survivors)
    stats.wall_total += root.wall
    return survivors
