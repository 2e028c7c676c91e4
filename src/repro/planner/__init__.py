"""Gadget-Planner — the paper's contribution, end to end.

:class:`GadgetPlanner` drives the four-stage workflow of Fig. 3:

1. **Gadget extraction** (:mod:`repro.gadgets.extract`),
2. **Subsumption testing** (:mod:`repro.gadgets.subsumption`),
3. **Partial-order planning** (:mod:`repro.planner.search`),
4. **Post-processing** (:mod:`repro.planner.payload`): payload assembly
   plus concrete validation in the emulator.

Example::

    from repro.planner import GadgetPlanner
    planner = GadgetPlanner(image)
    report = planner.run()
    for payload in report.payloads:
        print(payload.describe())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from ..binfmt.image import BinaryImage
from ..obs import span
from ..solver.solver import Solver
from ..gadgets.extract import ExtractionConfig, ExtractionStats
from ..gadgets.subsumption import WINNOW_MAX_CONFLICTS, SubsumptionStats
from ..pipeline.cache import ResultCache
from ..pipeline.stages import run_pipeline
from .conditions import MemCondition, RegCondition
from .goals import (
    AttackGoal,
    MemoryGoal,
    Pointer,
    ResolvedGoal,
    execve_goal,
    find_bytes_in_image,
    mmap_goal,
    mprotect_goal,
    resolve_goal,
    standard_goals,
)
from .library import ChainKind, GadgetLibrary, chain_kind
from .payload import AssemblyError, AttackPayload, assemble_payload, validate_payload
from .plan import CausalLink, OpenCondition, PartialPlan, Step
from .search import PlannerConfig, SearchStats, search_plans

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..defenses.policy import DefensePolicy
    from ..defenses.survive import SurvivalCensus


@dataclass
class StageTimings:
    """Wall-clock per stage (Table VII).

    Extraction and subsumption are the stage stats' ``wall_total`` (the
    ``extract`` / ``winnow`` spans plus their cache spans); planning and
    post-processing are the ``plan.goals`` / ``plan.assemble`` span
    walls.  The report and a ``--trace`` export therefore agree.
    """

    extraction: float = 0.0
    subsumption: float = 0.0
    planning: float = 0.0
    postprocessing: float = 0.0

    @property
    def total(self) -> float:
        return self.extraction + self.subsumption + self.planning + self.postprocessing


@dataclass
class PlannerReport:
    """Everything the evaluation tables need from one run."""

    gadgets_total: int = 0
    gadgets_after_subsumption: int = 0
    library_size: int = 0
    payloads: List[AttackPayload] = field(default_factory=list)
    per_goal: Dict[str, int] = field(default_factory=dict)
    timings: StageTimings = field(default_factory=StageTimings)
    extraction_stats: ExtractionStats = field(default_factory=ExtractionStats)
    subsumption_stats: SubsumptionStats = field(default_factory=SubsumptionStats)
    search_stats: Dict[str, SearchStats] = field(default_factory=dict)
    #: Defense-aware runs only (``GadgetPlanner(defense=...)``):
    defense_policy: Optional[str] = None
    gadgets_surviving: Optional[int] = None
    survival: Optional["SurvivalCensus"] = None
    #: Payloads that assembled and reached execution but were stopped by
    #: the enforced policy (CFI/shadow violation, vetoed syscall, or an
    #: ASLR miss) — the "reclaimed" part of the attack surface.
    blocked_by_defense: int = 0
    #: Leak-oracle queries consumed across validated payloads (ASLR).
    leaks_used: int = 0

    @property
    def total_payloads(self) -> int:
        return len(self.payloads)

    def gadgets_used(self) -> int:
        return sum(len(p.chain) for p in self.payloads)


class GadgetPlanner:
    """The full pipeline against one binary image.

    ``jobs`` is accepted and ignored: the pipeline always runs in this
    process.  It is kept only because the benchmark
    (``nflbench/workloads.py`` and ``nflbench/reference.py``) still
    passes it; no other caller may.
    """

    def __init__(
        self,
        image: BinaryImage,
        *,
        extraction: Optional[ExtractionConfig] = None,
        planner: Optional[PlannerConfig] = None,
        solver: Optional[Solver] = None,
        validate: bool = True,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        defense: Optional["DefensePolicy"] = None,
    ) -> None:
        self.image = image
        self.extraction_config = extraction or ExtractionConfig()
        self.planner_config = planner or PlannerConfig()
        # A policy with nothing enabled is the no-defense fast path:
        # extraction, winnowing, planning and validation all take the
        # exact historical route (byte-identical pools and payloads).
        self.defense = defense if defense is not None and defense.enabled else None
        # A tight conflict budget: planner queries are overwhelmingly
        # easy; a hard one returning UNKNOWN just skips that provider.
        self.solver = solver or Solver(max_conflicts=WINNOW_MAX_CONFLICTS)
        self.validate = validate
        self.cache = cache
        self._locate_cache: Dict[int, Optional[int]] = {}

    def _word_locator(self, value: int) -> Optional[int]:
        """A static address whose 8 bytes hold ``value`` (data-reuse)."""
        value &= (1 << 64) - 1
        if value not in self._locate_cache:
            self._locate_cache[value] = find_bytes_in_image(self.image, value.to_bytes(8, "little"))
        return self._locate_cache[value]

    def _validate(self, payload, resolved, targets, report: PlannerReport) -> bool:
        """Validate ``payload``, under the defense when there is one,
        and count the runs the defense blocked."""
        if self.defense is None:
            return validate_payload(self.image, payload, resolved)
        from ..defenses.enforce import validate_payload_with_policy

        run = validate_payload_with_policy(
            self.image, payload, resolved, self.defense, targets=targets
        )
        payload.validated = run.ok
        payload.event = run.event
        payload.leak_steps = run.leaks_used
        if run.ok:
            report.leaks_used += run.leaks_used
        elif run.blocked:
            report.blocked_by_defense += 1
        return run.ok

    def run(self, goals: Optional[Sequence[AttackGoal]] = None) -> PlannerReport:
        report = PlannerReport()
        goals = list(goals) if goals is not None else standard_goals(self.image)
        cfi_targets = None
        if self.defense is not None:
            report.defense_policy = self.defense.name

        with span("plan") as plan_root:
            _, deduped = run_pipeline(
                self.image,
                self.extraction_config,
                cache=self.cache,
                solver=self.solver,
                extraction_stats=report.extraction_stats,
                winnow_stats=report.subsumption_stats,
            )
            report.gadgets_total = report.extraction_stats.records
            report.gadgets_after_subsumption = len(deduped)
            report.timings.extraction = report.extraction_stats.wall_total
            report.timings.subsumption = report.subsumption_stats.wall_total

            if self.defense is not None:
                # A pure post-filter over the winnowed pool: the cached
                # pools above are shared across policies untouched.
                from ..defenses.cfi import shared_cfi_targets
                from ..defenses.policy import CFIMode
                from ..defenses.survive import SurvivalCensus, filter_pool

                with span("plan.defense_filter") as def_sp:
                    if self.defense.cfi is not CFIMode.OFF:
                        hits = shared_cfi_targets.cache_info().hits
                        cfi_targets = shared_cfi_targets(self.image.to_bytes())
                        def_sp.add("cfi_memo_hits", shared_cfi_targets.cache_info().hits - hits)
                    report.survival = SurvivalCensus(policy=self.defense.name)
                    deduped = filter_pool(
                        self.defense, deduped, targets=cfi_targets, census=report.survival
                    )
                    report.gadgets_surviving = len(deduped)
                    def_sp.add("surviving", len(deduped))

            library = GadgetLibrary.build(deduped)
            report.library_size = library.size

            complete: List[tuple] = []  # (resolved goal, plan)
            with span("plan.goals") as goals_sp:
                for goal in goals:
                    try:
                        resolved = resolve_goal(self.image, goal)
                    except ValueError:
                        report.per_goal[goal.name] = 0
                        continue
                    stats = SearchStats()
                    report.search_stats[goal.name] = stats
                    plans = search_plans(
                        library,
                        resolved,
                        solver=self.solver,
                        config=self.planner_config,
                        stats=stats,
                        locator=self._word_locator,
                    )
                    complete.extend((resolved, plan) for plan in plans)
                goals_sp.add("goals", len(goals))
                goals_sp.add("complete_plans", len(complete))
            report.timings.planning = goals_sp.wall

            with span("plan.assemble") as asm_sp:
                seen_chains = set()
                for resolved, plan in complete:
                    try:
                        payload = assemble_payload(plan, resolved, solver=self.solver)
                    except AssemblyError:
                        continue
                    # Count *distinct* chains: two linearizations of the
                    # same gadget set are one payload, not two.
                    key = (resolved.goal.name, frozenset(g.location for g in payload.chain))
                    if key in seen_chains:
                        continue
                    if self.validate and not self._validate(
                        payload, resolved, cfi_targets, report
                    ):
                        continue
                    seen_chains.add(key)
                    report.payloads.append(payload)
                    report.per_goal[resolved.goal.name] = (
                        report.per_goal.get(resolved.goal.name, 0) + 1
                    )
                for goal in goals:
                    report.per_goal.setdefault(goal.name, 0)
                asm_sp.add("payloads", len(report.payloads))
            report.timings.postprocessing = asm_sp.wall
            plan_root.add("payloads", len(report.payloads))
        return report


__all__ = [
    "AssemblyError",
    "AttackGoal",
    "AttackPayload",
    "CausalLink",
    "ChainKind",
    "ExtractionConfig",
    "GadgetLibrary",
    "GadgetPlanner",
    "MemCondition",
    "MemoryGoal",
    "OpenCondition",
    "PartialPlan",
    "PlannerConfig",
    "PlannerReport",
    "Pointer",
    "RegCondition",
    "ResolvedGoal",
    "SearchStats",
    "StageTimings",
    "Step",
    "assemble_payload",
    "chain_kind",
    "execve_goal",
    "find_bytes_in_image",
    "mmap_goal",
    "mprotect_goal",
    "resolve_goal",
    "search_plans",
    "standard_goals",
    "validate_payload",
]
