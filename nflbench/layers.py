"""Per-layer metrics of a traced run, measured from outside the program.

The program already opens spans at its stage boundaries (``extract.*``,
``winnow.*``, ``plan.*``, ``defense.*``, ``emulate.run``) and bumps
counters in the :func:`repro.obs.metrics` registry.  The benchmark
installs a :class:`repro.obs.Tracer`, wraps each job in a ``bench.job``
span and each ``build_program`` call in a ``bench.build`` span, and
folds the recorded forest into per-name totals here.

A layer without a span of its own is measured as the *self time* of its
parent span: the parent's wall time minus the part its children cover.
Spans record durations, not start times, so children are taken to run
one after another, which holds for every in-process stage.  Shard spans
that worker processes ran side by side can cover more than their
parent; the self time then clamps at zero.

Times and counts are reported per job, so runs that complete different
numbers of jobs stay comparable; ratios are ratios of sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.obs import Span

JOB_SPAN = "bench.job"
BUILD_SPAN = "bench.build"

#: Stages that shard over worker processes; their ``shards`` counter is
#: set only when they did.
SHARDED_STAGES = ("extract.symex", "winnow.buckets")


def self_time(span: Span) -> float:
    """``span``'s wall time minus the time its children cover."""
    return max(0.0, span.wall - sum(child.wall for child in span.children))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class SpanTotals:
    """Sums over every span of one name."""

    calls: int = 0
    wall: float = 0.0
    self_wall: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)

    def count(self, key: str) -> int:
        return self.counters.get(key, 0)


def aggregate(roots: Iterable[Span]) -> Dict[str, SpanTotals]:
    """Wall time, self time, calls and counters summed by span name."""
    totals: Dict[str, SpanTotals] = {}
    for root in roots:
        for node, _ in root.walk():
            entry = totals.setdefault(node.name, SpanTotals())
            entry.calls += 1
            entry.wall += node.wall
            entry.self_wall += self_time(node)
            for key, value in node.counters.items():
                entry.counters[key] = entry.counters.get(key, 0) + value
    return totals


def parallel_efficiency(roots: Iterable[Span], workers: int) -> float:
    """Summed worker shard wall ÷ (workers × parent wall), over every
    stage that sharded; 0 when none did."""
    shard_wall = parent_wall = 0.0
    for root in roots:
        for node, _ in root.walk():
            if node.name in SHARDED_STAGES and node.counters.get("shards"):
                parent_wall += node.wall
                shard_wall += sum(child.wall for child in node.children)
    return ratio(shard_wall, workers * parent_wall)


#: Every per-layer metric with its unit, in report order.
LAYER_UNITS: Dict[str, str] = {
    "obfuscation.build_s": "s/build",
    "staticanalysis.decode_s": "s/job",
    "gadgets.candidates_s": "s/job",
    "gadgets.candidates_n": "count/job",
    "staticanalysis.prefilter_s": "s/job",
    "staticanalysis.cull_ratio": "ratio",
    "symex.run_s": "s/job",
    "symex.windows_n": "count/job",
    "symex.insns_n": "count/job",
    "symex.paths_n": "count/job",
    "symex.usable_ratio": "ratio",
    "gadgets.winnow_s": "s/job",
    "gadgets.buckets_n": "count/job",
    "gadgets.winnow_in_n": "count/job",
    "gadgets.winnow_out_n": "count/job",
    "solver.checks_n": "count/job",
    "solver.sat_calls_n": "count/job",
    "solver.unknowns_n": "count/job",
    "solver.memo_hit_ratio": "ratio",
    "pipeline.cache_load_s": "s/job",
    "pipeline.cache_store_s": "s/job",
    "pipeline.cache_hit_ratio": "ratio",
    "pipeline.shards_n": "count/job",
    "pipeline.parallel_efficiency": "ratio",
    "planner.library_s": "s/job",
    "planner.search_s": "s/job",
    "planner.nodes_n": "count/job",
    "planner.plans_n": "count/job",
    "planner.dead_end_ratio": "ratio",
    "planner.assemble_s": "s/job",
    "planner.payloads_n": "count/job",
    "defenses.cfi_targets_s": "s/job",
    "defenses.filter_s": "s/job",
    "defenses.survival_ratio": "ratio",
    "defenses.enforce_s": "s/job",
    "emulator.run_s": "s/job",
    "emulator.steps_n": "count/job",
    "emulator.steps_per_s": "steps/s",
    "bench.trace_overhead_ratio": "ratio",
}


def layer_metrics(
    roots: List[Span],
    registry_counters: Mapping[str, int],
    *,
    workers: int,
    memo: Tuple[int, int],
    trace_overhead: float,
) -> Dict[str, float]:
    """Every metric of :data:`LAYER_UNITS` from one traced run.

    ``roots`` is the tracer's forest: ``bench.job`` roots hold the job
    spans, while ``bench.build`` spans count wherever they sit (set-up
    builds included).  ``registry_counters`` is the counters part of the
    metrics registry, reset before the traced jobs; ``memo`` is
    (implication-memo hits, implication queries) summed from the winnow
    statistics the jobs returned.
    """
    job_roots = [root for root in roots if root.name == JOB_SPAN]
    jobs = len(job_roots)
    spans = aggregate(job_roots)
    builds = aggregate(roots).get(BUILD_SPAN, SpanTotals())
    empty = SpanTotals()

    def get(name: str) -> SpanTotals:
        return spans.get(name, empty)

    def per_job(value: float) -> float:
        return ratio(value, jobs)

    candidates = get("extract.candidates").count("candidates")
    symex = get("extract.symex.run")
    search = get("plan.search")
    loads = (get("extract.cache"), get("winnow.cache"))
    hits = sum(s.count("hits") for s in loads)
    lookups = hits + sum(s.count("misses") for s in loads)
    emulated = get("emulate.run")
    survival = get("defense.filter")
    return {
        "obfuscation.build_s": ratio(builds.wall, builds.calls),
        "staticanalysis.decode_s": per_job(get("extract").self_wall),
        "gadgets.candidates_s": per_job(get("extract.candidates").wall),
        "gadgets.candidates_n": per_job(candidates),
        "staticanalysis.prefilter_s": per_job(get("extract.prefilter").wall),
        "staticanalysis.cull_ratio": ratio(get("extract.prefilter").count("culled"), candidates),
        "symex.run_s": per_job(get("extract.symex").wall),
        "symex.windows_n": per_job(symex.count("candidates")),
        "symex.insns_n": per_job(symex.count("insns")),
        "symex.paths_n": per_job(symex.count("paths")),
        "symex.usable_ratio": ratio(symex.count("records"), symex.count("paths")),
        "gadgets.winnow_s": per_job(get("winnow.bucketize").wall + get("winnow.buckets").wall),
        "gadgets.buckets_n": per_job(get("winnow.bucketize").count("buckets")),
        "gadgets.winnow_in_n": per_job(get("winnow").count("input")),
        "gadgets.winnow_out_n": per_job(get("winnow.buckets.run").count("survivors")),
        "solver.checks_n": per_job(get("winnow.buckets").count("solver_checks")),
        "solver.sat_calls_n": per_job(registry_counters.get("solver.sat_calls", 0)),
        "solver.unknowns_n": per_job(registry_counters.get("solver.unknowns", 0)),
        "solver.memo_hit_ratio": ratio(*memo),
        "pipeline.cache_load_s": per_job(sum(s.wall for s in loads)),
        "pipeline.cache_store_s": per_job(
            get("extract.cache.store").wall + get("winnow.cache.store").wall
        ),
        "pipeline.cache_hit_ratio": ratio(hits, lookups),
        "pipeline.shards_n": per_job(sum(get(name).count("shards") for name in SHARDED_STAGES)),
        "pipeline.parallel_efficiency": parallel_efficiency(job_roots, workers),
        "planner.library_s": per_job(get("plan").self_wall),
        "planner.search_s": per_job(search.wall),
        "planner.nodes_n": per_job(search.count("nodes_expanded")),
        "planner.plans_n": per_job(search.count("plans_emitted")),
        "planner.dead_end_ratio": ratio(search.count("dead_ends"), search.count("nodes_expanded")),
        "planner.assemble_s": per_job(get("plan.assemble").self_wall),
        "planner.payloads_n": per_job(get("plan").count("payloads")),
        "defenses.cfi_targets_s": per_job(get("plan.defense_filter").self_wall),
        "defenses.filter_s": per_job(survival.wall),
        "defenses.survival_ratio": ratio(survival.count("surviving"), survival.count("pool")),
        "defenses.enforce_s": per_job(get("defense.enforce").wall),
        "emulator.run_s": per_job(emulated.wall),
        "emulator.steps_n": per_job(emulated.count("steps")),
        "emulator.steps_per_s": ratio(emulated.count("steps"), emulated.wall),
        "bench.trace_overhead_ratio": trace_overhead,
    }
