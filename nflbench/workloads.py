"""The benchmark's workloads: seeded job draws and the calls they time.

A workload turns the seed into a list of jobs — the only inputs the
program sees.  ``setup`` builds what those jobs need, ``run`` makes the
one timed call into the program per job, and ``outcome`` reduces the
call's result (untimed) to what ``check`` compares with the references
in :mod:`nflbench.reference`.  A run makes whole passes over its job
list in a closed loop.

Each job list holds every job of the workload that fits its budget — a
property of the input: reference step count for obf-verify, search
nodes for warm-replan — in an order shuffled from the seed.  Every run
therefore measures the same mix of cheap and dear jobs, and runs on
different seeds stay comparable; the seed decides the order, which
decides what each job finds warm or cold (allocator state, the
emulator's and solver's per-instance caches).
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.binfmt.image import BinaryImage
from repro.emulator.cpu import run_image
from repro.gadgets.subsumption import SubsumptionStats
from repro.pipeline import ResultCache, pool_to_bytes, run_pipeline
from repro.planner import GadgetPlanner
from repro.staticanalysis.decode_graph import shared_decode_graph

from .reference import (
    CENSUS_IMAGES,
    COLD_IMAGES,
    EXTRACTION,
    GOAL_SETS,
    PLANNER,
    POLICY_NAMES,
    VERIFY_IMAGES,
    VERIFY_STEP_BUDGET,
    WARM_IMAGES,
    build,
    digest,
    fill_cache,
    plan_request,
    request_key,
    split_image,
    split_request,
)

#: warm-replan serves only requests whose reference search expands at
#: most this many nodes (larger ones hit the planner's node budget and
#: take seconds each).
WARM_NODE_BUDGET = 1_000


def shuffled(jobs: Iterable[str], rng: random.Random) -> List[str]:
    """``jobs`` in an order drawn from ``rng`` alone."""
    order = sorted(jobs)
    rng.shuffle(order)
    return order


def worker_count() -> int:
    """Processes parallel-census may use: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_digest(hit: Optional[Tuple[list, dict]]) -> Optional[str]:
    return digest(pool_to_bytes(hit[0])) if hit is not None else None


@dataclass
class Prepared:
    """What ``setup`` built for one run."""

    images: Dict[str, BinaryImage]
    workdir: Path
    cache: Optional[ResultCache] = None


class Workload:
    """One job type; subclasses fill in the draw and the timed call."""

    name = ""
    #: The reference table jobs are looked up in, and the (outcome key,
    #: reference key) pairs that must agree.
    table = ""
    compared: Tuple[Tuple[str, str], ...] = ()

    def draw(self, rng: random.Random, refs: dict) -> List[str]:
        raise NotImplementedError

    def workers(self) -> int:
        """Processes one job keeps busy at once."""
        return 1

    def setup(self, jobs: Sequence[str], workdir: Path, refs: dict) -> Prepared:
        return Prepared({key: build(key).image for key in dict.fromkeys(jobs)}, workdir)

    def run(self, state: Prepared, job: str) -> Any:
        raise NotImplementedError

    def outcome(self, state: Prepared, job: str, raw: Any) -> Dict[str, Any]:
        raise NotImplementedError

    def check(self, job: str, out: Dict[str, Any], refs: dict) -> List[str]:
        """Mismatches between ``out`` and the job's reference (none = pass)."""
        expected = refs[self.table].get(job)
        if expected is None:
            return [f"{job}: no reference"]
        return [
            f"{job}: {mine} = {out.get(mine)!r}, reference {expected.get(theirs)!r}"
            for mine, theirs in self.compared
            if out.get(mine) != expected.get(theirs)
        ]


class ColdSweep(Workload):
    """Full ``GadgetPlanner.run`` at ``jobs=1`` against a fresh, empty
    cache per job (a miss plus a store, as ``nfl plan`` does)."""

    name = "cold-sweep"
    table = "images"
    compared = (
        ("per_goal", "per_goal"),
        ("extracted", "extracted"),
        ("winnowed", "planner_winnowed"),
    )

    def draw(self, rng: random.Random, refs: dict) -> List[str]:
        return shuffled(COLD_IMAGES, rng)

    def run(self, state: Prepared, job: str) -> Any:
        # Cold means cold: no decode graph left over from the last job.
        shared_decode_graph.cache_clear()
        cache = ResultCache(root=Path(tempfile.mkdtemp(dir=state.workdir)))
        planner = GadgetPlanner(
            state.images[job], extraction=EXTRACTION, planner=PLANNER, jobs=1, cache=cache
        )
        return planner.run(), cache

    def outcome(self, state: Prepared, job: str, raw: Any) -> Dict[str, Any]:
        report, cache = raw
        image_bytes = state.images[job].to_bytes()
        extracted = cache.load_pool("extract", image_bytes, EXTRACTION)
        winnowed = cache.load_pool("winnow", image_bytes, EXTRACTION)
        shutil.rmtree(cache.root, ignore_errors=True)
        stats = report.subsumption_stats
        return {
            "per_goal": dict(report.per_goal),
            "extracted": _pool_digest(extracted),
            "winnowed": _pool_digest(winnowed),
            "payloads": report.total_payloads,
            "memo_hits": stats.memo_hits,
            "memo_queries": stats.implication_queries,
        }


class WarmReplan(Workload):
    """Image × defense policy × goal-set requests against a cache that
    set-up filled: extraction and winnowing become cache reads."""

    name = "warm-replan"
    table = "requests"
    compared = (("per_goal", "per_goal"),)

    def draw(self, rng: random.Random, refs: dict) -> List[str]:
        nodes = refs["requests"]
        requests = [
            key
            for key in (
                request_key(image, policy, goals)
                for image in WARM_IMAGES
                for policy in POLICY_NAMES
                for goals in GOAL_SETS
            )
            if nodes[key]["nodes"] <= WARM_NODE_BUDGET
        ]
        return shuffled(requests, rng)

    def setup(self, jobs: Sequence[str], workdir: Path, refs: dict) -> Prepared:
        images = {key: build(key).image for key in dict.fromkeys(split_request(j)[0] for j in jobs)}
        cache = ResultCache(root=Path(tempfile.mkdtemp(dir=workdir)))
        for image in images.values():
            fill_cache(image, cache)
        return Prepared(images, workdir, cache=cache)

    def run(self, state: Prepared, job: str) -> Any:
        image, policy, goals = split_request(job)
        return plan_request(state.images[image], state.cache, policy, goals)

    def outcome(self, state: Prepared, job: str, raw: Any) -> Dict[str, Any]:
        return {"per_goal": dict(raw.per_goal), "payloads": raw.total_payloads}


class ParallelCensus(Workload):
    """``run_pipeline`` at ``jobs=nproc`` with no cache and no planning
    (the ``nfl extract`` path) on the largest text sections."""

    name = "parallel-census"
    table = "images"
    compared = (("extracted", "extracted"), ("winnowed", "winnowed"))

    def draw(self, rng: random.Random, refs: dict) -> List[str]:
        return shuffled(CENSUS_IMAGES, rng)

    def workers(self) -> int:
        return worker_count()

    def run(self, state: Prepared, job: str) -> Any:
        shared_decode_graph.cache_clear()
        stats = SubsumptionStats()
        records, survivors = run_pipeline(
            state.images[job], EXTRACTION, jobs=self.workers(), winnow_stats=stats
        )
        return records, survivors, stats

    def outcome(self, state: Prepared, job: str, raw: Any) -> Dict[str, Any]:
        records, survivors, stats = raw
        return {
            "extracted": digest(pool_to_bytes(records)),
            "winnowed": digest(pool_to_bytes(survivors)),
            "memo_hits": stats.memo_hits,
            "memo_queries": stats.implication_queries,
        }


def _baseline(job: str) -> str:
    return f"{split_image(job)[0]}/none"


class ObfVerify(Workload):
    """``build_program`` for an obfuscated build, then emulator runs of
    it and of the unobfuscated build, whose ``(status, stdout)`` must
    agree with each other and with the reference."""

    name = "obf-verify"
    table = "runs"
    compared = (("status", "status"), ("stdout", "stdout"))

    def draw(self, rng: random.Random, refs: dict) -> List[str]:
        runs = refs["runs"]

        def steps(job: str) -> int:
            return runs[job]["steps"] + runs[_baseline(job)]["steps"]

        eligible = [
            job
            for job in VERIFY_IMAGES
            if runs[job]["steps"] is not None
            and runs[_baseline(job)]["steps"] is not None
            and steps(job) <= VERIFY_STEP_BUDGET
        ]
        return shuffled(eligible, rng)

    def setup(self, jobs: Sequence[str], workdir: Path, refs: dict) -> Prepared:
        baselines = {key: build(key).image for key in dict.fromkeys(map(_baseline, jobs))}
        return Prepared(baselines, workdir)

    def run(self, state: Prepared, job: str) -> Any:
        obfuscated = run_image(build(job).image, step_limit=VERIFY_STEP_BUDGET)
        plain = run_image(state.images[_baseline(job)], step_limit=VERIFY_STEP_BUDGET)
        return obfuscated, plain

    def outcome(self, state: Prepared, job: str, raw: Any) -> Dict[str, Any]:
        (status, stdout), plain = raw
        return {
            "status": status,
            "stdout": digest(stdout),
            "matches_plain": (status, stdout) == plain,
        }

    def check(self, job: str, out: Dict[str, Any], refs: dict) -> List[str]:
        problems = super().check(job, out, refs)
        if not out.get("matches_plain"):
            problems.append(f"{job}: output differs from the unobfuscated build")
        return problems


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (ColdSweep(), WarmReplan(), ParallelCensus(), ObfVerify())
}
