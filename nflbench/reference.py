"""The jobs the benchmark can draw, and their reference outputs.

``references.json`` holds, per image, blake2b digests of the
``pool_to_bytes`` encoding of its extracted and winnowed pools and the
per-goal validated payload counts of a full planner run; per
warm-replan request (image × defense policy × goal set), the per-goal
payload counts and the search nodes the request expands; and per
obf-verify build, the emulator's exit status, a digest of its stdout
and its step count.  All of it comes from the serial reference path:
``extract_gadgets``, ``deduplicate_gadgets``, single-process
``GadgetPlanner`` runs and the emulator.

Regenerate it after a change that is meant to alter outputs, from the
repository root:

    PYTHONPATH=src python3 -m nflbench.reference
"""

from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.bench.harness import BENCH_EXTRACTION, BENCH_PLANNER
from repro.bench.netperf import NETPERF_PROGRAM
from repro.bench.programs import BENCHMARK_SUITE
from repro.bench.spec_programs import SPEC_SUITE
from repro.binfmt.image import BinaryImage
from repro.compiler import LinkedProgram
from repro.defenses.policy import POLICIES
from repro.obfuscation.pipeline import CONFIGS, build_program
from repro.obs import span
from repro.pipeline import ResultCache
from repro.planner import GadgetPlanner, PlannerReport
from repro.planner.goals import standard_goals

from .layers import BUILD_SPAN

REFERENCE_FILE = Path(__file__).with_name("references.json")
FORMAT = "nflbench-references-v1"

#: Every image is built with this obfuscation seed.
BUILD_SEED = 7
#: The extraction and planner budgets of the repository's experiments.
EXTRACTION = BENCH_EXTRACTION
PLANNER = BENCH_PLANNER

PROGRAMS = {**BENCHMARK_SUITE, **SPEC_SUITE, NETPERF_PROGRAM.name: NETPERF_PROGRAM}
OBFUSCATED = ("llvm_obf", "tigress")

#: cold-sweep: one suite program per build, plus netperf, spanning text
#: sizes from 1.4 to 7.9 KB; every run plans all four, in seeded order.
COLD_IMAGES = ("binary_search/none", "netperf/none", "string_ops/llvm_obf", "bubble_sort/tigress")
#: warm-replan: small images whose pools load fast, so search dominates
#: (two, so that set-up's cache fill takes seconds, not tens of them).
WARM_IMAGES = ("crc32/llvm_obf", "binary_search/llvm_obf")
POLICY_NAMES = ("none", "coarse_cfi", "fine_cfi", "shadow_stack", "wx", "aslr_leak")
GOAL_NAMES = ("execve", "mprotect", "mmap")
GOAL_SETS = tuple(
    combo for size in (1, 2, 3) for combo in itertools.combinations(GOAL_NAMES, size)
)
#: parallel-census: the largest text sections a run can sweep twice in
#: its window (14-15 KB; the 30-52 KB Tigress builds take 5-8 s each).
CENSUS_IMAGES = ("456.hmmer/llvm_obf", "netperf/llvm_obf")
#: obf-verify: every program under each obfuscator (plus the ``none``
#: builds they are compared with).
VERIFY_IMAGES = tuple(f"{p}/{c}" for p in PROGRAMS for c in OBFUSCATED)
#: Emulator steps an obf-verify job may take: the draw keeps only builds
#: whose obfuscated plus unobfuscated reference runs fit, reference runs
#: stop here (recorded as ``None``), and so does every timed run, so a
#: regression that loops forever fails fast instead of hanging.
VERIFY_STEP_BUDGET = 200_000


def split_image(key: str) -> Tuple[str, str]:
    program, config = key.split("/")
    return program, config


def request_key(image: str, policy: str, goals: Sequence[str]) -> str:
    return "|".join((image, policy, "+".join(goals)))


def split_request(key: str) -> Tuple[str, str, Tuple[str, ...]]:
    image, policy, goals = key.split("|")
    return image, policy, tuple(goals.split("+"))


def build(key: str) -> LinkedProgram:
    """Compile one ``program/config`` image, under a ``bench.build`` span."""
    program, config = split_image(key)
    with span(BUILD_SPAN):
        return build_program(PROGRAMS[program].source, CONFIGS[config], seed=BUILD_SEED)


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def fill_cache(image: BinaryImage, cache: ResultCache) -> None:
    """Store the image's extracted and winnowed pools, as a first
    ``nfl plan`` against a cache would."""
    GadgetPlanner(image, extraction=EXTRACTION, planner=PLANNER, jobs=1, cache=cache).run(goals=[])


def plan_request(
    image: BinaryImage, cache: ResultCache, policy: str, goals: Sequence[str]
) -> PlannerReport:
    """One warm-replan request: plan ``goals`` under ``policy``."""
    wanted = [goal for goal in standard_goals(image) if goal.name in goals]
    planner = GadgetPlanner(
        image,
        extraction=EXTRACTION,
        planner=PLANNER,
        jobs=1,
        cache=cache,
        defense=POLICIES[policy],
    )
    return planner.run(goals=wanted)


def load_references(path: Path = REFERENCE_FILE) -> dict:
    data = json.loads(Path(path).read_text())
    if data.get("format") != FORMAT:
        raise ValueError(f"{path} is not a {FORMAT} file")
    return data


# -- generation ---------------------------------------------------------------


def _image_reference(key: str, planned: bool) -> dict:
    from repro.gadgets.extract import extract_gadgets
    from repro.gadgets.subsumption import deduplicate_gadgets
    from repro.pipeline import pool_to_bytes
    from repro.solver.solver import Solver

    image = build(key).image
    records = extract_gadgets(image, EXTRACTION)
    entry = {
        "text_bytes": len(image.text.data),
        "extracted": digest(pool_to_bytes(records)),
        "winnowed": digest(pool_to_bytes(deduplicate_gadgets(records))),
    }
    if planned:
        planner = GadgetPlanner(image, extraction=EXTRACTION, planner=PLANNER, jobs=1)
        # The planner winnows with its own solver's conflict budget.
        solver = Solver(max_conflicts=planner.solver.max_conflicts)
        winnowed = deduplicate_gadgets(records, solver=solver)
        entry["planner_winnowed"] = digest(pool_to_bytes(winnowed))
        entry["per_goal"] = dict(planner.run().per_goal)
    return entry


def _request_references(image_key: str, workdir: str) -> Dict[str, dict]:
    image = build(image_key).image
    root = Path(tempfile.mkdtemp(dir=workdir))
    try:
        cache = ResultCache(root=root)
        fill_cache(image, cache)
        out = {}
        for policy in POLICY_NAMES:
            for goals in GOAL_SETS:
                report = plan_request(image, cache, policy, goals)
                out[request_key(image_key, policy, goals)] = {
                    "per_goal": dict(report.per_goal),
                    "nodes": sum(s.nodes_expanded for s in report.search_stats.values()),
                }
        return out
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _run_reference(key: str) -> dict:
    from repro.emulator.cpu import Emulator, StepLimitExceeded

    emu = Emulator(build(key).image, stop_on_attack=False, step_limit=VERIFY_STEP_BUDGET)
    try:
        status = emu.run()
    except StepLimitExceeded:
        return {"status": None, "stdout": None, "steps": None}
    return {"status": status, "stdout": digest(bytes(emu.syscalls.stdout)), "steps": emu.steps}


def generate(workers: int = 2, workdir: Optional[Path] = None) -> dict:
    """Every reference, computed in ``workers`` spawned processes."""
    workdir = Path(workdir or Path(__file__).resolve().parent.parent / ".nflbench_work")
    workdir.mkdir(parents=True, exist_ok=True)
    images = sorted(set(COLD_IMAGES) | set(CENSUS_IMAGES) | set(WARM_IMAGES))
    runs = sorted(set(VERIFY_IMAGES) | {f"{p}/none" for p in PROGRAMS})
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        image_refs = pool.map(_image_reference, images, [k in COLD_IMAGES for k in images])
        request_refs = pool.map(_request_references, WARM_IMAGES, [str(workdir)] * len(WARM_IMAGES))
        run_refs = pool.map(_run_reference, runs)
        data = {
            "format": FORMAT,
            "images": dict(zip(images, image_refs)),
            "requests": {k: v for part in request_refs for k, v in part.items()},
            "runs": dict(zip(runs, run_refs)),
        }
    return data


if __name__ == "__main__":
    REFERENCE_FILE.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_FILE}")
