"""The deterministic fuzzing campaign (what ``nfl fuzz`` runs).

Each iteration derives one ``random.Random`` per oracle from
``(seed, iteration, oracle)``, so a campaign is a pure function of its
seed: two runs with the same arguments produce byte-identical
summaries (no wall-clock, no paths, no ordering races on stdout).

Cheap oracles (round-trip, emulator-vs-symex) run every iteration;
expensive ones (winnow, pipeline, planner, obfuscation) run on fixed
sparse schedules so ``--iters 200`` stays within a CI smoke budget.
When the caller restricts ``--oracle``, the schedule collapses to
every-iteration for the selected oracles.

Failures are auto-shrunk and, when a corpus directory is available,
banked as permanent regression cases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..emulator.cpu import Emulator
from ..gadgets.extract import ExtractionConfig, extract_gadgets
from ..binfmt.image import make_image
from ..isa.encoding import encode_program
from ..obs import metrics, span
from .corpus import save_case
from .gen import gen_bytes, gen_formula, gen_program, gen_window
from .oracles import (
    Case,
    EmulatorFactory,
    check_obfuscation,
    check_pipeline,
    check_planner,
    check_prefilter,
    check_roundtrip,
    check_serialize,
    check_solver_preprocess,
    check_window,
    check_winnow,
)
from .shrink import shrink_case, window_insn_count

#: Oracle name → (period, phase): runs on iterations i % period == phase.
SCHEDULE = {
    "roundtrip": (1, 0),
    "emu_symex": (1, 0),
    "prefilter": (5, 2),
    "winnow": (10, 3),
    "serialize": (10, 3),
    "pipeline": (50, 7),
    "planner": (100, 41),
    "obfuscation": (25, 11),
    "solver_preprocess": (8, 1),
}

ORACLE_NAMES = tuple(SCHEDULE)

#: Configs the obfuscation-equivalence oracle rotates through (cheap
#: single-pass configs; the heavyweight VM/JIT ones are covered by the
#: tier-1 suite).
_OBF_ROTATION = ("substitution", "bogus_control_flow", "flattening", "encode_data", "llvm_obf")


@dataclass
class FuzzFailure:
    oracle: str
    iteration: int
    messages: List[str]
    case: Case
    shrunk: Case
    banked: Optional[str] = None  # corpus filename, when banked


@dataclass
class OracleStats:
    runs: int = 0
    failures: int = 0


@dataclass
class FuzzReport:
    seed: int
    iters: int
    stats: Dict[str, OracleStats] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def total_failures(self) -> int:
        return len(self.failures)

    def summary(self) -> str:
        lines = [f"fuzz seed={self.seed} iters={self.iters}"]
        for name in ORACLE_NAMES:
            stat = self.stats.get(name)
            if stat is None or stat.runs == 0:
                continue
            lines.append(f"  {name:<17} runs={stat.runs:<4} failures={stat.failures}")
        for failure in self.failures:
            size = window_insn_count(failure.shrunk) if failure.shrunk.kind == "window" else 0
            where = f" -> {failure.banked}" if failure.banked else ""
            detail = failure.messages[0] if failure.messages else ""
            extra = f" ({size} insns)" if size else ""
            lines.append(
                f"  FAIL [{failure.oracle}] iter {failure.iteration}{extra}{where}: {detail}"
            )
        verdict = "OK" if not self.failures else "FAILURES"
        lines.append(f"result: {verdict} ({len(self.failures)} failure(s))")
        return "\n".join(lines)


def run_fuzz(
    seed: int = 0,
    iters: int = 100,
    *,
    oracles: Optional[Sequence[str]] = None,
    emulator_factory: EmulatorFactory = Emulator,
    corpus_dir: Optional[Path] = None,
    shrink: bool = True,
) -> FuzzReport:
    """Run a deterministic campaign; returns the (stable) report."""
    if oracles is not None:
        unknown = set(oracles) - set(ORACLE_NAMES)
        if unknown:
            raise ValueError(f"unknown oracle(s): {', '.join(sorted(unknown))}")
    enabled = tuple(oracles) if oracles is not None else ORACLE_NAMES
    explicit = oracles is not None
    report = FuzzReport(seed=seed, iters=iters)
    counters = metrics()

    def due(name: str, i: int) -> bool:
        if name not in enabled:
            return False
        if explicit:
            return True
        period, phase = SCHEDULE[name]
        return i % period == phase

    def record(name: str, i: int, case: Case, messages: List[str]) -> None:
        stat = report.stats.setdefault(name, OracleStats())
        stat.runs += 1
        counters.counter("fuzz.runs").inc()
        if not messages:
            return
        stat.failures += 1
        counters.counter("fuzz.failures").inc()
        shrunk = case
        if shrink:
            with span("fuzz.shrink"):
                shrunk = shrink_case(case, emulator_factory=emulator_factory)
        banked = None
        if corpus_dir is not None:
            note = messages[0]
            path = save_case(Path(corpus_dir), shrunk, description=note)
            banked = path.name
            counters.counter("fuzz.banked").inc()
        report.failures.append(
            FuzzFailure(
                oracle=name,
                iteration=i,
                messages=messages,
                case=case,
                shrunk=shrunk,
                banked=banked,
            )
        )

    with span("fuzz") as root:
        for i in range(iters):
            if due("roundtrip", i):
                rng = random.Random(f"{seed}:{i}:roundtrip")
                if i % 2 == 0:
                    data = gen_bytes(rng, 48)
                else:
                    data = encode_program(gen_window(rng))
                case = Case(oracle="roundtrip", kind="image", text=data)
                with span("fuzz.roundtrip"):
                    record("roundtrip", i, case, check_roundtrip(data))
            if due("emu_symex", i):
                rng = random.Random(f"{seed}:{i}:emu_symex")
                if i % 3 == 2:
                    text = gen_bytes(rng, 40)
                    offset = rng.randrange(0, max(1, len(text) - 4))
                else:
                    text = encode_program(gen_window(rng))
                    offset = 0
                case = Case(
                    oracle="emu_symex",
                    kind="window",
                    text=text,
                    offset=offset,
                    env_seed=rng.randrange(1 << 16),
                )
                with span("fuzz.emu_symex"):
                    messages = check_window(
                        case.text,
                        case.offset,
                        case.env_seed,
                        max_insns=case.max_insns,
                        max_paths=case.max_paths,
                        emulator_factory=emulator_factory,
                    )
                record("emu_symex", i, case, messages)
            if due("prefilter", i):
                rng = random.Random(f"{seed}:{i}:prefilter")
                text = gen_bytes(rng, 56) if i % 2 else encode_program(gen_window(rng))
                case = Case(oracle="prefilter", kind="image", text=text, max_insns=6, max_paths=6)
                with span("fuzz.prefilter"):
                    record(
                        "prefilter", i, case, check_prefilter(text, max_insns=6, max_paths=6)
                    )
            if due("winnow", i) or due("serialize", i):
                rng = random.Random(f"{seed}:{i}:winnow")
                text = b"".join(encode_program(gen_window(rng, max_body=3)) for _ in range(3))
                if due("winnow", i):
                    case = Case(oracle="winnow", kind="image", text=text)
                    with span("fuzz.winnow"):
                        record("winnow", i, case, check_winnow(text))
                if due("serialize", i):
                    case = Case(oracle="serialize", kind="image", text=text)
                    with span("fuzz.serialize"):
                        records = extract_gadgets(
                            make_image(text),
                            ExtractionConfig(max_insns=5, max_paths=4, max_candidates=64),
                        )
                        record("serialize", i, case, check_serialize(records))
            if due("pipeline", i):
                rng = random.Random(f"{seed}:{i}:pipeline")
                text = b"".join(encode_program(gen_window(rng, max_body=3)) for _ in range(2))
                case = Case(oracle="pipeline", kind="image", text=text)
                with span("fuzz.pipeline"):
                    record("pipeline", i, case, check_pipeline(text))
            if due("planner", i):
                rng = random.Random(f"{seed}:{i}:planner")
                text = b"".join(encode_program(gen_window(rng, max_body=3)) for _ in range(3))
                case = Case(oracle="planner", kind="image", text=text)
                with span("fuzz.planner"):
                    record("planner", i, case, check_planner(text))
            if due("obfuscation", i):
                rng = random.Random(f"{seed}:{i}:obfuscation")
                source = gen_program(rng)
                picks = rng.sample(_OBF_ROTATION, 2)
                configs = ("none", *picks)
                case = Case(
                    oracle="obfuscation",
                    kind="program",
                    source=source,
                    configs=configs,
                    env_seed=seed,
                )
                with span("fuzz.obfuscation"):
                    record(
                        "obfuscation",
                        i,
                        case,
                        check_obfuscation(source, configs, seed=seed),
                    )
            if due("solver_preprocess", i):
                rng = random.Random(f"{seed}:{i}:solver_preprocess")
                env_seed = rng.randrange(1 << 30)
                conjuncts = gen_formula(random.Random(env_seed))
                case = Case(
                    oracle="solver_preprocess",
                    kind="formula",
                    text=bytes(range(len(conjuncts))),
                    env_seed=env_seed,
                )
                with span("fuzz.solver_preprocess"):
                    record("solver_preprocess", i, case, check_solver_preprocess(conjuncts))
        root.add("iters", iters)
        root.add("failures", report.total_failures)
    return report
