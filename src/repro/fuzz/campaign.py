"""The deterministic fuzzing campaign (what ``nfl fuzz`` runs).

Each iteration draws one :class:`~repro.fuzz.oracles.Case` per due
oracle from a ``random.Random`` derived from ``(seed, iteration,
oracle)``, so a campaign is a pure function of its seed: two runs with
the same arguments produce byte-identical summaries (no wall-clock, no
paths, no ordering races on stdout).  Every drawn case is checked
through :func:`~repro.fuzz.oracles.run_case`, the same dispatcher that
corpus replay and the shrinker use.

Cheap oracles (round-trip, emulator-vs-symex, symex, scan, memory, asm) run every
iteration; expensive ones (winnow, planner, obfuscation) run on fixed
sparse schedules so ``--iters 200`` stays within a CI smoke budget.
When the caller restricts ``--oracle``, the schedule collapses to
every-iteration for the selected oracles (still in table order).

Failures are auto-shrunk and, when a corpus directory is available,
banked as permanent regression cases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..emulator.cpu import Emulator
from ..gadgets.extract import ExtractionConfig
from ..isa.encoding import encode, encode_program
from ..isa.instructions import COND_JUMPS, Instruction, Op
from ..isa.registers import Reg
from ..obs import metrics, span
from .corpus import save_case
from .gen import (
    gen_asm,
    gen_bytes,
    gen_chain_tail,
    gen_formula,
    gen_memory_ops,
    gen_program,
    gen_straight_code,
    gen_window,
)
from .oracles import Case, EmulatorFactory, run_case
from .shrink import shrink_case, window_insn_count

#: Configs the obfuscation-equivalence oracle rotates through (cheap
#: single-pass configs; the heavyweight VM/JIT ones are covered by the
#: tier-1 suite).
_OBF_ROTATION = ("substitution", "bogus_control_flow", "flattening", "encode_data", "llvm_obf")

#: Step caps the scan oracle draws: small ones that bind on a fuzz
#: image, so the DFS order decides the answer, and the default.
_SCAN_STEPS = (1, 2, 3, 4, 5, 6, 7, 8, ExtractionConfig().max_scan_steps)
_COND_OPS = sorted(COND_JUMPS)


def _rng(seed: int, i: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{i}:{name}")


def _draw_roundtrip(seed: int, i: int) -> Case:
    rng = _rng(seed, i, "roundtrip")
    data = gen_bytes(rng, 48) if i % 2 == 0 else encode_program(gen_window(rng))
    return Case(oracle="roundtrip", kind="image", text=data)


def _draw_emu_symex(seed: int, i: int) -> Case:
    rng = _rng(seed, i, "emu_symex")
    if i % 3 == 2:
        text = gen_bytes(rng, 40)
        offset = rng.randrange(0, max(1, len(text) - 4))
    else:
        text = encode_program(gen_window(rng))
        offset = 0
    return Case(
        oracle="emu_symex",
        kind="window",
        text=text,
        offset=offset,
        env_seed=rng.randrange(1 << 16),
    )


#: What the symex oracle's focused draws build bodies from: the stack
#: ops, word and byte loads and stores, and inc/dec (twice over, so
#: runs of them keep lazy CF keepers waiting), with flag setters.
_SYMEX_FOCUS = [
    Op.PUSH_R, Op.PUSH_I, Op.POP_R, Op.POP1, Op.LEAVE, Op.XCHG, Op.LOAD, Op.STORE,
    Op.LOADB, Op.STOREB, Op.INC_R, Op.DEC_R, Op.INC_R, Op.DEC_R, Op.CMP_RR, Op.SUB_RI,
]
_GP_BASES = (Reg.RAX, Reg.RBX, Reg.RCX, Reg.RSI)


def _draw_symex(seed: int, i: int) -> Case:
    """Raw bytes one draw in three, else a window whose body is drawn
    from every row or, one draw in three, from :data:`_SYMEX_FOCUS`;
    half of its stack-slot memory operands move off ``rsp``, so loads
    and stores go wild."""
    rng = _rng(seed, i, "symex")
    if i % 3 == 2:
        text = gen_bytes(rng, 40)
        offset = rng.randrange(0, len(text) - 4)
    else:
        window = gen_window(rng, 8, _SYMEX_FOCUS) if i % 3 == 1 else gen_window(rng, 8)
        insns = [
            replace(insn, base=rng.choice(_GP_BASES))
            if insn.base is Reg.RSP and rng.random() < 0.5
            else insn
            for insn in window
        ]
        text, offset = encode_program(insns), 0
    return Case(
        oracle="symex",
        kind="window",
        text=text,
        offset=offset,
        max_insns=rng.choice((8, 16)),
        max_paths=8,
    )


def _draw_prefilter(seed: int, i: int) -> Case:
    rng = _rng(seed, i, "prefilter")
    text = gen_bytes(rng, 56) if i % 2 else encode_program(gen_window(rng))
    return Case(oracle="prefilter", kind="image", text=text, max_insns=6, max_paths=6)


def _pool_text(seed: int, i: int) -> bytes:
    """The image both pool oracles check, drawn from the winnow stream."""
    rng = _rng(seed, i, "winnow")
    return b"".join(encode_program(gen_window(rng, max_body=3)) for _ in range(3))


def _draw_winnow(seed: int, i: int) -> Case:
    return Case(oracle="winnow", kind="image", text=_pool_text(seed, i))


def _draw_serialize(seed: int, i: int) -> Case:
    return Case(oracle="serialize", kind="image", text=_pool_text(seed, i))


def _draw_planner(seed: int, i: int) -> Case:
    rng = _rng(seed, i, "planner")
    text = b"".join(encode_program(gen_window(rng, max_body=3)) for _ in range(3))
    text += gen_chain_tail(rng)
    return Case(oracle="planner", kind="image", text=text)


def _draw_plan_search(seed: int, i: int) -> Case:
    rng = _rng(seed, i, "plan_search")
    text = b"".join(encode_program(gen_window(rng, max_body=3)) for _ in range(3))
    text += gen_chain_tail(rng)
    return Case(oracle="plan_search", kind="image", text=text)


#: Policies the warm_cache oracle draws: no defense, each CFI mode (the
#: shared CFI targets), a shadow stack and a syscall veto.
_WARM_POLICIES = ("none", "coarse_cfi", "fine_cfi", "shadow_stack", "wx")


def _draw_warm_cache(seed: int, i: int) -> Case:
    rng = _rng(seed, i, "warm_cache")
    text = b"".join(encode_program(gen_window(rng, max_body=3)) for _ in range(3))
    text += gen_chain_tail(rng)
    policy = rng.choice(_WARM_POLICIES)
    return Case(oracle="warm_cache", kind="image", text=text, configs=(policy,))


def _draw_obfuscation(seed: int, i: int) -> Case:
    rng = _rng(seed, i, "obfuscation")
    source = gen_program(rng)
    configs = ("none", *rng.sample(_OBF_ROTATION, 2))
    return Case(
        oracle="obfuscation", kind="program", source=source, configs=configs, env_seed=seed
    )


def _draw_solver_preprocess(seed: int, i: int) -> Case:
    env_seed = _rng(seed, i, "solver_preprocess").randrange(1 << 30)
    count = len(gen_formula(random.Random(env_seed)))
    return Case(
        oracle="solver_preprocess",
        kind="formula",
        text=bytes(range(count)),
        env_seed=env_seed,
    )


def _draw_scan(seed: int, i: int) -> Case:
    rng = _rng(seed, i, "scan")
    # Random bytes between laid-out windows: the windows' in-range
    # conditional jumps give the DFS a choice to order, which a purely
    # random image almost never does.  Every window after the first
    # opens, one time in two, with a jmp or jcc back to an earlier
    # window's start, as the windows' own jumps only go forward; half
    # of those are followed by a hlt, so a jcc's fall-through dead-ends
    # while its taken side may still reach a transfer.
    text, starts = b"", []
    for _ in range(4):
        text += gen_bytes(rng, 6)
        if starts and rng.random() < 0.5:
            op = Op.JMP_REL if rng.random() < 0.5 else rng.choice(_COND_OPS)
            end = len(text) + Instruction(op=op).size
            text += encode(Instruction(op=op, rel=rng.choice(starts) - end))
            if rng.random() < 0.5:
                text += encode(Instruction(op=Op.HLT))
        starts.append(len(text))
        text += encode_program(gen_window(rng))
    steps = rng.choice(_SCAN_STEPS)
    return Case(oracle="scan", kind="image", text=text, max_insns=steps)


def _draw_memory(seed: int, i: int) -> Case:
    env_seed = _rng(seed, i, "memory").randrange(1 << 30)
    count = len(gen_memory_ops(random.Random(env_seed)))
    return Case(oracle="memory", kind="ops", text=bytes(range(count)), env_seed=env_seed)


#: Configs the blocks oracle builds programs under: every one whose
#: programs run in a few thousand steps, ``self_modify`` (W|X code) too.
_BLOCK_CONFIGS = ("none", *_OBF_ROTATION, "self_modify")


def _draw_blocks(seed: int, i: int) -> Case:
    """A program build, raw bytes, or straight-line code (mapped W|X and
    patching itself, one draw in three), with a step limit that often
    falls inside a block."""
    rng = _rng(seed, i, "blocks")
    env_seed = rng.randrange(1 << 16)
    if i % 4 == 0:
        limit = rng.choice((2_000_000, rng.randrange(1, 3000)))
        source, config = gen_program(rng), rng.choice(_BLOCK_CONFIGS)
        return Case(
            oracle="blocks",
            kind="program",
            source=source,
            configs=(config,),
            env_seed=env_seed,
            max_insns=limit,
        )
    limit = rng.choice((2_000_000, rng.randrange(1, 40)))
    if i % 4 == 1:
        text = gen_bytes(rng, 64)
        offset = rng.randrange(0, 32)
        return Case(
            oracle="blocks",
            kind="image",
            text=text,
            offset=offset,
            env_seed=env_seed,
            max_insns=limit,
        )
    wx = rng.random() < 1 / 3
    text = encode_program(gen_straight_code(rng, self_patch=wx))
    return Case(
        oracle="blocks",
        kind="image",
        text=text,
        env_seed=env_seed,
        max_insns=limit,
        configs=("wx",) if wx else (),
    )


def _draw_asm(seed: int, i: int) -> Case:
    source, base, extern = gen_asm(_rng(seed, i, "asm"))
    configs = tuple(f"{name}={value:#x}" for name, value in extern.items())
    return Case(oracle="asm", kind="asm", source=source, offset=base, configs=configs)


#: Oracle name → (period, phase, draw): on iterations with
#: ``i % period == phase`` the campaign checks ``draw(seed, i)``.
#: Adding an oracle takes a check function, its ``run_case`` branch
#: and one row here.
ORACLES: Dict[str, Tuple[int, int, Callable[[int, int], Case]]] = {
    "roundtrip": (1, 0, _draw_roundtrip),
    "emu_symex": (1, 0, _draw_emu_symex),
    "symex": (1, 0, _draw_symex),
    "prefilter": (5, 2, _draw_prefilter),
    "winnow": (10, 3, _draw_winnow),
    "serialize": (10, 3, _draw_serialize),
    "planner": (100, 41, _draw_planner),
    "plan_search": (2, 1, _draw_plan_search),
    "warm_cache": (10, 7, _draw_warm_cache),
    "obfuscation": (25, 11, _draw_obfuscation),
    "solver_preprocess": (8, 1, _draw_solver_preprocess),
    "scan": (1, 0, _draw_scan),
    "memory": (1, 0, _draw_memory),
    "blocks": (2, 0, _draw_blocks),
    "asm": (1, 0, _draw_asm),
}

ORACLE_NAMES = tuple(ORACLES)


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
    on_failure: Optional[Callable[[str, int, List[str]], None]] = None,
) -> FuzzReport:
    """Run a deterministic campaign; returns the (stable) report.

    ``oracles`` selects a non-empty subset of :data:`ORACLE_NAMES` and
    runs each of them on every iteration; they still run in
    :data:`ORACLE_NAMES` order.  Raises ``ValueError`` for an empty
    selection or an unknown name.  ``on_failure(oracle, iteration,
    messages)`` is called for each failing case as soon as it is found,
    before it is shrunk.
    """
    explicit = oracles is not None
    enabled = set(oracles) if explicit else set(ORACLE_NAMES)
    unknown = sorted(enabled - set(ORACLE_NAMES))
    if unknown or not enabled:
        problem = f"unknown oracle(s): {', '.join(unknown)}" if unknown else "no oracle selected"
        raise ValueError(f"{problem}; available: {', '.join(ORACLE_NAMES)}")
    report = FuzzReport(seed=seed, iters=iters)
    counters = metrics()

    def record(name: str, i: int, case: Case, messages: List[str]) -> None:
        stat = report.stats.setdefault(name, OracleStats())
        stat.runs += 1
        counters.counter("fuzz.runs").inc()
        if not messages:
            return
        stat.failures += 1
        counters.counter("fuzz.failures").inc()
        if on_failure is not None:
            on_failure(name, i, messages)
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
            for name, (period, phase, draw) in ORACLES.items():
                if name not in enabled or (not explicit and i % period != phase):
                    continue
                case = draw(seed, i)
                with span(f"fuzz.{name}"):
                    messages = run_case(case, emulator_factory=emulator_factory)
                record(name, i, case, messages)
        root.add("iters", iters)
        root.add("failures", report.total_failures)
    return report
