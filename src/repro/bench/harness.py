"""Experiment harness: one driver per table/figure of the paper.

Every experiment (Fig. 1, Table I, Table IV, Table V, Fig. 5,
Table VI, Table VII, the netperf case study) is a function here; the
files under ``benchmarks/`` are thin pytest-benchmark wrappers that
call these drivers and print the reproduced rows.

Cost control: the paper ran days of experiments on a Xeon server; this
reproduction runs minutes on a laptop.  Semantic extraction is capped
per binary via ``ExtractionConfig.max_candidates`` — the cap and the
number of dropped candidates are part of every result (no silent
truncation), and the *shapes* the paper reports are preserved (see
EXPERIMENTS.md for paper-vs-measured values).
"""

from __future__ import annotations

import multiprocessing
import resource
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..baselines import AngropLike, ROPGadgetLike, SGCLike
from ..binfmt.image import BinaryImage
from ..compiler.link import LinkedProgram
from ..emulator.cpu import run_image
from ..gadgets.classify import count_by_type, scan_syntactic_gadgets
from ..gadgets.extract import ExtractionConfig
from ..gadgets.record import JmpType
from ..obfuscation.pipeline import CONFIGS, SINGLE_METHOD_CONFIGS, build_program
from ..planner import GadgetPlanner, PlannerConfig
from ..planner.payload import AttackPayload
from .programs import BENCHMARK_SUITE, CORE_SUITE, BenchProgram
from .spec_programs import SPEC_SUITE

DEFAULT_SEED = 7

#: Extraction budget used by the benchmarks (documented cap).
BENCH_EXTRACTION = ExtractionConfig(max_insns=12, max_paths=4, max_candidates=None)
BENCH_PLANNER = PlannerConfig(max_nodes=3000, max_plans=18, max_steps=8, providers_per_cond=4)

#: The three build configurations of Table IV / Fig. 1.
MAIN_CONFIGS = ("none", "llvm_obf", "tigress")


# ---------------------------------------------------------------------------
# Program matrix with caching
# ---------------------------------------------------------------------------

_BUILD_CACHE: Dict[Tuple[str, str, int], LinkedProgram] = {}


def _program_source(name: str) -> BenchProgram:
    if name in BENCHMARK_SUITE:
        return BENCHMARK_SUITE[name]
    if name in SPEC_SUITE:
        return SPEC_SUITE[name]
    if name == "netperf":
        from .netperf import NETPERF_PROGRAM

        return NETPERF_PROGRAM
    raise KeyError(f"unknown benchmark program {name!r}")


def build(name: str, config_name: str = "none", seed: int = DEFAULT_SEED) -> LinkedProgram:
    """Compile (and cache) one benchmark program under one config."""
    key = (name, config_name, seed)
    if key not in _BUILD_CACHE:
        program = _program_source(name)
        _BUILD_CACHE[key] = build_program(program.source, CONFIGS[config_name], seed=seed)
    return _BUILD_CACHE[key]


def verify_semantics(name: str, config_name: str, seed: int = DEFAULT_SEED,
                     step_limit: int = 60_000_000) -> bool:
    """Check the obfuscated build behaves exactly like the original."""
    base = run_image(build(name, "none", seed).image, step_limit=step_limit)
    obf = run_image(build(name, config_name, seed).image, step_limit=step_limit)
    return base == obf


# ---------------------------------------------------------------------------
# Fig. 1 — gadget counts, original vs obfuscated
# ---------------------------------------------------------------------------


@dataclass
class Fig1Row:
    program: str
    counts: Dict[str, int]  # config name → # syntactic gadgets


def fig1_gadget_counts(
    programs: Sequence[str] = tuple(BENCHMARK_SUITE),
    configs: Sequence[str] = MAIN_CONFIGS,
    seed: int = DEFAULT_SEED,
) -> List[Fig1Row]:
    rows = []
    for name in programs:
        counts = {}
        for config in configs:
            image = build(name, config, seed).image
            counts[config] = len(scan_syntactic_gadgets(image))
        rows.append(Fig1Row(program=name, counts=counts))
    return rows


def format_fig1(rows: List[Fig1Row]) -> str:
    configs = list(rows[0].counts)
    header = f"{'program':<18}" + "".join(f"{c:>12}" for c in configs)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(f"{row.program:<18}" + "".join(f"{row.counts[c]:>12}" for c in configs))
    totals = {c: sum(r.counts[c] for r in rows) for c in configs}
    lines.append(f"{'TOTAL':<18}" + "".join(f"{totals[c]:>12}" for c in configs))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table I — gadget types, original vs obfuscated, increase rate
# ---------------------------------------------------------------------------


@dataclass
class Table1Row:
    gadget_type: JmpType
    original: int
    obfuscated: int

    @property
    def increase_rate(self) -> float:
        if self.original == 0:
            return float("inf") if self.obfuscated else 0.0
        return (self.obfuscated - self.original) / self.original


def table1_type_counts(
    programs: Sequence[str] = tuple(BENCHMARK_SUITE),
    obfuscated_config: str = "llvm_obf",
    seed: int = DEFAULT_SEED,
) -> List[Table1Row]:
    totals_orig: Dict[JmpType, int] = {}
    totals_obf: Dict[JmpType, int] = {}
    for name in programs:
        for config, bucket in (("none", totals_orig), (obfuscated_config, totals_obf)):
            image = build(name, config, seed).image
            for kind, count in count_by_type(scan_syntactic_gadgets(image)).items():
                bucket[kind] = bucket.get(kind, 0) + count
    return [
        Table1Row(gadget_type=k, original=totals_orig.get(k, 0), obfuscated=totals_obf.get(k, 0))
        for k in (JmpType.RET, JmpType.UDJ, JmpType.UIJ, JmpType.CDJ, JmpType.CIJ)
    ]


def format_table1(rows: List[Table1Row]) -> str:
    header = f"{'type':<8}{'original':>12}{'obfuscated':>12}{'IR':>10}"
    lines = [header, "-" * len(header)]
    for row in rows:
        rate = f"{row.increase_rate * 100:.1f}%"
        lines.append(
            f"{row.gadget_type.value.upper():<8}{row.original:>12}{row.obfuscated:>12}{rate:>10}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table IV — tools × configs: gadgets, payloads per attack
# ---------------------------------------------------------------------------

TOOL_NAMES = ("ropgadget", "angrop", "sgc", "gadget_planner")


@dataclass
class ToolResult:
    tool: str
    gadgets_total: int = 0
    gadgets_used: int = 0
    per_goal: Dict[str, int] = field(default_factory=dict)
    payloads: List[AttackPayload] = field(default_factory=list)

    @property
    def total_payloads(self) -> int:
        return sum(self.per_goal.values())


_PIPELINE_CACHE: Dict[Tuple[str, str, str, int], ToolResult] = {}


def _make_tool(tool: str):
    if tool == "ropgadget":
        return ROPGadgetLike()
    if tool == "angrop":
        return AngropLike(
            ExtractionConfig(
                include_conditional=False,
                merge_direct_jumps=False,
                max_insns=BENCH_EXTRACTION.max_insns,
                max_paths=1,
                max_candidates=BENCH_EXTRACTION.max_candidates,
            )
        )
    if tool == "sgc":
        return SGCLike(
            ExtractionConfig(
                include_conditional=False,
                merge_direct_jumps=False,
                max_insns=BENCH_EXTRACTION.max_insns,
                max_paths=1,
                max_candidates=BENCH_EXTRACTION.max_candidates,
            )
        )
    raise KeyError(tool)


def run_tool(
    tool: str, program: str, config: str, seed: int = DEFAULT_SEED
) -> ToolResult:
    """Run one tool against one build (cached)."""
    key = (tool, program, config, seed)
    if key in _PIPELINE_CACHE:
        return _PIPELINE_CACHE[key]
    image = build(program, config, seed).image
    if tool == "gadget_planner":
        planner = GadgetPlanner(image, extraction=BENCH_EXTRACTION, planner=BENCH_PLANNER)
        report = planner.run()
        result = ToolResult(
            tool=tool,
            gadgets_total=report.gadgets_total,
            gadgets_used=report.gadgets_used(),
            per_goal=dict(report.per_goal),
            payloads=list(report.payloads),
        )
    else:
        baseline = _make_tool(tool)
        report = baseline.run(image)
        result = ToolResult(
            tool=tool,
            gadgets_total=report.gadgets_total,
            gadgets_used=report.gadgets_used(),
            per_goal=dict(report.per_goal),
            payloads=list(report.payloads),
        )
    _PIPELINE_CACHE[key] = result
    return result


@dataclass
class Table4Cell:
    config: str
    tool: str
    gadgets_total: int
    gadgets_used: int
    execve: int
    mprotect: int
    mmap: int
    new_vs_original: int = 0

    @property
    def total(self) -> int:
        return self.execve + self.mprotect + self.mmap


def table4_tool_comparison(
    programs: Sequence[str] = CORE_SUITE,
    configs: Sequence[str] = MAIN_CONFIGS,
    tools: Sequence[str] = TOOL_NAMES,
    seed: int = DEFAULT_SEED,
) -> List[Table4Cell]:
    cells: List[Table4Cell] = []
    baseline_totals: Dict[str, int] = {}
    for config in configs:
        for tool in tools:
            gadgets_total = 0
            gadgets_used = 0
            goals = {"execve": 0, "mprotect": 0, "mmap": 0}
            for program in programs:
                result = run_tool(tool, program, config, seed)
                gadgets_total += result.gadgets_total
                gadgets_used += result.gadgets_used
                for goal, count in result.per_goal.items():
                    goals[goal] = goals.get(goal, 0) + count
            cell = Table4Cell(
                config=config,
                tool=tool,
                gadgets_total=gadgets_total,
                gadgets_used=gadgets_used,
                execve=goals["execve"],
                mprotect=goals["mprotect"],
                mmap=goals["mmap"],
            )
            if config == "none":
                baseline_totals[tool] = cell.total
            else:
                cell.new_vs_original = max(0, cell.total - baseline_totals.get(tool, 0))
            cells.append(cell)
    return cells


def format_table4(cells: List[Table4Cell]) -> str:
    header = (
        f"{'config':<10}{'tool':<16}{'gadgets':>9}{'used':>6}"
        f"{'execve':>8}{'mprotect':>9}{'mmap':>6}{'total':>7}{'(new)':>7}"
    )
    lines = [header, "-" * len(header)]
    for c in cells:
        lines.append(
            f"{c.config:<10}{c.tool:<16}{c.gadgets_total:>9}{c.gadgets_used:>6}"
            f"{c.execve:>8}{c.mprotect:>9}{c.mmap:>6}{c.total:>7}"
            f"{('(' + str(c.new_vs_original) + ')') if c.config != 'none' else '':>7}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table V — chain properties per tool
# ---------------------------------------------------------------------------


@dataclass
class Table5Row:
    tool: str
    avg_gadget_len: float
    avg_chain_len: float
    pct_ret: float
    pct_ij: float
    pct_dj: float
    pct_cj: float


def _chain_type(gadget) -> str:
    if gadget.conditional_jumps > 0:
        return "cj"
    if gadget.merged_direct_jumps > 0:
        return "dj"
    from ..symex.executor import EndKind

    if gadget.end in (EndKind.JMP_REG, EndKind.JMP_MEM, EndKind.CALL_REG):
        return "ij"
    return "ret"


def table5_chain_properties(
    cells_payloads: Dict[str, List[AttackPayload]]
) -> List[Table5Row]:
    """Compute Table V from the payloads each tool produced."""
    rows = []
    for tool, payloads in cells_payloads.items():
        gadget_lens: List[int] = []
        chain_lens: List[int] = []
        type_counts = {"ret": 0, "ij": 0, "dj": 0, "cj": 0}
        for payload in payloads:
            chain_lens.append(sum(len(g.insns) for g in payload.chain))
            for gadget in payload.chain:
                gadget_lens.append(len(gadget.insns))
                type_counts[_chain_type(gadget)] += 1
        total_gadgets = max(sum(type_counts.values()), 1)
        rows.append(
            Table5Row(
                tool=tool,
                avg_gadget_len=sum(gadget_lens) / max(len(gadget_lens), 1),
                avg_chain_len=sum(chain_lens) / max(len(chain_lens), 1),
                pct_ret=100 * type_counts["ret"] / total_gadgets,
                pct_ij=100 * type_counts["ij"] / total_gadgets,
                pct_dj=100 * type_counts["dj"] / total_gadgets,
                pct_cj=100 * type_counts["cj"] / total_gadgets,
            )
        )
    return rows


def collect_payloads_by_tool(
    programs: Sequence[str] = CORE_SUITE,
    configs: Sequence[str] = MAIN_CONFIGS,
    tools: Sequence[str] = TOOL_NAMES,
    seed: int = DEFAULT_SEED,
) -> Dict[str, List[AttackPayload]]:
    out: Dict[str, List[AttackPayload]] = {t: [] for t in tools}
    for config in configs:
        for tool in tools:
            for program in programs:
                out[tool].extend(run_tool(tool, program, config, seed).payloads)
    return out


def format_table5(rows: List[Table5Row]) -> str:
    header = (
        f"{'tool':<16}{'gadget len':>11}{'chain len':>11}"
        f"{'Ret%':>7}{'IJ%':>7}{'DJ%':>7}{'CJ%':>7}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.tool:<16}{r.avg_gadget_len:>11.1f}{r.avg_chain_len:>11.1f}"
            f"{r.pct_ret:>7.1f}{r.pct_ij:>7.1f}{r.pct_dj:>7.1f}{r.pct_cj:>7.1f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Fig. 5 — payloads per individual obfuscation method
# ---------------------------------------------------------------------------


def fig5_per_method(
    programs: Sequence[str] = CORE_SUITE,
    seed: int = DEFAULT_SEED,
) -> Dict[str, int]:
    """Gadget-Planner payload counts per single obfuscation method."""
    out: Dict[str, int] = {}
    for config in SINGLE_METHOD_CONFIGS:
        total = 0
        for program in programs:
            total += run_tool("gadget_planner", program, config.name, seed).total_payloads
        out[config.name] = total
    return out


def format_fig5(counts: Dict[str, int]) -> str:
    width = max(counts.values()) or 1
    lines = [f"{'method':<20}{'payloads':>9}  "]
    for method, count in sorted(counts.items(), key=lambda kv: -kv[1]):
        bar = "#" * int(30 * count / width)
        lines.append(f"{method:<20}{count:>9}  {bar}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table VI — SPEC benchmark comparison
# ---------------------------------------------------------------------------


@dataclass
class Table6Row:
    benchmark: str
    config: str
    gadgets: int
    chains: Dict[str, int]  # tool → chains


def table6_spec(
    configs: Sequence[str] = MAIN_CONFIGS,
    tools: Sequence[str] = TOOL_NAMES,
    seed: int = DEFAULT_SEED,
) -> List[Table6Row]:
    rows = []
    for name in SPEC_SUITE:
        for config in configs:
            image = build(name, config, seed).image
            gadget_count = len(scan_syntactic_gadgets(image))
            chains = {}
            for tool in tools:
                chains[tool] = run_tool(tool, name, config, seed).total_payloads
            rows.append(Table6Row(benchmark=name, config=config, gadgets=gadget_count, chains=chains))
    return rows


def format_table6(rows: List[Table6Row]) -> str:
    tools = list(rows[0].chains)
    header = f"{'benchmark':<14}{'config':<10}{'gadgets':>9}" + "".join(f"{t[:10]:>12}" for t in tools)
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.benchmark:<14}{r.config:<10}{r.gadgets:>9}"
            + "".join(f"{r.chains[t]:>12}" for t in tools)
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table VII — performance per stage on obfuscated netperf
# ---------------------------------------------------------------------------


@dataclass
class Table7Row:
    tool: str
    stage: str
    seconds: float
    peak_mb: float


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _table7_rows(tool: str, image_bytes: bytes) -> List[Table7Row]:
    """One tool's rows, measured in the process that runs it.

    Stage times are the tool's own clocks (span walls for
    Gadget-Planner); peak MB is this process's peak RSS, interpreter and
    imports included.
    """
    image = BinaryImage.from_bytes(image_bytes)
    if tool == "gadget_planner":
        t = GadgetPlanner(image, extraction=BENCH_EXTRACTION, planner=BENCH_PLANNER).run().timings
        stages = [
            ("gadget extraction", t.extraction),
            ("subsumption testing", t.subsumption),
            ("planning", t.planning),
            ("post-processing", t.postprocessing),
            ("total", t.total),
        ]
    else:
        report = _make_tool(tool).run(image)
        stages = [
            ("gadgets finding", report.finding_time),
            ("chain generating", report.chaining_time),
            ("total", report.finding_time + report.chaining_time),
        ]
    peak_mb = _peak_rss_mb()
    return [Table7Row(tool, stage, seconds, peak_mb) for stage, seconds in stages]


def table7_performance(config: str = "llvm_obf", seed: int = DEFAULT_SEED) -> List[Table7Row]:
    """Per-stage time and peak memory of each tool on obfuscated netperf.

    Each tool runs untraced in a fresh child process, so ``getrusage``'s
    peak RSS belongs to that tool alone.
    """
    from .netperf import netperf_image

    image_bytes = netperf_image(CONFIGS[config], seed=seed).image.to_bytes()
    rows: List[Table7Row] = []
    for tool in ("gadget_planner", "angrop", "sgc"):
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            rows += pool.apply(_table7_rows, (tool, image_bytes))
    return rows


def format_table7(rows: List[Table7Row]) -> str:
    header = f"{'tool':<16}{'stage':<22}{'time (s)':>10}{'peak MB':>10}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(f"{r.tool:<16}{r.stage:<22}{r.seconds:>10.2f}{r.peak_mb:>10.1f}")
    return "\n".join(lines)
