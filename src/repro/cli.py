"""Command-line interface: the tools a release would ship.

::

    nfl cc prog.mc -o prog.nflf [--obfuscate llvm_obf] [--seed 7]
    nfl run prog.nflf [--step-limit N]
    nfl disasm prog.nflf [--start ADDR] [--count N]
    nfl gadgets prog.nflf [--types]
    nfl extract prog.nflf [--no-winnow] [--cache-dir PATH] [--no-cache] [--trace FILE]
    nfl census prog.nflf [--policies P1,P2] [--cache-dir PATH] [--no-cache] [--trace FILE]
    nfl plan prog.nflf [--goal execve|mprotect|mmap|all] [--defense POLICY] [--max-plans N]
    nfl fuzz [--seed N] [--iters N] [--oracle O1,O2] [--replay-corpus]
    nfl trace trace.jsonl
    nfl study prog.mc [--configs none,llvm_obf,...]

Every subcommand works on NFLF images produced by ``nfl cc`` (or by
:func:`repro.obfuscation.build_program` programmatically).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional, Union

from .binfmt.image import BinaryImage
from .emulator.cpu import run_image
from .gadgets.classify import count_by_type, scan_syntactic_gadgets
from .gadgets.extract import ExtractionConfig, ExtractionStats
from .gadgets.subsumption import SubsumptionStats
from .obs import (
    TraceSchemaError,
    Tracer,
    format_trace_summary,
    metrics,
    reset_metrics,
    tracing,
)
from .pipeline import ResultCache, run_pipeline
from .isa.disassembler import disassemble_lines
from .obfuscation.pipeline import CONFIGS, build_program
from .planner import (
    GadgetPlanner,
    PlannerConfig,
    standard_goals,
)


def _load_image(path: str) -> BinaryImage:
    return BinaryImage.from_bytes(Path(path).read_bytes())


def cmd_cc(args: argparse.Namespace) -> int:
    source = Path(args.source).read_text()
    config = CONFIGS[args.obfuscate]
    linked = build_program(source, config, seed=args.seed)
    out = args.output or (Path(args.source).stem + ".nflf")
    Path(out).write_bytes(linked.image.to_bytes())
    print(f"wrote {out}: {len(linked.image.text.data)} bytes of text, config={config.name}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    image = _load_image(args.binary)
    status, stdout = run_image(image, step_limit=args.step_limit)
    sys.stdout.write(stdout.decode(errors="replace"))
    return status


def cmd_disasm(args: argparse.Namespace) -> int:
    section = _load_image(args.binary).text
    end = section.addr + len(section.data)
    start = int(args.start, 0) if args.start else section.addr
    if not section.addr <= start < end:
        print(
            f"--start {start:#x} is outside the text section [{section.addr:#x}, {end:#x})",
            file=sys.stderr,
        )
        return 2
    count = 0
    for addr, text in disassemble_lines(section.data[start - section.addr :], base_addr=start):
        print(f"{addr:#010x}:  {text}")
        count += 1
        if args.count and count >= args.count:
            break
    return 0


def cmd_gadgets(args: argparse.Namespace) -> int:
    image = _load_image(args.binary)
    gadgets = scan_syntactic_gadgets(image, max_insns=args.max_insns)
    print(f"{len(gadgets)} syntactic gadgets")
    if args.types:
        for kind, count in sorted(count_by_type(gadgets).items(), key=lambda kv: -kv[1]):
            print(f"  {kind.value.upper():<5} {count}")
    if args.list:
        for g in gadgets[: args.list]:
            print(f"  {g.addr:#x}: " + "; ".join(str(i) for i in g.insns))
    return 0


@contextmanager
def _maybe_traced(args: argparse.Namespace) -> Iterator[Optional[Tracer]]:
    """Record the command body under a tracer when ``--trace FILE`` was
    given, writing the JSONL export (spans + final metrics snapshot) on
    the way out.  Without the flag this is a no-op."""
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        yield None
        return
    reset_metrics()
    tracer = Tracer()
    with tracing(tracer):
        yield tracer
    spans = tracer.write_jsonl(trace_path, metrics=metrics().to_dict())
    print(f"trace: {spans} spans written to {trace_path}", file=sys.stderr)


def _make_cache(args: argparse.Namespace) -> Optional[ResultCache]:
    """The ResultCache the pipeline flags describe (None = --no-cache)."""
    if getattr(args, "no_cache", False):
        return None
    if getattr(args, "cache_dir", None):
        return ResultCache(root=Path(args.cache_dir))
    return ResultCache()


def _cache_outcome(stats: Union[ExtractionStats, SubsumptionStats]) -> str:
    return "cache=" + ("hit" if stats.cache_hit else "miss" if stats.cache_misses else "off")


def _pipeline_stats_line(es: ExtractionStats, ss: Optional[SubsumptionStats]) -> str:
    """One line per run: each stage's counters, cache outcome and wall."""
    parts = [
        f"symex={es.symex_invocations}",
        f"culled={es.semantically_culled}/{es.candidates}",
        _cache_outcome(es),
        f"extract {es.wall_total:.2f}s",
    ]
    if ss is not None:
        parts += [
            f"solver_checks={ss.solver_checks}",
            f"memo={ss.memo_hits}/{ss.implication_queries}",
            _cache_outcome(ss),
            f"winnow {ss.wall_total:.2f}s",
        ]
    return "  ".join(parts)


def cmd_extract(args: argparse.Namespace) -> int:
    image = _load_image(args.binary)
    config = ExtractionConfig(max_insns=args.max_insns, max_paths=args.max_paths)
    es, ss = ExtractionStats(), SubsumptionStats()
    with _maybe_traced(args):
        records, survivors = run_pipeline(
            image,
            config,
            cache=_make_cache(args),
            winnow=not args.no_winnow,
            extraction_stats=es,
            winnow_stats=ss,
        )
    if survivors is None:
        print(f"{es.records} gadgets extracted")
        print(_pipeline_stats_line(es, None))
        shown = records
    else:
        print(f"{es.records} gadgets extracted, {len(survivors)} after subsumption")
        print(_pipeline_stats_line(es, ss))
        shown = survivors
    for record in shown[: args.list]:
        print(f"  {record}")
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    from .defenses import defense_census, format_defense_census

    image = _load_image(args.binary)
    policies = args.policies.split(",") if args.policies else None
    with _maybe_traced(args):
        doc = defense_census(
            image,
            policies,
            extraction=ExtractionConfig(max_insns=args.max_insns),
            cache=_make_cache(args),
        )
    print(format_defense_census(doc, title=args.binary))
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    image = _load_image(args.binary)
    goals = [g for g in standard_goals(image) if args.goal in ("all", g.name)]
    defense = None
    if args.defense:
        from .defenses import parse_policy

        defense = parse_policy(args.defense)
    planner = GadgetPlanner(
        image,
        extraction=ExtractionConfig(max_insns=args.max_insns),
        planner=PlannerConfig(max_plans=args.max_plans),
        defense=defense,
    )
    with _maybe_traced(args):
        report = planner.run(goals=goals)
    t = report.timings
    print(
        f"gadgets: {report.gadgets_total} extracted, "
        f"{report.gadgets_after_subsumption} after subsumption "
        f"(extraction {t.extraction:.1f}s, subsumption {t.subsumption:.1f}s, "
        f"planning {t.planning:.1f}s)"
    )
    if defense is not None:
        print(
            f"defense: {defense.describe()} — "
            f"{report.gadgets_surviving} gadgets survive, "
            f"{report.blocked_by_defense} payload(s) blocked, "
            f"{report.leaks_used} leak(s) used"
        )
    print(f"validated payloads: {report.per_goal}")
    for payload in report.payloads:
        print()
        print(payload.describe())
    return 0 if report.total_payloads else 1


def cmd_trace(args: argparse.Namespace) -> int:
    try:
        lines = Path(args.trace_file).read_text().splitlines()
        print(format_trace_summary(lines))
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 1
    except TraceSchemaError as exc:
        print(f"invalid trace: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    source = Path(args.source).read_text()
    configs = args.configs.split(",")
    header = f"{'config':<20}{'text':>8}{'gadgets':>9}{'payloads':>10}"
    print(header)
    print("-" * len(header))
    for name in configs:
        linked = build_program(source, CONFIGS[name], seed=args.seed)
        gadget_count = len(scan_syntactic_gadgets(linked.image))
        planner = GadgetPlanner(linked.image, planner=PlannerConfig(max_plans=args.max_plans))
        payloads = planner.run().total_payloads
        print(f"{name:<20}{len(linked.image.text.data):>8}{gadget_count:>9}{payloads:>10}")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import find_repo_corpus, load_corpus, replay_corpus, run_fuzz

    oracles = None
    if args.oracle is not None:
        oracles = [name.strip() for name in args.oracle.split(",") if name.strip()]
    corpus_dir = None
    if not args.no_bank:
        corpus_dir = Path(args.corpus) if args.corpus else find_repo_corpus()
    with _maybe_traced(args):
        if args.replay_corpus:
            target = Path(args.corpus) if args.corpus else find_repo_corpus()
            if target is None:
                print("no corpus directory found (pass --corpus)", file=sys.stderr)
                return 2
            cases = load_corpus(target)
            failures = replay_corpus(target)
            for message in failures:
                print(f"  FAIL {message}")
            status = "OK" if not failures else "FAILURES"
            print(f"corpus replay: {status} ({len(cases)} case(s), {len(failures)} failure(s))")
            return 1 if failures else 0

        def found(oracle: str, iteration: int, messages: List[str]) -> None:
            # Printed before shrinking, so a run killed mid-campaign
            # still names the draw that failed.
            print(f"  found [{oracle}] iter {iteration}: {messages[0]}", flush=True)

        try:
            report = run_fuzz(
                seed=args.seed,
                iters=args.iters,
                oracles=oracles,
                corpus_dir=corpus_dir,
                shrink=not args.no_shrink,
                on_failure=found,
            )
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
    print(report.summary())
    return 1 if report.failures else 0


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="result cache root (default: ~/.cache/nfl or $NFL_CACHE_DIR)",
    )
    p.add_argument("--no-cache", action="store_true", help="disable the persistent result cache")
    _add_trace_flag(p)


def _add_trace_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace",
        metavar="FILE",
        help="write a span/metrics trace (JSONL; inspect with `nfl trace FILE`)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfl",
        description="Gadget-Planner toolchain (No Free Lunch, DSN'23 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cc", help="compile MC source to an NFLF binary")
    p.add_argument("source")
    p.add_argument("-o", "--output")
    p.add_argument("--obfuscate", default="none", choices=sorted(CONFIGS))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_cc)

    p = sub.add_parser("run", help="execute an NFLF binary in the emulator")
    p.add_argument("binary")
    p.add_argument("--step-limit", type=int, default=50_000_000)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("disasm", help="disassemble the text section")
    p.add_argument("binary")
    p.add_argument("--start")
    p.add_argument("--count", type=int, default=0)
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser("gadgets", help="syntactic gadget census (Fig. 1 view)")
    p.add_argument("binary")
    p.add_argument("--types", action="store_true", help="break down by Table I type")
    p.add_argument("--list", type=int, default=0, help="print the first N gadgets")
    p.add_argument("--max-insns", type=int, default=8)
    p.set_defaults(func=cmd_gadgets)

    p = sub.add_parser("extract", help="semantic gadget extraction (cached)")
    p.add_argument("binary")
    p.add_argument("--max-insns", type=int, default=12)
    p.add_argument("--max-paths", type=int, default=6)
    p.add_argument("--no-winnow", action="store_true", help="skip subsumption winnowing")
    p.add_argument("--list", type=int, default=0, help="print the first N gadgets")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("census", help="surviving attack surface per mitigation policy")
    p.add_argument("binary")
    p.add_argument(
        "--policies",
        metavar="P1,P2,...",
        help="policy names (e.g. coarse_cfi,wx or coarse_cfi+wx; default: every policy)",
    )
    p.add_argument("--max-insns", type=int, default=8)
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("plan", help="run Gadget-Planner against a binary")
    p.add_argument("binary")
    p.add_argument("--goal", default="all", choices=["all", "execve", "mprotect", "mmap"])
    p.add_argument("--max-plans", type=int, default=8)
    p.add_argument("--max-insns", type=int, default=12)
    p.add_argument(
        "--defense",
        metavar="POLICY",
        help="plan against a mitigation policy (name or A+B combo, see `repro.defenses`)",
    )
    _add_trace_flag(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("fuzz", help="deterministic differential fuzzing across layers")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument(
        "--oracle",
        metavar="O1,O2,...",
        help="restrict to a comma-separated oracle subset (default: all, on their schedules)",
    )
    p.add_argument(
        "--corpus",
        metavar="DIR",
        help="regression-corpus directory (default: the repo's tests/corpus when found)",
    )
    p.add_argument(
        "--no-bank", action="store_true", help="do not write shrunken reproducers to the corpus"
    )
    p.add_argument("--no-shrink", action="store_true", help="skip auto-shrinking failures")
    p.add_argument(
        "--replay-corpus", action="store_true", help="replay every banked case and exit"
    )
    _add_trace_flag(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("trace", help="summarize a JSONL trace written by --trace")
    p.add_argument("trace_file")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("study", help="per-config attack-surface study of one program")
    p.add_argument("source")
    p.add_argument("--configs", default="none,llvm_obf,tigress")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--max-plans", type=int, default=6)
    p.set_defaults(func=cmd_study)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
