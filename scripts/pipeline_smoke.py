#!/usr/bin/env python
"""CI smoke test for the repro.pipeline fast paths and trace export.

Tiny binary, ``--jobs 2``: a cold run populates the cache, a warm run
must hit it, perform zero symbolic execution, and return the identical
pool.  Both runs are recorded with ``repro.obs`` tracers; the cold
trace is written to JSONL and validated against the trace schema, and
two warm traces must agree byte for byte once timestamps are stripped.

A solver smoke traces one query the word-level pass refutes and one it
leaves to the blast: the export must hold the latter's ``solver.blast``
(vars, clauses) and ``solver.sat`` (conflicts) spans, and ``nfl
trace``'s summary a slow-query log with both.

A defense-census smoke rides on the warm cache: the combined
coarse-CFI + W^X policy filtered over the same obfuscated image must
leave a nonzero surviving pool and produce a schema-valid census
artifact.  Budgeted well under a minute on a 1-core runner.
"""

import sys
import tempfile
import time
from pathlib import Path

from repro.bench.harness import build
from repro.gadgets.extract import ExtractionConfig, ExtractionStats
from repro.obs import (
    Tracer,
    format_trace_summary,
    metrics,
    reset_metrics,
    strip_timestamps,
    tracing,
    validate_trace_file,
)
from repro.pipeline import ResultCache, pool_to_bytes, run_pipeline
from repro.solver import Solver
from repro.symex.expr import CmpOp, bv_const, bv_ne, bv_sym, cmp

#: The extraction stage's spans directly under the ``pipeline`` root.
STAGE_SPANS = ("extract.cache", "extract", "extract.cache.store")


def _traced_extract(image, config, cache):
    stats = ExtractionStats()
    reset_metrics()
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracing(tracer):
        records, _ = run_pipeline(
            image, config, jobs=2, cache=cache, winnow=False, extraction_stats=stats
        )
    return records, stats, time.perf_counter() - t0, tracer


def main() -> int:
    image = build("bubble_sort", "llvm_obf", 7).image
    config = ExtractionConfig(max_insns=6, max_paths=2)
    with tempfile.TemporaryDirectory(prefix="nfl-smoke-") as td:
        cache = ResultCache(root=Path(td))

        cold, cold_stats, cold_wall, cold_tracer = _traced_extract(image, config, cache)
        trace_path = Path(td) / "cold.jsonl"
        span_count = cold_tracer.write_jsonl(trace_path, metrics=metrics().to_dict())
        spans = validate_trace_file(trace_path)
        names = {s["name"] for s in spans}

        warm, warm_stats, warm_wall, warm_tracer = _traced_extract(image, config, cache)
        _, _, _, warm_tracer2 = _traced_extract(image, config, cache)

    print(
        f"cold: {len(cold)} gadgets in {cold_wall:.2f}s "
        f"(jobs={cold_stats.jobs}, symex={cold_stats.symex_invocations}) | "
        f"warm: {warm_wall:.3f}s "
        f"(cache_hits={warm_stats.cache_hits}, symex={warm_stats.symex_invocations}) | "
        f"trace: {span_count} spans"
    )
    assert cold_stats.cache_misses == 1, "cold run should miss the empty cache"
    assert warm_stats.cache_hits == 1, "warm run must reuse the cached pool"
    assert warm_stats.symex_invocations == 0, "warm run must not re-execute"
    assert warm_stats.jobs == 2, "warm run must report the configured jobs"
    assert pool_to_bytes(warm) == pool_to_bytes(cold), "warm pool differs from cold"
    assert {"pipeline", "extract.plan", "extract.symex", *STAGE_SPANS} <= names, (
        f"trace missing stages: {names}"
    )
    assert any(s["name"] == "extract.symex.run" for s in spans), "no worker shard spans"
    stage_wall = sum(s["wall"] for s in spans if s["parent"] == 0 and s["name"] in STAGE_SPANS)
    assert abs(stage_wall - cold_stats.wall_total) <= 0.05 * max(
        cold_stats.wall_total, 1e-9
    ), "the stage's span walls must sum to the span-derived stats"
    assert strip_timestamps(warm_tracer.to_lines()) == strip_timestamps(
        warm_tracer2.to_lines()
    ), "warm traces must be byte-stable modulo timestamps"
    print("pipeline smoke OK")
    solver_smoke()
    defense_smoke(image, config)
    return 0


def solver_smoke() -> None:
    """Solver spans and the slow-query log in a schema-valid trace."""
    x, y = bv_sym("x"), bv_sym("y")
    cycle = [cmp(CmpOp.ULT, x, y), cmp(CmpOp.ULT, y, x)]
    # x u< y u< 2 forces x = 0: UNSAT, but only a blast can tell.
    blasted = [cmp(CmpOp.ULT, x, y), cmp(CmpOp.ULT, y, bv_const(2)), bv_ne(x, bv_const(0))]
    reset_metrics()
    tracer = Tracer()
    with tracing(tracer):
        assert Solver().check(cycle).is_unsat
        assert Solver().check(blasted).is_unsat
    with tempfile.TemporaryDirectory(prefix="nfl-smoke-") as td:
        trace_path = Path(td) / "solver.jsonl"
        tracer.write_jsonl(trace_path, metrics=metrics().to_dict())
        spans = validate_trace_file(trace_path)
        summary = format_trace_summary(trace_path.read_text().splitlines())
    by_name = {s["name"]: s for s in spans}
    assert {"vars", "clauses"} <= set(by_name["solver.blast"]["counters"]), by_name
    assert "conflicts" in by_name["solver.sat"]["counters"], by_name
    assert "solver.slow_queries (slowest 2):" in summary, summary
    assert "rule=order_cycle" in summary and "rule=-" in summary, summary
    print(f"solver smoke OK ({by_name['solver.blast']['counters']['clauses']} clauses)")


def defense_smoke(image, config) -> None:
    """Defense-census smoke: coarse CFI + W^X over the obfuscated image."""
    import json

    from repro.defenses import defense_census, parse_policy, validate_defense_matrix

    policy = parse_policy("coarse_cfi+wx")
    doc = defense_census(image, [policy, "none"], extraction=config)
    row = next(r for r in doc["policies"] if r["policy"] == policy.name)
    print(
        f"defense census [{policy.describe()}]: "
        f"{row['surviving']}/{row['pool_size']} gadgets survive "
        f"(cfi killed {row['killed_cfi']})"
    )
    assert doc["pool_size"] > 0, "no gadget pool to filter"
    assert 0 < row["surviving"] <= row["pool_size"], "coarse CFI+W^X left no surface"
    assert row["killed_cfi"] > 0, "obfuscated build should lose unaligned gadgets"
    baseline = next(r for r in doc["policies"] if r["policy"] == "none")
    assert baseline["surviving"] == doc["pool_size"]

    # The census row embeds into a schema-valid matrix artifact.
    entry = {
        "program": "bubble_sort",
        "config": "llvm_obf",
        "policy": policy.name,
        "pool_size": row["pool_size"],
        "surviving": row["surviving"],
        "survival_ratio": row["survival_ratio"],
        "payloads": 0,
        "goals_attempted": 0,
        "goals_succeeded": 0,
        "success_rate": 0.0,
        "blocked_by_defense": 0,
        "per_goal": {},
    }
    artifact = {
        "schema": "nfl-bench-defenses-v1",
        "programs": ["bubble_sort"],
        "configs": ["llvm_obf"],
        "policies": [policy.name],
        "entries": [json.loads(json.dumps(entry))],
    }
    validate_defense_matrix(artifact)
    print("defense smoke OK")


if __name__ == "__main__":
    sys.exit(main())
