"""Table VII — per-stage time and memory on the obfuscated netperf.

Paper shape: extraction and subsumption dominate Gadget-Planner's
runtime while planning is comparatively cheap (the earlier stages
shrink the search space); angrop is the fastest tool overall.
"""

import time


from repro.bench import (
    BENCH_EXTRACTION,
    DEFAULT_SEED,
    format_table7,
    netperf_image,
    table7_performance,
)
from repro.fuzz.oracles import reference_scan
from repro.gadgets import ExtractionConfig, ExtractionStats, extract, extract_gadgets
from repro.gadgets.extract import candidate_offsets
from repro.obfuscation.pipeline import CONFIGS
from repro.staticanalysis import DecodeGraph


def test_table7_performance(benchmark, record_table):
    rows = benchmark.pedantic(table7_performance, iterations=1, rounds=1)
    record_table(
        "table7_performance",
        "Table VII: stage times on obfuscated netperf-like",
        format_table7(rows),
    )
    gp = {r.stage: r for r in rows if r.tool == "gadget_planner"}
    assert gp["total"].seconds > 0
    # Planning is cheap relative to extraction + subsumption.
    heavy = gp["gadget extraction"].seconds + gp["subsumption testing"].seconds
    assert gp["planning"].seconds <= heavy

    angrop_total = next(r for r in rows if r.tool == "angrop" and r.stage == "total")
    assert angrop_total.seconds <= gp["total"].seconds, "angrop should be the fastest"


def test_extraction_stage_speedup(benchmark, record_table, monkeypatch):
    """The static-analysis layer's effect on the extraction stage:

    * the candidate scan's bounded DFS over the shared
      :class:`DecodeGraph`'s successor table is several-fold faster than
      the same walk decoding at every step (the fuzz oracle's
      reference), with identical candidates;
    * the semantic prefilter then drops a quarter-plus of the surviving
      candidates before symbolic execution, with an identical pool.
    """
    image = netperf_image(CONFIGS["llvm_obf"], seed=DEFAULT_SEED).image
    config = ExtractionConfig(
        max_insns=BENCH_EXTRACTION.max_insns,
        max_paths=BENCH_EXTRACTION.max_paths,
        max_candidates=BENCH_EXTRACTION.max_candidates,
    )

    def decode_walk(graph, offset, config):
        return reference_scan(graph.code, graph.base_addr, offset, config)

    def scan():
        return candidate_offsets(image, config, DecodeGraph(image.text.data, image.text.addr))

    def run():
        t0 = time.perf_counter()
        with monkeypatch.context() as patch:
            patch.setattr(extract, "syntactic_scan", decode_walk)
            legacy = scan()
        t1 = time.perf_counter()
        shared = scan()
        t2 = time.perf_counter()
        stats = ExtractionStats()
        extract_gadgets(image, config, stats)
        t3 = time.perf_counter()
        return legacy, shared, stats, t1 - t0, t2 - t1, t3 - t2

    legacy, shared, stats, legacy_s, shared_s, full_s = benchmark.pedantic(
        run, iterations=1, rounds=1
    )
    text = (
        f"candidate scan, legacy decode loop:  {legacy_s:.2f}s\n"
        f"candidate scan, successor table:     {shared_s:.2f}s "
        f"({legacy_s / shared_s:.1f}x faster)\n"
        f"full extraction (graph + prefilter): {full_s:.2f}s\n"
        f"candidates: {len(shared)}, culled by prefilter: "
        f"{stats.semantically_culled} ({stats.cull_ratio:.1%}), "
        f"symex invocations: {stats.symex_invocations}"
    )
    record_table(
        "table7_extraction_speedup",
        "Extraction-stage speedup from the static-analysis layer",
        text,
    )
    assert shared == legacy, "shared decode graph must not change the scan"
    assert shared_s * 2 < legacy_s, "shared decode graph should be >=2x faster"
    assert stats.cull_ratio >= 0.25
    assert stats.symex_invocations < stats.candidates
