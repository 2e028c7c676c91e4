"""Ablation: the semantic gadget prefilter (DecodeGraph.reaches_transfer_within).

The prefilter sits between the syntactic scan and the symbolic
executor: candidates whose decode graph proves them unable to reach an
indirect transfer within the window budget are culled without symbolic
execution.  Soundness means the gadget pool must be *identical* either
way — the ablation therefore reports pure overhead/savings, not a
quality trade-off.
"""

import time

import pytest

from repro.bench import BENCH_EXTRACTION, DEFAULT_SEED, netperf_image
from repro.gadgets import ExtractionConfig, ExtractionStats, extract_gadgets
from repro.obfuscation.pipeline import CONFIGS

CONFIG = "llvm_obf"


@pytest.fixture(scope="module")
def image():
    return netperf_image(CONFIGS[CONFIG], seed=DEFAULT_SEED).image


def _extraction(**overrides):
    base = dict(
        max_insns=BENCH_EXTRACTION.max_insns,
        max_paths=BENCH_EXTRACTION.max_paths,
        max_candidates=BENCH_EXTRACTION.max_candidates,
    )
    base.update(overrides)
    return ExtractionConfig(**base)


def test_ablation_semantic_prefilter(benchmark, record_table, image):
    def run():
        on_stats, off_stats = ExtractionStats(), ExtractionStats()
        t0 = time.perf_counter()
        with_filter = extract_gadgets(
            image, _extraction(semantic_prefilter=True), on_stats
        )
        t1 = time.perf_counter()
        without_filter = extract_gadgets(
            image, _extraction(semantic_prefilter=False), off_stats
        )
        t2 = time.perf_counter()
        return with_filter, without_filter, on_stats, off_stats, t1 - t0, t2 - t1

    with_filter, without_filter, on_stats, off_stats, on_s, off_s = benchmark.pedantic(
        run, iterations=1, rounds=1
    )
    saved = off_stats.symex_invocations - on_stats.symex_invocations
    text = (
        f"program:                 netperf-like ({CONFIG}, seed {DEFAULT_SEED})\n"
        f"candidates:              {on_stats.candidates}\n"
        f"semantically culled:     {on_stats.semantically_culled} "
        f"({on_stats.cull_ratio:.1%})\n"
        f"symex calls saved:       {saved} "
        f"({on_stats.symex_invocations} vs {off_stats.symex_invocations})\n"
        f"wall-clock with filter:  {on_s:.2f}s\n"
        f"wall-clock without:      {off_s:.2f}s\n"
        f"wall-clock delta:        {off_s - on_s:+.2f}s\n"
        f"records (both):          {len(with_filter)}"
    )
    record_table("ablation_prefilter", "Ablation: semantic gadget prefilter", text)

    # Soundness: the pool is byte-for-byte the work product either way.
    assert [r.__dict__ for r in with_filter] == [r.__dict__ for r in without_filter]
    # Effectiveness: the paper-scale budget culls a solid share of the
    # obfuscated binary's candidates before any symbolic execution.
    assert on_stats.cull_ratio >= 0.25
    assert on_stats.symex_invocations == on_stats.candidates - on_stats.semantically_culled
