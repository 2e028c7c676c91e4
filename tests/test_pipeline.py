"""repro.pipeline — determinism, serialization, and cache correctness.

The performance layer's contract is strict: for any worker count the
pools are byte-identical to the in-process stage drivers, and a cache
hit returns the identical pool while performing zero symbolic
execution.  Everything here runs on small windows so tier-1 stays fast;
timings are measured by the repository benchmark, ``nflbench``.
"""

import dataclasses

import pytest

from repro.bench.harness import build
from repro.gadgets.extract import ExtractionConfig, ExtractionStats, extract_gadgets
from repro.gadgets.record import GadgetRecord
from repro.gadgets.subsumption import (
    WINNOW_MAX_CONFLICTS,
    SubsumptionStats,
    bucketize,
    deduplicate_gadgets,
    fingerprint,
    winnow_bucket,
)
from repro.pipeline import (
    ResultCache,
    extract_pool,
    pool_from_bytes,
    pool_to_bytes,
    record_from_bytes,
    record_to_bytes,
    run_pipeline,
    winnow_pool,
)
from repro.solver.solver import Solver
from repro.symex.expr import bv_add, bv_const, bv_eq, bv_ne, bv_sub, bv_sym

SMALL = ExtractionConfig(max_insns=5, max_paths=2)

#: (program, obfuscation config) triple the determinism tests sweep —
#: plain, LLVM-style, and Tigress-style builds exercise different
#: gadget shapes (aligned/unaligned mixes, dispatcher chains).
TARGETS = [
    ("bubble_sort", "none"),
    ("bubble_sort", "llvm_obf"),
    ("binary_search", "tigress"),
]


def _image(name, config_name):
    return build(name, config_name, 7).image


# -- canonical serialization ------------------------------------------------


def test_record_round_trip_identity():
    image = _image("bubble_sort", "llvm_obf")
    records = extract_gadgets(image, SMALL)
    assert records, "need a non-empty pool to round-trip"
    for record in records:
        blob = record_to_bytes(record)
        restored = record_from_bytes(blob)
        assert restored == record
        assert record_to_bytes(restored) == blob


def test_record_methods_round_trip():
    image = _image("bubble_sort", "none")
    record = extract_gadgets(image, SMALL)[0]
    restored = GadgetRecord.from_bytes(record.to_bytes())
    assert restored == record
    # Expressions restore to the exact same structure, not just equal
    # values — pre/post survive another serialization byte for byte.
    assert restored.to_bytes() == record.to_bytes()


def test_pool_round_trip_and_determinism():
    image = _image("bubble_sort", "llvm_obf")
    records = extract_gadgets(image, SMALL)
    blob = pool_to_bytes(records)
    assert pool_to_bytes(pool_from_bytes(blob)) == blob
    # Re-extracting yields the same bytes: the encoding is canonical.
    assert pool_to_bytes(extract_gadgets(image, SMALL)) == blob


# -- parallel == serial -----------------------------------------------------


@pytest.mark.parametrize("name,config_name", TARGETS)
def test_parallel_extraction_byte_identical(name, config_name):
    image = _image(name, config_name)
    serial = pool_to_bytes(extract_gadgets(image, SMALL))
    for jobs in (1, 2, 4):
        stats = ExtractionStats()
        parallel = extract_pool(image, SMALL, stats, jobs=jobs)
        assert pool_to_bytes(parallel) == serial, f"jobs={jobs}"
        assert stats.jobs == jobs
        assert stats.records == len(parallel)


@pytest.mark.parametrize("name,config_name", TARGETS)
def test_parallel_winnow_byte_identical(name, config_name):
    image = _image(name, config_name)
    records = extract_gadgets(image, SMALL)
    ser_stats = SubsumptionStats()
    serial = pool_to_bytes(deduplicate_gadgets(records, stats=ser_stats))
    for jobs in (1, 2, 4):
        stats = SubsumptionStats()
        parallel = winnow_pool(records, stats, jobs=jobs)
        assert pool_to_bytes(parallel) == serial, f"jobs={jobs}"
        assert stats.solver_checks == ser_stats.solver_checks
        assert stats.output_count == ser_stats.output_count

    # The caller's conflict budget holds in every worker: with one
    # conflict the probe's implication answers UNKNOWN and both probe
    # records survive; the default budget proves it and drops one.
    probed = _budget_probe(records[0]) + [
        r for r in records if fingerprint(r) != fingerprint(records[0])
    ]
    tiny = deduplicate_gadgets(probed, solver=Solver(max_conflicts=1))
    assert len(tiny) == len(deduplicate_gadgets(probed)) + 1
    for jobs in (1, 2):
        parallel = winnow_pool(probed, jobs=jobs, solver=Solver(max_conflicts=1))
        assert pool_to_bytes(parallel) == pool_to_bytes(tiny), f"jobs={jobs}"


def _budget_probe(record):
    """Two copies of ``record`` whose subsumption needs a solver proof of
    ``(x - y == 0) -> (x == y)`` (about 200 conflicts)."""
    x, y = bv_sym("rax0"), bv_sym("rbx0")
    weaker = [bv_eq(x, y)]
    stronger = [bv_eq(bv_sub(x, y), bv_const(0)), bv_ne(x, bv_const(5))]
    return [
        dataclasses.replace(record, location=record.location + 1, pre_cond=weaker),
        dataclasses.replace(record, location=record.location + 2, pre_cond=stronger),
    ]


# -- persistent cache -------------------------------------------------------


def test_cache_hit_identical_and_skips_symex(tmp_path):
    image = _image("bubble_sort", "llvm_obf")
    cache = ResultCache(root=tmp_path)
    cold_stats = ExtractionStats()
    cold = extract_pool(image, SMALL, cold_stats, jobs=1, cache=cache)
    assert cold_stats.cache_misses == 1 and cold_stats.symex_invocations > 0

    warm_stats = ExtractionStats()
    warm = extract_pool(image, SMALL, warm_stats, jobs=1, cache=cache)
    assert pool_to_bytes(warm) == pool_to_bytes(cold)
    assert warm_stats.cache_hits == 1
    assert warm_stats.symex_invocations == 0, "warm run must not re-execute"
    # Candidate/cull counters survive through the entry metadata.
    assert warm_stats.candidates == cold_stats.candidates
    assert warm_stats.semantically_culled == cold_stats.semantically_culled


def test_cache_invalidates_on_image_and_config_change(tmp_path):
    cache = ResultCache(root=tmp_path)
    image = _image("bubble_sort", "llvm_obf")
    extract_pool(image, SMALL, jobs=1, cache=cache)

    # Different image bytes -> different key -> miss.
    other_stats = ExtractionStats()
    extract_pool(_image("binary_search", "llvm_obf"), SMALL, other_stats, jobs=1, cache=cache)
    assert other_stats.cache_hits == 0 and other_stats.cache_misses == 1

    # Different config -> different key -> miss.
    tweaked = ExtractionConfig(max_insns=SMALL.max_insns + 1, max_paths=SMALL.max_paths)
    cfg_stats = ExtractionStats()
    extract_pool(image, tweaked, cfg_stats, jobs=1, cache=cache)
    assert cfg_stats.cache_hits == 0 and cfg_stats.cache_misses == 1


def test_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(root=tmp_path)
    image = _image("bubble_sort", "none")
    extract_pool(image, SMALL, jobs=1, cache=cache)
    (entry,) = list(tmp_path.rglob("*.pool"))
    entry.write_bytes(b"NFLC garbage")
    stats = ExtractionStats()
    records = extract_pool(image, SMALL, stats, jobs=1, cache=cache)
    assert stats.cache_hits == 0 and stats.cache_misses == 1
    assert records == extract_gadgets(image, SMALL)


def test_winnow_cache_round_trip(tmp_path):
    cache = ResultCache(root=tmp_path)
    image = _image("bubble_sort", "llvm_obf")
    records = extract_gadgets(image, SMALL)
    cold = winnow_pool(records, jobs=1, cache=cache, image=image, config=SMALL)
    warm_stats = SubsumptionStats()
    warm = winnow_pool(records, warm_stats, jobs=1, cache=cache, image=image, config=SMALL)
    assert pool_to_bytes(warm) == pool_to_bytes(cold)
    assert warm_stats.cache_hits == 1
    assert warm_stats.solver_checks == 0, "warm winnow must not re-check"


def test_winnow_cache_keyed_by_solver_budget(tmp_path):
    """A winnow at one conflict budget never serves a planner at another:
    a 2000-conflict winnow then a 4000-conflict ``GadgetPlanner`` on one
    cache is a winnow miss.  A default-budget winnow, as ``nfl extract``
    runs it, fills the plain ``winnow`` entry the planner then hits."""
    from repro.planner import GadgetPlanner

    image = _image("bubble_sort", "none")
    records = extract_gadgets(image, SMALL)

    def planner_winnow(cache):
        planner = GadgetPlanner(image, extraction=SMALL, cache=cache, validate=False)
        assert planner.solver.max_conflicts == WINNOW_MAX_CONFLICTS == 4000
        report = planner.run(goals=[])
        assert report.extraction_stats.cache_hits == 1
        return report.subsumption_stats

    cache = ResultCache(root=tmp_path / "budgets")
    extract_pool(image, SMALL, cache=cache)
    winnow_pool(
        records, solver=Solver(max_conflicts=2000), cache=cache, image=image, config=SMALL
    )
    stats = planner_winnow(cache)
    assert stats.cache_misses == 1 and stats.cache_hits == 0

    shared = ResultCache(root=tmp_path / "shared")
    extract_pool(image, SMALL, cache=shared)
    winnowed = winnow_pool(records, cache=shared, image=image, config=SMALL)
    assert planner_winnow(shared).cache_hits == 1
    loaded, _ = shared.load_pool("winnow", image.to_bytes(), SMALL)
    assert pool_to_bytes(loaded) == pool_to_bytes(winnowed)


def test_run_pipeline_warm_end_to_end(tmp_path):
    image = _image("bubble_sort", "llvm_obf")
    cache = ResultCache(root=tmp_path)
    cold_records, cold_survivors = run_pipeline(image, SMALL, jobs=2, cache=cache)
    es, ss = ExtractionStats(), SubsumptionStats()
    records, survivors = run_pipeline(
        image, SMALL, jobs=2, cache=cache, extraction_stats=es, winnow_stats=ss
    )
    assert es.cache_hit and ss.cache_hit
    assert es.symex_invocations == 0 and ss.solver_checks == 0
    assert pool_to_bytes(records) == pool_to_bytes(cold_records)
    assert pool_to_bytes(survivors) == pool_to_bytes(cold_survivors)


# -- memoization ------------------------------------------------------------


def test_solver_check_memo():
    solver = Solver()
    x = bv_sym("x")
    query = [bv_eq(bv_add(x, bv_const(1)), bv_const(60))]
    first = solver.check(query)
    second = solver.check(query)
    assert solver.queries == 2 and solver.memo_hits == 1
    assert second.status == first.status and second.model == first.model
    # The cached model is a copy: mutating it must not poison the memo.
    second.model["x"] = 0
    assert solver.check(query).model == first.model


def test_winnow_memo_counters():
    image = _image("bubble_sort", "llvm_obf")
    records = extract_gadgets(image, ExtractionConfig(max_insns=6, max_paths=3))
    stats = SubsumptionStats()
    survivors = deduplicate_gadgets(records, stats=stats)
    assert stats.memo_hits <= stats.implication_queries
    assert 0.0 <= stats.memo_hit_rate <= 1.0
    # The memo must not change the outcome.
    solver = Solver(max_conflicts=WINNOW_MAX_CONFLICTS)
    unmemoized = [g for bucket in bucketize(records) for g in winnow_bucket(bucket, solver)]
    unmemoized.sort(key=lambda g: g.location)
    assert pool_to_bytes(survivors) == pool_to_bytes(unmemoized)


# -- CLI --------------------------------------------------------------------


def test_cli_extract_cold_then_warm(tmp_path, capsys):
    from repro.cli import main

    image = _image("bubble_sort", "llvm_obf")
    binary = tmp_path / "prog.nflf"
    binary.write_bytes(image.to_bytes())
    cache_dir = tmp_path / "cache"

    argv = [
        "extract",
        str(binary),
        "--max-insns",
        "5",
        "--max-paths",
        "2",
        "--jobs",
        "2",
        "--cache-dir",
        str(cache_dir),
    ]
    assert main(argv) == 0
    cold_out = capsys.readouterr().out
    assert "cache=miss" in cold_out and "jobs=2" in cold_out

    assert main(argv) == 0
    warm_out = capsys.readouterr().out
    assert "cache=hit" in warm_out and "symex=0" in warm_out
    # Same pool either way: the summary head line is identical.
    assert cold_out.splitlines()[0] == warm_out.splitlines()[0]


def test_cli_census_semantic_no_cache(tmp_path, capsys):
    from repro.cli import main

    image = _image("bubble_sort", "none")
    binary = tmp_path / "prog.nflf"
    binary.write_bytes(image.to_bytes())
    assert (
        main(["census", str(binary), "--semantic", "--max-insns", "4", "--jobs", "1", "--no-cache"])
        == 0
    )
    out = capsys.readouterr().out
    assert "after subsumption" in out and "cache=off" in out


# -- warm-cache stats regression --------------------------------------------


def test_warm_cache_reports_requested_jobs(tmp_path):
    """A cache hit used to leave ``stats.jobs`` at its default (1),
    misreporting the run's configuration in summaries and BENCH files."""
    image = _image("bubble_sort", "llvm_obf")
    cache = ResultCache(root=tmp_path)
    run_pipeline(image, SMALL, jobs=2, cache=cache)  # populate

    es, ss = ExtractionStats(), SubsumptionStats()
    run_pipeline(image, SMALL, jobs=3, cache=cache, extraction_stats=es, winnow_stats=ss)
    assert es.cache_hit and ss.cache_hit
    assert es.jobs == 3, "warm extract must report the configured jobs"
    assert ss.jobs == 3, "warm winnow must report the configured jobs"


def test_cli_warm_summary_line_reports_jobs(tmp_path, capsys):
    from repro.cli import main

    image = _image("bubble_sort", "llvm_obf")
    binary = tmp_path / "prog.nflf"
    binary.write_bytes(image.to_bytes())
    argv = [
        "extract", str(binary),
        "--max-insns", "5", "--max-paths", "2",
        "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0
    warm_line = next(
        line for line in capsys.readouterr().out.splitlines() if "cache=hit" in line
    )
    assert "jobs=2" in warm_line


# -- worker decode-graph preload --------------------------------------------


def test_extract_worker_initializer_preloads_graph():
    from repro.gadgets.extract import plan_candidates
    from repro.pipeline.parallel import _WORKER, _extract_chunk, _init_extract_worker

    image = _image("bubble_sort", "none")
    graph, candidates = plan_candidates(image, SMALL)
    serial = pool_to_bytes(extract_gadgets(image, SMALL))

    _init_extract_worker(image.text.data, image.text.addr, SMALL, graph)
    assert _WORKER["executor"]._decode_cache, "graph cache must be preloaded"
    with_graph, tree, _ = _extract_chunk((0, candidates))
    assert tree["name"] == "extract.symex.run" and tree["counters"]["shard"] == 0

    # Spawn-style contexts pass no graph; the pool must not change.
    _init_extract_worker(image.text.data, image.text.addr, SMALL, None)
    without_graph, _, _ = _extract_chunk((0, candidates))
    assert with_graph == without_graph == serial


# -- cache corruption and concurrency ---------------------------------------


def _stored_entry(tmp_path, name="bubble_sort"):
    cache = ResultCache(root=tmp_path)
    image = _image(name, "none")
    image_bytes = image.to_bytes()
    records = extract_gadgets(image, SMALL)
    path = cache.store_pool("extract", image_bytes, SMALL, records, meta={"candidates": 3})
    return cache, image_bytes, records, path


def test_cache_truncated_entry_deleted_and_missed(tmp_path):
    cache, image_bytes, _, path = _stored_entry(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    assert cache.load_pool("extract", image_bytes, SMALL) is None
    assert not path.exists(), "corrupt entry must be unlinked"
    assert cache.stats.misses == 1


def test_cache_short_blob_header_is_a_miss(tmp_path):
    """A blob shorter than magic + length word makes the header
    ``struct.unpack_from`` raise — that must read as a miss, not crash."""
    cache, image_bytes, _, path = _stored_entry(tmp_path)
    path.write_bytes(b"NFLC\x07")
    assert cache.load_pool("extract", image_bytes, SMALL) is None
    assert not path.exists()


def test_cache_concurrent_stores_race_benignly(tmp_path):
    import threading

    cache, image_bytes, records, path = _stored_entry(tmp_path)
    path.unlink()
    barrier = threading.Barrier(2)
    errors = []

    def store():
        try:
            barrier.wait(timeout=10)
            ResultCache(root=tmp_path).store_pool(
                "extract", image_bytes, SMALL, records, meta={"candidates": 3}
            )
        except Exception as exc:  # pragma: no cover - the assertion target
            errors.append(exc)

    threads = [threading.Thread(target=store) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    # Whichever os.replace landed last, the entry is whole and loadable,
    # and no temp files leak.
    loaded, meta = cache.load_pool("extract", image_bytes, SMALL)
    assert pool_to_bytes(loaded) == pool_to_bytes(records)
    assert meta == {"candidates": 3}
    assert list(tmp_path.rglob("*.tmp")) == []


# -- trace structure ---------------------------------------------------------


def _traced_pipeline(image, cache, jobs):
    from repro.obs import Tracer, metrics, reset_metrics, tracing

    es, ss = ExtractionStats(), SubsumptionStats()
    reset_metrics()
    tracer = Tracer()
    with tracing(tracer):
        run_pipeline(image, SMALL, jobs=jobs, cache=cache, extraction_stats=es, winnow_stats=ss)
    return tracer.to_lines(metrics=metrics().to_dict()), es, ss


def test_trace_covers_pipeline_with_worker_shards(tmp_path):
    import pytest as _pytest

    from repro.obs import validate_trace_lines

    image = _image("bubble_sort", "llvm_obf")
    lines, es, ss = _traced_pipeline(image, None, jobs=4)
    spans = validate_trace_lines(lines)
    names = {s["name"] for s in spans}
    assert {
        "pipeline",
        "extract",
        "extract.plan",
        "extract.candidates",
        "extract.symex",
        "extract.symex.run",
        "winnow",
        "winnow.bucketize",
        "winnow.buckets",
        "winnow.buckets.run",
    } <= names
    # Per-worker shard spans land under the symex stage, in shard order.
    symex_id = next(s["id"] for s in spans if s["name"] == "extract.symex")
    shards = [
        s["counters"]["shard"]
        for s in spans
        if s["parent"] == symex_id and s["name"] == "extract.symex.run"
    ]
    assert shards == sorted(shards) and len(shards) >= 2
    # The stats fields are span-derived: the trace and the summary agree.
    extract_root = next(s for s in spans if s["name"] == "extract")
    assert extract_root["wall"] == _pytest.approx(es.wall_total, rel=0.05)
    winnow_root = next(s for s in spans if s["name"] == "winnow")
    assert winnow_root["wall"] == _pytest.approx(ss.wall_total, rel=0.05)


def test_warm_trace_byte_stable_modulo_timestamps(tmp_path):
    from repro.obs import strip_timestamps

    image = _image("bubble_sort", "llvm_obf")
    cache = ResultCache(root=tmp_path)
    run_pipeline(image, SMALL, jobs=2, cache=cache)  # populate

    first, es1, _ = _traced_pipeline(image, cache, jobs=4)
    second, es2, _ = _traced_pipeline(image, cache, jobs=4)
    assert es1.symex_invocations == 0 and es2.symex_invocations == 0
    assert strip_timestamps(first) == strip_timestamps(second)
