"""repro.pipeline — determinism, serialization, and cache correctness.

The performance layer's contract is strict: the pools are
byte-identical to the stage drivers', and a cache hit returns the
identical pool while performing zero symbolic execution.  Everything here runs on small windows so tier-1 stays fast;
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


# -- pipeline entry == stage driver -----------------------------------------


@pytest.mark.parametrize("name,config_name", TARGETS)
def test_parallel_extraction_byte_identical(name, config_name):
    image = _image(name, config_name)
    stats = ExtractionStats()
    pool = extract_pool(image, SMALL, stats)
    assert pool_to_bytes(pool) == pool_to_bytes(extract_gadgets(image, SMALL))
    assert stats.records == len(pool)


@pytest.mark.parametrize("name,config_name", TARGETS)
def test_parallel_winnow_byte_identical(name, config_name):
    image = _image(name, config_name)
    records = extract_gadgets(image, SMALL)
    driver_stats = SubsumptionStats()
    expected = pool_to_bytes(deduplicate_gadgets(records, stats=driver_stats))
    stats = SubsumptionStats()
    assert pool_to_bytes(winnow_pool(records, stats)) == expected
    assert stats.solver_checks == driver_stats.solver_checks
    assert stats.output_count == driver_stats.output_count

    # The caller's conflict budget holds: with one conflict the probe's
    # implication answers UNKNOWN and both probe records survive; the
    # default budget proves it and drops one.
    probed = _budget_probe(records[0]) + [
        r for r in records if fingerprint(r) != fingerprint(records[0])
    ]
    tiny = winnow_pool(probed, solver=Solver(max_conflicts=1))
    assert len(tiny) == len(winnow_pool(probed)) + 1


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
    cold = extract_pool(image, SMALL, cold_stats, cache=cache)
    assert cold_stats.cache_misses == 1 and cold_stats.symex_invocations > 0

    warm_stats = ExtractionStats()
    warm = extract_pool(image, SMALL, warm_stats, cache=cache)
    assert pool_to_bytes(warm) == pool_to_bytes(cold)
    assert warm_stats.cache_hits == 1
    assert warm_stats.symex_invocations == 0, "warm run must not re-execute"
    # Candidate/cull counters survive through the entry metadata.
    assert warm_stats.candidates == cold_stats.candidates
    assert warm_stats.semantically_culled == cold_stats.semantically_culled


def test_cache_invalidates_on_image_and_config_change(tmp_path):
    cache = ResultCache(root=tmp_path)
    image = _image("bubble_sort", "llvm_obf")
    extract_pool(image, SMALL, cache=cache)

    # Different image bytes -> different key -> miss.
    other_stats = ExtractionStats()
    extract_pool(_image("binary_search", "llvm_obf"), SMALL, other_stats, cache=cache)
    assert other_stats.cache_hits == 0 and other_stats.cache_misses == 1

    # Different config -> different key -> miss.
    tweaked = ExtractionConfig(max_insns=SMALL.max_insns + 1, max_paths=SMALL.max_paths)
    cfg_stats = ExtractionStats()
    extract_pool(image, tweaked, cfg_stats, cache=cache)
    assert cfg_stats.cache_hits == 0 and cfg_stats.cache_misses == 1


def test_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(root=tmp_path)
    image = _image("bubble_sort", "none")
    extract_pool(image, SMALL, cache=cache)
    (entry,) = list(tmp_path.rglob("*.pool"))
    entry.write_bytes(b"NFLC garbage")
    stats = ExtractionStats()
    records = extract_pool(image, SMALL, stats, cache=cache)
    assert stats.cache_hits == 0 and stats.cache_misses == 1
    assert records == extract_gadgets(image, SMALL)


def test_winnow_cache_round_trip(tmp_path):
    cache = ResultCache(root=tmp_path)
    image = _image("bubble_sort", "llvm_obf")
    records = extract_gadgets(image, SMALL)
    cold = winnow_pool(records, cache=cache, image=image, config=SMALL)
    warm_stats = SubsumptionStats()
    warm = winnow_pool(records, warm_stats, cache=cache, image=image, config=SMALL)
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
    """A warm run is answered by the winnow entry alone: no extracted
    pool comes back, and the extraction stats keep the cold count."""
    image = _image("bubble_sort", "llvm_obf")
    cache = ResultCache(root=tmp_path)
    cold_records, cold_survivors = run_pipeline(image, SMALL, cache=cache)
    es, ss = ExtractionStats(), SubsumptionStats()
    records, survivors = run_pipeline(
        image, SMALL, cache=cache, extraction_stats=es, winnow_stats=ss
    )
    assert records is None
    assert es.records == len(cold_records)
    assert es.cache_hit and ss.cache_hit
    assert es.symex_invocations == 0 and ss.solver_checks == 0
    assert pool_to_bytes(survivors) == pool_to_bytes(cold_survivors)


def test_cache_entry_from_an_older_pipeline_version_is_a_miss(tmp_path, monkeypatch):
    """Version 4 put the extract stage's counters into the ``winnow``
    entry's meta; a version 3 entry lacks them and must not be served."""
    import repro.pipeline.cache as cache_module

    assert cache_module.PIPELINE_VERSION == 4
    image = _image("bubble_sort", "none")
    records = extract_gadgets(image, SMALL)
    cache = ResultCache(root=tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(cache_module, "PIPELINE_VERSION", 3)
        cache.store_pool("winnow", image.to_bytes(), SMALL, records)
        assert cache.load_pool("winnow", image.to_bytes(), SMALL) is not None
    stats = SubsumptionStats()
    winnow_pool(records, stats, cache=cache, image=image, config=SMALL)
    assert stats.cache_misses == 1 and stats.cache_hits == 0


def test_winnow_hit_restores_the_extract_counters(tmp_path):
    image = _image("bubble_sort", "llvm_obf")
    cache = ResultCache(root=tmp_path)
    cold = ExtractionStats()
    run_pipeline(image, SMALL, cache=cache, extraction_stats=cold)
    assert cold.cache_misses == 1 and cold.cache_hits == 0
    warm = ExtractionStats()
    run_pipeline(image, SMALL, cache=cache, extraction_stats=warm)
    assert (warm.records, warm.candidates, warm.semantically_culled) == (
        cold.records,
        cold.candidates,
        cold.semantically_culled,
    )
    assert warm.cache_hits == 1 and warm.cache_misses == 0
    # The extract stage did no work, so it took no time either.
    assert warm.wall_total == 0.0


# -- in-process memo of decoded entries ---------------------------------------


def _memo(cache, kind, image_bytes):
    """The decode the cache's memo keeps for one entry, or None."""
    entry = cache._memo.get(cache.key(kind, image_bytes, SMALL))
    return None if entry is None else entry[1]


def test_cache_memo_keeps_a_decode_only_once_an_entry_is_read_again(tmp_path):
    cache, image_bytes, records, _ = _stored_entry(tmp_path)
    assert _memo(cache, "extract", image_bytes) is None, "a store fills no memo"

    first, _ = cache.load_pool("extract", image_bytes, SMALL)
    assert _memo(cache, "extract", image_bytes) is None, "a first read keeps no decode"
    second, _ = cache.load_pool("extract", image_bytes, SMALL)
    assert _memo(cache, "extract", image_bytes) is not None
    assert (cache.stats.decodes, cache.stats.memo_hits) == (2, 0)

    third, meta = cache.load_pool("extract", image_bytes, SMALL)
    fourth, meta_again = cache.load_pool("extract", image_bytes, SMALL)
    assert (cache.stats.decodes, cache.stats.memo_hits, cache.stats.hits) == (2, 2, 4)
    expected = pool_to_bytes(records)
    assert all(pool_to_bytes(pool) == expected for pool in (first, second, third, fourth))
    # Each hit is a new list and a new dict over the shared records.
    assert third is not fourth and third is not second
    assert meta == {"candidates": 3} and meta is not meta_again
    third.clear()
    meta["candidates"] = 0
    fifth, meta_fifth = cache.load_pool("extract", image_bytes, SMALL)
    assert pool_to_bytes(fifth) == expected and meta_fifth == {"candidates": 3}


def _touch(path, blob, stamp):
    """Rewrite ``path`` with ``blob`` and a new mtime, so the file's
    stamp differs from any earlier one even on a coarse clock."""
    import os

    path.write_bytes(blob)
    os.utime(path, ns=(stamp, stamp))


def test_cache_memo_rereads_a_rewritten_entry(tmp_path):
    cache, image_bytes, records, path = _stored_entry(tmp_path)
    for _ in range(3):
        cache.load_pool("extract", image_bytes, SMALL)
    assert cache.stats.memo_hits == 1

    shorter = ResultCache(root=tmp_path / "other").store_pool(
        "extract", image_bytes, SMALL, records[:1], meta={"candidates": 1}
    )
    _touch(path, shorter.read_bytes(), 10**18)
    loaded, meta = cache.load_pool("extract", image_bytes, SMALL)
    assert pool_to_bytes(loaded) == pool_to_bytes(records[:1]) and meta == {"candidates": 1}
    assert cache.stats.memo_hits == 1, "a new stamp must not be a memo hit"


def test_cache_memo_drops_a_corrupt_entry(tmp_path):
    cache, image_bytes, _, path = _stored_entry(tmp_path)
    for _ in range(3):
        cache.load_pool("extract", image_bytes, SMALL)
    _touch(path, b"NFLC garbage", 10**18)
    assert cache.load_pool("extract", image_bytes, SMALL) is None
    assert not path.exists(), "corrupt entry must be unlinked"
    assert cache.stats.misses == 1
    assert cache.key("extract", image_bytes, SMALL) not in cache._memo


def test_cache_memo_is_bounded(tmp_path):
    from repro.pipeline.cache import MEMO_ENTRIES

    cache, image_bytes, records, _ = _stored_entry(tmp_path)
    configs = [
        ExtractionConfig(max_insns=SMALL.max_insns, max_paths=SMALL.max_paths, max_candidates=n)
        for n in range(1, MEMO_ENTRIES + 3)
    ]
    for config in configs:
        cache.store_pool("extract", image_bytes, config, records)
        for _ in range(2):
            cache.load_pool("extract", image_bytes, config)
    assert len(cache._memo) == MEMO_ENTRIES
    # The least recently read entries were evicted: reading the oldest
    # again decodes it, while the newest is a memo hit.
    hits = cache.stats.memo_hits
    cache.load_pool("extract", image_bytes, configs[0])
    assert cache.stats.memo_hits == hits
    cache.load_pool("extract", image_bytes, configs[-1])
    assert cache.stats.memo_hits == hits + 1


def test_cache_memo_belongs_to_one_cache_instance(tmp_path):
    cache, image_bytes, _, _ = _stored_entry(tmp_path)
    for _ in range(2):
        cache.load_pool("extract", image_bytes, SMALL)
    fresh = ResultCache(root=tmp_path)
    fresh.load_pool("extract", image_bytes, SMALL)
    assert fresh.stats.memo_hits == 0 and fresh.stats.decodes == 1


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
        "--cache-dir",
        str(cache_dir),
    ]
    assert main(argv) == 0
    cold_out = capsys.readouterr().out
    assert "cache=miss" in cold_out

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
        main(["census", str(binary), "--semantic", "--max-insns", "4", "--no-cache"])
        == 0
    )
    out = capsys.readouterr().out
    assert "after subsumption" in out and "cache=off" in out


def test_cli_summary_line_reports_winnow_cache(tmp_path, capsys):
    """The stats line reports each stage's own cache outcome: after an
    ``--no-winnow`` run fills only the extract entry, the next run hits
    the extract cache and misses the winnow cache."""
    from repro.cli import main

    image = _image("bubble_sort", "llvm_obf")
    binary = tmp_path / "prog.nflf"
    binary.write_bytes(image.to_bytes())
    argv = [
        "extract", str(binary),
        "--max-insns", "5", "--max-paths", "2",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(argv + ["--no-winnow"]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    extract_part, winnow_part = capsys.readouterr().out.splitlines()[1].split("extract ")
    assert "cache=hit" in extract_part and "symex=0" in extract_part
    assert "cache=miss" in winnow_part

    assert main(argv) == 0
    extract_part, winnow_part = capsys.readouterr().out.splitlines()[1].split("extract ")
    assert "cache=hit" in extract_part and "cache=hit" in winnow_part


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


def _traced_pipeline(image, cache):
    from repro.obs import Tracer, metrics, reset_metrics, tracing

    es, ss = ExtractionStats(), SubsumptionStats()
    reset_metrics()
    tracer = Tracer()
    with tracing(tracer):
        run_pipeline(image, SMALL, cache=cache, extraction_stats=es, winnow_stats=ss)
    return tracer.to_lines(metrics=metrics().to_dict()), es, ss


def test_trace_covers_pipeline_in_one_process():
    from repro.obs import validate_trace_lines

    image = _image("bubble_sort", "llvm_obf")
    lines, es, ss = _traced_pipeline(image, None)
    spans = validate_trace_lines(lines)
    names = {s["name"] for s in spans}
    assert {
        "pipeline",
        "extract",
        "extract.plan",
        "extract.candidates",
        "extract.symex",
        "winnow",
        "winnow.bucketize",
        "winnow.buckets",
    } <= names
    # One executor and one winnow loop, each counting the whole stage.
    (symex_run,) = [s for s in spans if s["name"] == "extract.symex.run"]
    (buckets_run,) = [s for s in spans if s["name"] == "winnow.buckets.run"]
    assert symex_run["counters"]["candidates"] == es.symex_invocations > 0
    assert buckets_run["counters"]["survivors"] == ss.output_count > 0
    assert not [s["name"] for s in spans if "shard" in s["counters"]]
    # The stats fields are span-derived: the trace and the summary agree.
    extract_root = next(s for s in spans if s["name"] == "extract")
    assert extract_root["wall"] == pytest.approx(es.wall_total, rel=0.05)
    winnow_root = next(s for s in spans if s["name"] == "winnow")
    assert winnow_root["wall"] == pytest.approx(ss.wall_total, rel=0.05)


def test_warm_trace_byte_stable_modulo_timestamps(tmp_path):
    from repro.obs import strip_timestamps

    image = _image("bubble_sort", "llvm_obf")
    cache = ResultCache(root=tmp_path)
    run_pipeline(image, SMALL, cache=cache)  # populate

    first, es1, _ = _traced_pipeline(image, cache)
    second, es2, _ = _traced_pipeline(image, cache)
    assert es1.symex_invocations == 0 and es2.symex_invocations == 0
    assert strip_timestamps(first) == strip_timestamps(second)


def test_warm_trace_reads_only_the_winnow_entry(tmp_path):
    from repro.obs import validate_trace_lines

    image = _image("bubble_sort", "llvm_obf")
    cache = ResultCache(root=tmp_path)
    cold, es, _ = _traced_pipeline(image, cache)
    # Cold: the winnow lookup misses, then extraction runs beside it
    # (not under the ``winnow`` span), then the winnow and its store.
    stages = {
        "winnow.cache",
        "extract.cache",
        "extract",
        "extract.cache.store",
        "winnow",
        "winnow.cache.store",
    }
    spans = validate_trace_lines(cold)
    assert [s["name"] for s in spans if s["parent"] == 0 and s["name"] in stages] == [
        "winnow.cache",
        "extract.cache",
        "extract",
        "extract.cache.store",
        "winnow",
        "winnow.cache.store",
    ]
    assert es.cache_misses == 1 and es.symex_invocations > 0

    # Warm: one winnow entry read; its decode is kept on the second
    # read and served from the memo on the third.
    for answered_by in ("decodes", "decodes", "memo_hits"):
        warm, es, _ = _traced_pipeline(image, cache)
        spans = validate_trace_lines(warm)
        assert [s["name"] for s in spans] == ["pipeline", "winnow.cache"]
        assert spans[1]["counters"] == {"hits": 1, answered_by: 1}
        assert es.cache_hits == 1 and es.symex_invocations == 0
