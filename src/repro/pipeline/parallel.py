"""The pipeline: the extract and winnow drivers plus a cache and a fan-out.

The stages themselves are composed once, in
:func:`repro.gadgets.extract.extract_gadgets` and
:func:`repro.gadgets.subsumption.deduplicate_gadgets`.  This module adds
the two things those drivers leave out:

* a persistent :class:`ResultCache` in front of each stage, and
* with ``jobs > 1``, a fan-out of each stage's independent units over
  worker processes.

The units split along natural seams:

* **Extraction** — candidate windows are independent, so the candidate
  list is split into contiguous chunks and each worker symbolically
  executes its chunk on a private executor.  The driver assigns gadget
  ids sequentially over kept records in candidate order, so
  concatenating per-chunk results in chunk order and renumbering
  reproduces the in-process pool byte for byte.

* **Winnowing** — fingerprint buckets cannot subsume across buckets,
  so buckets shard freely.  Buckets are kept in fingerprint
  first-occurrence order (what the in-process winnow iterates); the
  final stable location sort then reproduces its survivor order.

Workers exchange records via the canonical encoding in
:mod:`repro.pipeline.serialize` rather than pickle, which keeps the
"sharded == in-process" property a one-line bytes comparison.

Observability rides the same channel: each worker chunk runs under its
own :class:`repro.obs.Tracer` and ships its span tree (plus a metrics
snapshot) back with the result blob.  The parent adopts the trees in
chunk order — the merge is deterministic for the same reason the pool
merge is — so a ``--trace`` export is byte-stable modulo timestamps
for any worker count.
"""

from __future__ import annotations

import multiprocessing as mp
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..binfmt.image import BinaryImage
from ..gadgets.extract import (
    ExtractionConfig,
    ExtractionStats,
    extract_gadgets,
    make_executor,
    run_candidates,
    symex_in_process,
)
from ..gadgets.record import GadgetRecord
from ..gadgets.subsumption import (
    SubsumptionStats,
    deduplicate_gadgets,
    winnow_buckets,
)
from ..obs import Tracer, active_tracer, add, metrics, reset_metrics, span, tracing
from ..solver.solver import Solver
from ..staticanalysis.decode_graph import DecodeGraph
from .cache import ResultCache
from .serialize import pool_from_bytes, pool_to_bytes


def _mp_context():
    # fork is cheapest (no re-import, no pickling of initargs) and is
    # available everywhere we run CI; fall back to the platform default.
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


def _chunk(items: Sequence, count: int) -> List[List]:
    """Split into ``count`` contiguous chunks, sizes as even as possible."""
    count = max(1, min(count, len(items)))
    base, extra = divmod(len(items), count)
    chunks: List[List] = []
    start = 0
    for i in range(count):
        size = base + (1 if i < extra else 0)
        chunks.append(list(items[start : start + size]))
        start += size
    return chunks


def _map_shards(
    jobs: int, units: Sequence, func: Callable, initializer: Callable, initargs: tuple
) -> Tuple[int, List[tuple]]:
    """Map ``func`` over chunks of ``units`` on a process pool.

    Returns (workers used, per-chunk results in chunk order).  Every
    result ends with (span tree, metrics snapshot); both are merged into
    the parent here, the trees under the innermost open span.
    """
    workers = max(1, min(jobs, len(units)))
    chunks = _chunk(units, workers * 4)
    with _mp_context().Pool(workers, initializer=initializer, initargs=initargs) as pool:
        results = pool.map(func, list(enumerate(chunks)), chunksize=1)
    tracer = active_tracer()
    registry = metrics()
    for *_, tree, snapshot in results:
        if tracer is not None:
            tracer.adopt(tree)
        registry.merge(snapshot)
    add("shards", len(chunks))
    return workers, results


# -- workers ------------------------------------------------------------------

#: Per-process state, set up once by the pool initializer.
_WORKER: Dict[str, object] = {}


def _run_chunk(index: int, run: Callable[[], List[GadgetRecord]]) -> Tuple[bytes, dict, dict]:
    """Run one chunk under its own tracer.

    Returns (pool bytes, span tree dict, metrics snapshot); the span
    tree carries the chunk's wall/CPU time and counters back to the
    parent trace.
    """
    reset_metrics()
    tracer = Tracer()
    with tracing(tracer):
        records = run()
    tree = tracer.roots[0].to_dict()
    tree["counters"]["shard"] = index
    return pool_to_bytes(records), tree, metrics().to_dict()


def _init_extract_worker(
    code: bytes,
    base_addr: int,
    config: ExtractionConfig,
    graph: Optional[DecodeGraph] = None,
) -> None:
    """Build the per-process executor.

    ``graph`` is the decode graph ``plan_candidates`` already built in
    the parent; under the fork start method it arrives for free (shared
    copy-on-write pages), so workers preload its decode cache instead
    of re-decoding the whole section each.  Spawn-style contexts pass
    ``None`` and fall back to lazy decoding — either way the pools are
    byte-identical, the cache only affects speed.
    """
    _WORKER["executor"] = make_executor(code, base_addr, config, graph)
    _WORKER["config"] = config


def _extract_chunk(item: Tuple[int, List[int]]) -> Tuple[bytes, dict, dict]:
    index, candidates = item
    executor, config = _WORKER["executor"], _WORKER["config"]
    return _run_chunk(index, lambda: run_candidates(executor, candidates, config))  # type: ignore


def _symex_sharded(
    jobs: int,
    image: BinaryImage,
    graph: DecodeGraph,
    candidates: List[int],
    config: ExtractionConfig,
    stats: ExtractionStats,
) -> List[GadgetRecord]:
    """The extract driver's fan-out: candidate chunks over ``jobs`` workers."""
    graph_arg = graph if _mp_context().get_start_method() == "fork" else None
    workers, results = _map_shards(
        jobs,
        candidates,
        _extract_chunk,
        _init_extract_worker,
        (image.text.data, image.text.addr, config, graph_arg),
    )
    records = [record for blob, _, _ in results for record in pool_from_bytes(blob)]
    for new_id, record in enumerate(records):
        record.gadget_id = new_id
    stats.symex_invocations += len(candidates)
    stats.jobs = workers
    return records


def _init_winnow_worker(exact: bool, max_conflicts: int) -> None:
    _WORKER["solver"] = Solver(max_conflicts=max_conflicts)
    _WORKER["memo"] = {}
    _WORKER["exact"] = exact


def _winnow_chunk(item: Tuple[int, List[bytes]]) -> Tuple[bytes, SubsumptionStats, dict, dict]:
    """Winnow a chunk of serialized buckets: survivors in bucket order
    and the chunk's own stats, besides what :func:`_run_chunk` returns."""
    index, bucket_blobs = item
    local = SubsumptionStats()
    blob, tree, snapshot = _run_chunk(
        index,
        lambda: winnow_buckets(
            [pool_from_bytes(b) for b in bucket_blobs],
            _WORKER["solver"],  # type: ignore[arg-type]
            local,
            bool(_WORKER["exact"]),
            _WORKER["memo"],  # type: ignore[arg-type]
        ),
    )
    return blob, local, tree, snapshot


def _winnow_sharded(
    jobs: int,
    buckets: List[List[GadgetRecord]],
    solver: Solver,
    stats: SubsumptionStats,
    exact: bool,
) -> List[GadgetRecord]:
    """The winnow driver's fan-out: bucket chunks over ``jobs`` workers,
    each on a solver with the caller's conflict budget."""
    workers, results = _map_shards(
        jobs,
        [pool_to_bytes(bucket) for bucket in buckets],
        _winnow_chunk,
        _init_winnow_worker,
        (exact, solver.max_conflicts),
    )
    survivors: List[GadgetRecord] = []
    for blob, local, _, _ in results:
        survivors.extend(pool_from_bytes(blob))
        stats.solver_checks += local.solver_checks
        stats.implication_queries += local.implication_queries
        stats.memo_hits += local.memo_hits
    stats.jobs = workers
    return survivors


# -- cache and stage entry points ---------------------------------------------


def _through_cache(
    stage: str,
    kind: str,
    cache: Optional[ResultCache],
    image_bytes: Optional[bytes],
    config: ExtractionConfig,
    stats: Union[ExtractionStats, SubsumptionStats],
    meta_fields: Tuple[str, ...],
    size_field: str,
    compute: Callable[[], List[GadgetRecord]],
) -> List[GadgetRecord]:
    """``compute()``'s pool, answered from ``cache`` when it holds one.

    A miss computes and stores the pool together with the ``stats``
    fields named in ``meta_fields``; a hit restores those fields and
    sets ``size_field`` to the pool size.  The ``<stage>.cache`` and
    ``<stage>.cache.store`` spans sit beside the stage's own span, and
    their walls count towards ``stats.wall_total``.
    """
    if cache is None:
        return compute()
    with span(f"{stage}.cache") as load_sp:
        hit = cache.load_pool(kind, image_bytes, config)
    stats.wall_total += load_sp.wall
    if hit is not None:
        pool, meta = hit
        load_sp.add("hits")
        stats.cache_hits += 1
        for name in meta_fields:
            setattr(stats, name, int(meta.get(name, 0)))
        setattr(stats, size_field, len(pool))
        return pool
    load_sp.add("misses")
    stats.cache_misses += 1
    pool = compute()
    with span(f"{stage}.cache.store") as store_sp:
        meta = {name: getattr(stats, name) for name in meta_fields}
        cache.store_pool(kind, image_bytes, config, pool, meta=meta)
    stats.wall_total += store_sp.wall
    return pool


def extract_pool(
    image: BinaryImage,
    config: Optional[ExtractionConfig] = None,
    stats: Optional[ExtractionStats] = None,
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    image_bytes: Optional[bytes] = None,
) -> List[GadgetRecord]:
    """:func:`~repro.gadgets.extract.extract_gadgets` behind the cache,
    fanned out over ``jobs`` worker processes when ``jobs > 1``.

    The pool is byte-identical for every ``jobs`` value (asserted in
    tests).  A cache hit reports the requested ``jobs``.
    """
    config = config or ExtractionConfig()
    stats = stats if stats is not None else ExtractionStats()
    if cache is not None and image_bytes is None:
        image_bytes = image.to_bytes()
    fan_out = partial(_symex_sharded, jobs) if jobs > 1 else symex_in_process
    stats.jobs = jobs
    return _through_cache(
        "extract",
        "extract",
        cache,
        image_bytes,
        config,
        stats,
        ("candidates", "semantically_culled"),
        "records",
        lambda: extract_gadgets(image, config, stats, fan_out=fan_out),
    )


def winnow_pool(
    records: Sequence[GadgetRecord],
    stats: Optional[SubsumptionStats] = None,
    *,
    jobs: int = 1,
    exact: bool = False,
    solver: Optional[Solver] = None,
    cache: Optional[ResultCache] = None,
    image: Optional[BinaryImage] = None,
    image_bytes: Optional[bytes] = None,
    config: Optional[ExtractionConfig] = None,
) -> List[GadgetRecord]:
    """:func:`~repro.gadgets.subsumption.deduplicate_gadgets` behind the
    cache, fanned out over ``jobs`` worker processes when ``jobs > 1``.

    The survivors are byte-identical for every ``jobs`` value:
    subsumption decisions depend only on the records and the solver's
    budget, never on which process or memo evaluated them.

    Caching keys on (image bytes, extraction config), the inputs the
    extracted pool is itself a pure function of; both must be supplied
    for the cache to engage.
    """
    stats = stats if stats is not None else SubsumptionStats()
    if config is None or (image is None and image_bytes is None):
        cache = None
    if cache is not None and image_bytes is None:
        image_bytes = image.to_bytes()
    fan_out = partial(_winnow_sharded, jobs) if jobs > 1 else winnow_buckets
    stats.jobs = jobs
    return _through_cache(
        "winnow",
        "winnow-exact" if exact else "winnow",
        cache,
        image_bytes,
        config,
        stats,
        ("input_count", "buckets"),
        "output_count",
        lambda: deduplicate_gadgets(
            records, solver=solver, stats=stats, exact=exact, fan_out=fan_out
        ),
    )


def run_pipeline(
    image: BinaryImage,
    config: Optional[ExtractionConfig] = None,
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    winnow: bool = True,
    solver: Optional[Solver] = None,
    extraction_stats: Optional[ExtractionStats] = None,
    winnow_stats: Optional[SubsumptionStats] = None,
) -> Tuple[List[GadgetRecord], Optional[List[GadgetRecord]]]:
    """Extract (and optionally winnow) with shared jobs/cache settings.

    Returns ``(extracted, winnowed-or-None)``.  ``solver`` winnows (its
    conflict budget also bounds every worker's solver); by default a
    fresh solver with the winnow's default budget.  Under an active
    tracer the whole run lands beneath one ``pipeline`` root span with
    the ``extract`` and ``winnow`` trees (and their cache spans) as
    children.
    """
    config = config or ExtractionConfig()
    with span("pipeline"):
        image_bytes = image.to_bytes() if cache is not None else None
        records = extract_pool(
            image, config, extraction_stats, jobs=jobs, cache=cache, image_bytes=image_bytes
        )
        if not winnow:
            return records, None
        survivors = winnow_pool(
            records,
            winnow_stats,
            jobs=jobs,
            solver=solver,
            cache=cache,
            image_bytes=image_bytes,
            config=config,
        )
    return records, survivors
