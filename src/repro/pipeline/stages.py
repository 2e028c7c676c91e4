"""The pipeline: the extract and winnow drivers behind a result cache.

The stages themselves are composed once, in
:func:`repro.gadgets.extract.extract_gadgets` and
:func:`repro.gadgets.subsumption.deduplicate_gadgets`.  This module adds
the one thing those drivers leave out: a persistent
:class:`ResultCache` in front of each stage.  :func:`run_pipeline`
asks the winnow's entry first, so a warm run reads one entry and never
touches the extract stage.

Each image is a pure function of its bytes and config, so a sweep that
wants more than one core runs one process per image; no merge is
needed.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..binfmt.image import BinaryImage
from ..gadgets.extract import ExtractionConfig, ExtractionStats, extract_gadgets
from ..gadgets.record import GadgetRecord
from ..gadgets.subsumption import (
    WINNOW_MAX_CONFLICTS,
    SubsumptionStats,
    deduplicate_gadgets,
)
from ..obs import span
from ..solver.solver import Solver
from .cache import ResultCache
from .serialize import EncodeMemo


#: Counters a stage keeps in its cache entry's meta, as (stats object,
#: field names) pairs; a hit restores them.
_MetaFields = Sequence[Tuple[Union[ExtractionStats, SubsumptionStats], Tuple[str, ...]]]

#: The extract stage's counters its cache entry keeps (the record count
#: is the pool's length).
_EXTRACT_META = ("candidates", "semantically_culled")


def _through_cache(
    stage: str,
    kind: str,
    cache: Optional[ResultCache],
    image_bytes: Optional[bytes],
    config: ExtractionConfig,
    stats: Union[ExtractionStats, SubsumptionStats],
    meta_fields: _MetaFields,
    size_field: str,
    compute: Callable[[], List[GadgetRecord]],
    memo: EncodeMemo,
) -> List[GadgetRecord]:
    """``compute()``'s pool, answered from ``cache`` when it holds one.

    A miss computes and stores the pool together with the counters
    ``meta_fields`` names; a hit restores them and sets ``size_field``
    of ``stats`` to the pool size.  An entry whose meta lacks one of
    those counters, or holds one that is not an int, is a miss: the
    cache directory is outside input, and a restored 0 would be a
    wrong count.  The ``<stage>.cache`` and
    ``<stage>.cache.store`` spans sit beside the stage's own span, and
    their walls count towards ``stats.wall_total``.  The load span
    counts whether a hit came from the cache's in-process memo
    (``memo_hits``) or from decoding the entry (``decodes``).  A store
    encodes through ``memo``, the run's, and its span counts the
    records whose bytes an earlier store of the run made (``reused``).
    """
    if cache is None:
        return compute()
    with span(f"{stage}.cache") as load_sp:
        memo_hits = cache.stats.memo_hits
        hit = cache.load_pool(kind, image_bytes, config)
    stats.wall_total += load_sp.wall
    if hit is not None and all(
        isinstance(hit[1].get(name), int) for _, names in meta_fields for name in names
    ):
        pool, meta = hit
        load_sp.add("hits")
        load_sp.add("memo_hits" if cache.stats.memo_hits > memo_hits else "decodes")
        stats.cache_hits += 1
        for owner, names in meta_fields:
            for name in names:
                setattr(owner, name, meta[name])
        setattr(stats, size_field, len(pool))
        return pool
    load_sp.add("misses")
    stats.cache_misses += 1
    pool = compute()
    with span(f"{stage}.cache.store") as store_sp:
        meta = {name: getattr(owner, name) for owner, names in meta_fields for name in names}
        reused = memo.reused
        cache.store_pool(kind, image_bytes, config, pool, meta=meta, memo=memo)
        store_sp.add("reused", memo.reused - reused)
    stats.wall_total += store_sp.wall
    return pool


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
) -> Tuple[Optional[List[GadgetRecord]], Optional[List[GadgetRecord]]]:
    """Extract (and optionally winnow) behind one shared cache.

    Returns ``(extracted, winnowed)``.  ``winnowed`` is None when
    ``winnow`` is false.  With ``winnow``, the winnow entry is looked up
    first, and extraction runs (through its own cache entry) only on a
    miss, as the winnow's input.  A winnow hit therefore returns None
    for ``extracted``: ``extraction_stats`` then holds the counters the
    entry kept, with ``records`` the extracted count and one cache hit.
    Read the count from ``extraction_stats.records``, which every path
    fills.  ``solver`` winnows; by default a fresh solver with the
    winnow's default budget.

    Each entry keys on (image bytes, extraction config), the inputs the
    extracted pool is a pure function of; the winnow's also keys on the
    solver's conflict budget, since a query that overruns it answers
    UNKNOWN and keeps a gadget a larger budget might drop.  The default
    budget, which ``nfl extract`` and the planner share, keeps the
    plain ``winnow`` kind.

    Under an active tracer the whole run lands beneath one ``pipeline``
    root span, with the stages' spans (and their cache spans) as its
    children.  Both stores encode through one
    :class:`~repro.pipeline.serialize.EncodeMemo`, which dies with the
    run, so the winnow store reuses the bytes the extract store made
    for its records.

    ``jobs`` is accepted and ignored: both stages always run in this
    process.  It is kept only because the benchmark
    (``nflbench/workloads.py``) still passes it; no other caller may.
    """
    config = config or ExtractionConfig()
    es = extraction_stats if extraction_stats is not None else ExtractionStats()
    ss = winnow_stats if winnow_stats is not None else SubsumptionStats()
    extracted: List[List[GadgetRecord]] = []
    memo = EncodeMemo()

    def extract() -> List[GadgetRecord]:
        extracted.append(
            _through_cache(
                "extract",
                "extract",
                cache,
                image_bytes,
                config,
                es,
                ((es, _EXTRACT_META),),
                "records",
                lambda: extract_gadgets(image, config, es),
                memo,
            )
        )
        return extracted[0]

    with span("pipeline"):
        image_bytes = image.to_bytes() if cache is not None else None
        if not winnow:
            return extract(), None
        solver = solver or Solver(max_conflicts=WINNOW_MAX_CONFLICTS)
        kind = "winnow"
        if solver.max_conflicts != WINNOW_MAX_CONFLICTS:
            kind += ":%d" % solver.max_conflicts
        survivors = _through_cache(
            "winnow",
            kind,
            cache,
            image_bytes,
            config,
            ss,
            ((ss, ("input_count", "buckets")), (es, _EXTRACT_META)),
            "output_count",
            lambda: deduplicate_gadgets(extract(), solver=solver, stats=ss),
            memo,
        )
    if not extracted:
        # A winnow hit: its entry's meta answered the extract stage too.
        es.records = ss.input_count
        es.cache_hits += 1
        return None, survivors
    return extracted[0], survivors
