"""The pipeline: the extract and winnow drivers behind a result cache.

The stages themselves are composed once, in
:func:`repro.gadgets.extract.extract_gadgets` and
:func:`repro.gadgets.subsumption.deduplicate_gadgets`.  This module adds
the one thing those drivers leave out: a persistent
:class:`ResultCache` in front of each stage.

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
    cache: Optional[ResultCache] = None,
    image_bytes: Optional[bytes] = None,
) -> List[GadgetRecord]:
    """:func:`~repro.gadgets.extract.extract_gadgets` behind the cache."""
    config = config or ExtractionConfig()
    stats = stats if stats is not None else ExtractionStats()
    if cache is not None and image_bytes is None:
        image_bytes = image.to_bytes()
    return _through_cache(
        "extract",
        "extract",
        cache,
        image_bytes,
        config,
        stats,
        ("candidates", "semantically_culled"),
        "records",
        lambda: extract_gadgets(image, config, stats),
    )


def winnow_pool(
    records: Sequence[GadgetRecord],
    stats: Optional[SubsumptionStats] = None,
    *,
    solver: Optional[Solver] = None,
    cache: Optional[ResultCache] = None,
    image: Optional[BinaryImage] = None,
    image_bytes: Optional[bytes] = None,
    config: Optional[ExtractionConfig] = None,
) -> List[GadgetRecord]:
    """:func:`~repro.gadgets.subsumption.deduplicate_gadgets` behind the
    cache.

    Caching keys on (image bytes, extraction config), the inputs the
    extracted pool is itself a pure function of, and on the solver's
    conflict budget: a query that overruns it answers UNKNOWN and keeps
    a gadget a larger budget might drop.  The default budget, which
    ``nfl extract`` and the planner share, keeps the plain ``winnow``
    kind.  Image and config must both be supplied for the cache to
    engage.
    """
    solver = solver or Solver(max_conflicts=WINNOW_MAX_CONFLICTS)
    stats = stats if stats is not None else SubsumptionStats()
    if config is None or (image is None and image_bytes is None):
        cache = None
    if cache is not None and image_bytes is None:
        image_bytes = image.to_bytes()
    kind = "winnow"
    if solver.max_conflicts != WINNOW_MAX_CONFLICTS:
        kind += ":%d" % solver.max_conflicts
    return _through_cache(
        "winnow",
        kind,
        cache,
        image_bytes,
        config,
        stats,
        ("input_count", "buckets"),
        "output_count",
        lambda: deduplicate_gadgets(records, solver=solver, stats=stats),
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
    """Extract (and optionally winnow) behind one shared cache.

    Returns ``(extracted, winnowed-or-None)``.  ``solver`` winnows; by
    default a fresh solver with the winnow's default budget.  Under an
    active tracer the whole run lands beneath one ``pipeline`` root span
    with the ``extract`` and ``winnow`` trees (and their cache spans) as
    children.

    ``jobs`` is accepted and ignored: both stages always run in this
    process.  It is kept only because the benchmark
    (``nflbench/workloads.py``) still passes it; no other caller may.
    """
    config = config or ExtractionConfig()
    with span("pipeline"):
        image_bytes = image.to_bytes() if cache is not None else None
        records = extract_pool(
            image, config, extraction_stats, cache=cache, image_bytes=image_bytes
        )
        if not winnow:
            return records, None
        survivors = winnow_pool(
            records,
            winnow_stats,
            solver=solver,
            cache=cache,
            image_bytes=image_bytes,
            config=config,
        )
    return records, survivors
