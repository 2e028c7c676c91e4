"""repro.pipeline — the performance layer over extraction + winnowing.

Three cooperating pieces (see DESIGN.md's inventory):

* :mod:`~repro.pipeline.serialize` — canonical, versioned byte encoding
  for gadget records and pools (what the cache stores);
* :mod:`~repro.pipeline.cache` — persistent content-addressed pool
  store keyed by (image bytes, config, pipeline/format versions);
* :mod:`~repro.pipeline.stages` — :func:`run_pipeline`, the stage
  drivers behind the cache, in one process.
"""

from .cache import CACHE_DIR_ENV, CacheStats, PIPELINE_VERSION, ResultCache, default_cache_dir
from .serialize import (
    FORMAT_VERSION,
    SerializationError,
    config_key_bytes,
    pool_from_bytes,
    pool_to_bytes,
    record_from_bytes,
    record_to_bytes,
)
from .stages import extract_pool, run_pipeline, winnow_pool

__all__ = [
    "CACHE_DIR_ENV",
    "CacheStats",
    "FORMAT_VERSION",
    "PIPELINE_VERSION",
    "ResultCache",
    "SerializationError",
    "config_key_bytes",
    "default_cache_dir",
    "extract_pool",
    "pool_from_bytes",
    "pool_to_bytes",
    "record_from_bytes",
    "record_to_bytes",
    "run_pipeline",
    "winnow_pool",
]
