"""Persistent content-addressed cache for extraction/winnow results.

Extraction and subsumption dominate Gadget-Planner's end-to-end cost
(Table VII), yet both are pure functions of (image bytes, config).  So
warm re-runs — the common case when sweeping plan budgets, goals, or
corpus-scale configurations over unchanged binaries — can skip the
symbolic executor and the solver entirely by reloading the pool from
disk.

Keying: ``blake2b`` over the image bytes, the canonicalized
:class:`~repro.gadgets.extract.ExtractionConfig`, the pool kind
(``extract`` / ``winnow``), :data:`PIPELINE_VERSION`, and the
serialization :data:`~repro.pipeline.serialize.FORMAT_VERSION`.  Any
input or algorithm change produces a *different key*, so stale entries
are unreachable rather than wrong, and no explicit invalidation is
needed.

Entries are one file each (JSON meta header + canonical pool bytes),
written atomically via rename, so concurrent producers race benignly:
both compute the same bytes, last rename wins.  A corrupt or
truncated entry is deleted and treated as a miss.

Each :class:`ResultCache` keeps a small in-process memo of decoded
entries, so a request served again and again (a sweep re-planning one
binary under many goals and policies) decodes each entry once.  A
memo hit is validated by the entry file's size and mtime, and only an
entry read twice is kept: a pool that is read once, as a cold run's is,
is never held past its request.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..gadgets.record import GadgetRecord
from .serialize import (
    FORMAT_VERSION,
    EncodeMemo,
    config_key_bytes,
    pool_from_bytes,
    pool_to_bytes,
)

#: Bump when extraction/winnow semantics change: every old key dies.
#: 3: the winnow's default conflict budget went from 2000 to 4000, and
#: a ``winnow`` entry written at 2000 must not be served at 4000.
#: 4: a ``winnow`` entry's meta also holds the extract stage's
#: counters, so a winnow hit answers without the extract entry.
PIPELINE_VERSION = 4

#: Decoded entries one :class:`ResultCache` keeps in memory (LRU).
MEMO_ENTRIES = 8

#: Environment override for the default cache root.
CACHE_DIR_ENV = "NFL_CACHE_DIR"

_ENTRY_MAGIC = b"NFLC"

#: A decoded entry as the memo holds it: the records and the meta.
_Decoded = Tuple[Tuple[GadgetRecord, ...], Dict[str, Any]]


def default_cache_dir() -> Path:
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "nfl"


@dataclass
class CacheStats:
    """Hit/miss/store counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Hits split by how they were answered: from the in-process memo,
    #: or by decoding the entry file.
    memo_hits: int = 0
    decodes: int = 0


@dataclass
class ResultCache:
    """Content-addressed pool store under one root directory.

    ``_memo`` maps a content key to the entry file's (size, mtime_ns)
    stamp at its last read, and to the decoded ``(records, meta)`` once
    a second read found the same stamp.  Hits hand out a new list and
    dict each; the records themselves are shared, so no caller may
    change a :class:`GadgetRecord`'s fields in place.
    """

    root: Path = field(default_factory=default_cache_dir)
    stats: CacheStats = field(default_factory=CacheStats)
    _memo: "OrderedDict[str, Tuple[Tuple[int, int], Optional[_Decoded]]]" = field(
        default_factory=OrderedDict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # -- keying -----------------------------------------------------------

    def key(self, kind: str, image_bytes: bytes, config: Any) -> str:
        h = hashlib.blake2b(digest_size=20)
        for part in (
            b"nfl-pool-cache",
            str(PIPELINE_VERSION).encode(),
            str(FORMAT_VERSION).encode(),
            kind.encode(),
            config_key_bytes(config),
        ):
            h.update(part)
            h.update(b"\x00")
        h.update(image_bytes)
        return h.hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pool"

    # -- lookup / store ---------------------------------------------------

    def load_pool(
        self, kind: str, image_bytes: bytes, config: Any
    ) -> Optional[Tuple[List[GadgetRecord], Dict[str, Any]]]:
        """The cached (records, meta) for this key, or None on a miss."""
        key = self.key(kind, image_bytes, config)
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                st = os.fstat(handle.fileno())
                stamp = (st.st_size, st.st_mtime_ns)
                seen = self._memo.get(key)
                if seen is not None and seen[0] == stamp and seen[1] is not None:
                    self._memo.move_to_end(key)
                    self.stats.hits += 1
                    self.stats.memo_hits += 1
                    records, meta = seen[1]
                    return list(records), dict(meta)
                blob = handle.read()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            records, meta = _decode_entry(blob)
        except Exception:
            # Corrupt/truncated entry (killed writer, disk trouble):
            # drop it so the next run rewrites a good one.
            self._memo.pop(key, None)
            try:
                path.unlink()
            except OSError:
                pass
            self.stats.misses += 1
            return None
        # Keep the decode only when this stamp was read before.
        kept = (tuple(records), dict(meta)) if seen is not None and seen[0] == stamp else None
        self._memo[key] = (stamp, kept)
        self._memo.move_to_end(key)
        while len(self._memo) > MEMO_ENTRIES:
            self._memo.popitem(last=False)
        self.stats.hits += 1
        self.stats.decodes += 1
        return records, meta

    def store_pool(
        self,
        kind: str,
        image_bytes: bytes,
        config: Any,
        records: Sequence[GadgetRecord],
        meta: Optional[Dict[str, Any]] = None,
        memo: Optional[EncodeMemo] = None,
    ) -> Path:
        """Atomically persist a pool; returns the entry path.  ``memo``
        is the run's :class:`~repro.pipeline.serialize.EncodeMemo`, so
        records an earlier store of the run encoded are not encoded
        again."""
        path = self._path(self.key(kind, image_bytes, config))
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = _encode_entry(records, meta or {}, memo)
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        return path


def _encode_entry(
    records: Sequence[GadgetRecord], meta: Dict[str, Any], memo: Optional[EncodeMemo]
) -> bytes:
    meta_blob = json.dumps(meta, sort_keys=True).encode()
    header = _ENTRY_MAGIC + struct.pack("<I", len(meta_blob))
    return b"".join((header, meta_blob, pool_to_bytes(records, memo)))


def _decode_entry(blob: bytes) -> Tuple[List[GadgetRecord], Dict[str, Any]]:
    if blob[: len(_ENTRY_MAGIC)] != _ENTRY_MAGIC:
        raise ValueError("bad cache entry magic")
    offset = len(_ENTRY_MAGIC)
    (meta_len,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    meta = json.loads(blob[offset : offset + meta_len].decode())
    if not isinstance(meta, dict):
        raise ValueError("cache entry meta is not a JSON object")
    records = pool_from_bytes(blob[offset + meta_len :])
    return records, meta
