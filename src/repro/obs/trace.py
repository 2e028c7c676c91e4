"""Hierarchical trace spans with deterministic export.

A :class:`Span` measures one pipeline stage: wall time
(``perf_counter``), CPU time (``process_time``), and a dict of integer
counters, with parent links forming a tree.  Spans *always* measure —
``with span("extract.symex") as sp`` works with no tracer installed,
and the enclosing stage derives its stats fields from ``sp.wall`` — so
timing has exactly one source of truth whether or not a trace is being
recorded.  When a :class:`Tracer` is active (``with tracing(t):``),
spans additionally attach themselves to the tracer's tree.

A tree is built in the order its spans open, so two runs over the same
inputs export byte-identical JSONL apart from the timestamp fields
(``wall`` / ``cpu``).  :meth:`Span.to_dict` / :meth:`Span.from_dict`
turn a tree into plain dicts and back.

The JSONL schema (one object per line, sorted keys):

* line 1: ``{"format": "nfl-trace", "type": "meta", "version": 1}``
* span lines: ``{"counters": {...}, "cpu": f, "id": n, "name": s,
  "parent": n|null, "type": "span", "wall": f}`` — ids are depth-first
  preorder over root spans, so structure is reproducible;
* optional final line: ``{"metrics": {...}, "type": "metrics"}``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

TRACE_FORMAT = "nfl-trace"
TRACE_VERSION = 1

#: JSONL fields that hold measured time — the only fields allowed to
#: differ between two runs of the same workload (see
#: :func:`strip_timestamps`).
TIMESTAMP_FIELDS = ("wall", "cpu")


class TraceSchemaError(ValueError):
    """An exported trace does not conform to the JSONL schema."""


class Span:
    """One timed stage.  Usable as a context manager."""

    __slots__ = ("name", "wall", "cpu", "counters", "children", "_t0", "_c0", "_tracer")

    def __init__(self, name: str, tracer: Optional["Tracer"] = None) -> None:
        self.name = name
        self.wall = 0.0
        self.cpu = 0.0
        self.counters: Dict[str, int] = {}
        self.children: List[Span] = []
        self._t0 = 0.0
        self._c0 = 0.0
        self._tracer = tracer

    def add(self, key: str, n: int = 1) -> None:
        """Bump an integer counter on this span."""
        self.counters[key] = self.counters.get(key, 0) + n

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._push(self)
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.wall = time.perf_counter() - self._t0
        self.cpu = time.process_time() - self._c0
        if self._tracer is not None:
            self._tracer._pop(self)

    # -- plain-dict form -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-friendly tree rooted at this span."""
        return {
            "name": self.name,
            "wall": self.wall,
            "cpu": self.cpu,
            "counters": dict(self.counters),
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        span = cls(str(data["name"]))
        span.wall = float(data.get("wall", 0.0))
        span.cpu = float(data.get("cpu", 0.0))
        span.counters = {str(k): int(v) for k, v in data.get("counters", {}).items()}
        span.children = [cls.from_dict(c) for c in data.get("children", [])]
        return span

    def walk(self) -> Iterator[Tuple["Span", int]]:
        """Depth-first preorder (span, depth) over this subtree."""
        stack: List[Tuple[Span, int]] = [(self, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            for child in reversed(node.children):
                stack.append((child, depth + 1))

    def find(self, name: str) -> Optional["Span"]:
        """The first span named ``name`` in this subtree (preorder)."""
        for node, _ in self.walk():
            if node.name == name:
                return node
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, wall={self.wall:.4f}, counters={self.counters})"


class Tracer:
    """Collects a forest of spans for one run (one process)."""

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str) -> Span:
        return Span(name, tracer=self)

    def _push(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Usually a plain stack pop, but a span held open across a
        # generator's yields can exit out of order when
        # the generator is abandoned — remove by identity so later
        # spans don't get misparented under a dead one.
        for index in range(len(self._stack) - 1, -1, -1):
            if self._stack[index] is span:
                del self._stack[index]
                return

    # -- export -------------------------------------------------------------

    def iter_spans(self) -> Iterator[Tuple[Span, int]]:
        for root in self.roots:
            for item in root.walk():
                yield item

    def to_lines(self, metrics: Optional[Dict[str, Any]] = None) -> List[str]:
        """The JSONL export: meta line, span lines, optional metrics."""
        lines = [
            json.dumps(
                {"type": "meta", "format": TRACE_FORMAT, "version": TRACE_VERSION},
                sort_keys=True,
            )
        ]
        ids: Dict[int, int] = {}
        next_id = 0
        for root in self.roots:
            parent_of: Dict[int, Optional[int]] = {id(root): None}
            for span, _ in root.walk():
                sid = next_id
                next_id += 1
                ids[id(span)] = sid
                for child in span.children:
                    parent_of[id(child)] = sid
                lines.append(
                    json.dumps(
                        {
                            "type": "span",
                            "id": sid,
                            "parent": parent_of[id(span)],
                            "name": span.name,
                            "wall": round(span.wall, 6),
                            "cpu": round(span.cpu, 6),
                            "counters": {k: span.counters[k] for k in sorted(span.counters)},
                        },
                        sort_keys=True,
                    )
                )
        if metrics is not None:
            lines.append(json.dumps({"type": "metrics", "metrics": metrics}, sort_keys=True))
        return lines

    def write_jsonl(self, path: Any, metrics: Optional[Dict[str, Any]] = None) -> int:
        """Write the JSONL export; returns the number of span lines."""
        lines = self.to_lines(metrics=metrics)
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        return sum(1 for line in lines if '"type": "span"' in line)


# -- the active tracer --------------------------------------------------------

_ACTIVE: Optional[Tracer] = None


def active_tracer() -> Optional[Tracer]:
    return _ACTIVE


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the process-wide active tracer."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


def span(name: str) -> Span:
    """A span against the active tracer (still measures without one)."""
    return Span(name, tracer=_ACTIVE)


# -- schema validation / loading ---------------------------------------------


def validate_trace_lines(lines: List[str]) -> List[Dict[str, Any]]:
    """Validate a JSONL export; returns the parsed span records.

    Raises :class:`TraceSchemaError` on any deviation from the schema:
    bad meta line, malformed JSON, missing/ill-typed span fields,
    dangling parent references, or non-preorder ids.
    """
    if not lines:
        raise TraceSchemaError("empty trace")
    try:
        meta = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceSchemaError(f"meta line is not JSON: {exc}") from None
    if meta.get("type") != "meta" or meta.get("format") != TRACE_FORMAT:
        raise TraceSchemaError(f"bad meta line: {meta!r}")
    if meta.get("version") != TRACE_VERSION:
        raise TraceSchemaError(f"unsupported trace version: {meta.get('version')!r}")
    spans: List[Dict[str, Any]] = []
    seen_ids: set = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceSchemaError(f"line {lineno} is not JSON: {exc}") from None
        kind = record.get("type")
        if kind == "metrics":
            if not isinstance(record.get("metrics"), dict):
                raise TraceSchemaError(f"line {lineno}: metrics payload must be an object")
            continue
        if kind != "span":
            raise TraceSchemaError(f"line {lineno}: unexpected record type {kind!r}")
        if not isinstance(record.get("id"), int) or not isinstance(record.get("name"), str):
            raise TraceSchemaError(f"line {lineno}: span needs integer id and string name")
        parent = record.get("parent")
        if parent is not None and parent not in seen_ids:
            raise TraceSchemaError(f"line {lineno}: parent {parent!r} not seen before child")
        for field in TIMESTAMP_FIELDS:
            if not isinstance(record.get(field), (int, float)):
                raise TraceSchemaError(f"line {lineno}: span field {field!r} must be numeric")
        counters = record.get("counters")
        if not isinstance(counters, dict) or not all(
            isinstance(v, int) for v in counters.values()
        ):
            raise TraceSchemaError(f"line {lineno}: counters must map names to integers")
        seen_ids.add(record["id"])
        spans.append(record)
    if not spans:
        raise TraceSchemaError("trace holds no spans")
    return spans


def validate_trace_file(path: Any) -> List[Dict[str, Any]]:
    with open(path) as handle:
        return validate_trace_lines(handle.read().splitlines())


def strip_timestamps(lines: List[str]) -> List[str]:
    """The export with timestamp fields removed — two runs of the same
    workload must agree on this projection byte for byte.  Slow logs
    are measured times through and through, so they go too."""
    stable: List[str] = []
    for line in lines:
        if not line.strip():
            continue
        record = json.loads(line)
        for field in TIMESTAMP_FIELDS:
            record.pop(field, None)
        if record.get("type") == "metrics":
            record["metrics"].pop("slow_logs", None)
        stable.append(json.dumps(record, sort_keys=True))
    return stable


def _metrics_snapshot(lines: List[str]) -> Dict[str, Any]:
    """The trace's metrics line, if it has one."""
    for line in reversed(lines):
        if line.strip():
            record = json.loads(line)
            if record.get("type") == "metrics":
                return record["metrics"]
            return {}
    return {}


def format_trace_summary(lines: List[str]) -> str:
    """A human tree rendering of a JSONL trace (``nfl trace FILE``),
    followed by the counters of its metrics snapshot (for instance the
    solver's answers by path) and any slow log in it (for instance the
    solver's slowest queries)."""
    spans = validate_trace_lines(lines)
    depth: Dict[int, int] = {}
    out: List[str] = []
    for record in spans:
        parent = record["parent"]
        d = 0 if parent is None else depth[parent] + 1
        depth[record["id"]] = d
        counters = record["counters"]
        suffix = ""
        if counters:
            suffix = "  [" + " ".join(f"{k}={counters[k]}" for k in sorted(counters)) + "]"
        out.append(
            f"{'  ' * d}{record['name']:<{max(1, 36 - 2 * d)}}"
            f" wall={record['wall']:.3f}s cpu={record['cpu']:.3f}s{suffix}"
        )
    snapshot = _metrics_snapshot(lines)
    counters = snapshot.get("counters", {})
    if counters:
        out.append("counters:")
        out.extend(f"  {name}={counters[name]}" for name in sorted(counters))
    for name, entries in snapshot.get("slow_logs", {}).items():
        out.append(f"{name} (slowest {len(entries)}):")
        for entry in entries:
            fields = " ".join(f"{k}={entry[k]}" for k in sorted(entry) if k != "wall")
            out.append(f"  wall={entry['wall']:.4f}s {fields}")
    return "\n".join(out)
