"""Process-local metrics registry: counters, gauges, histograms, slow logs.

Deliberately dependency-free: histograms bucket by power of two
(``bit_length``), so two runs over the same inputs export identical
counters, gauges and histograms.  Slow logs hold measured times and are
the one part of a snapshot that differs between runs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: int) -> None:
        self.value = value


class Histogram:
    """Power-of-two bucketed distribution of non-negative integers.

    Bucket ``b`` counts observations with ``bit_length() == b`` (zero
    lands in bucket 0), i.e. bucket 3 holds values 4..7.  Exact count,
    sum, min and max ride along so means survive the bucketing.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: int) -> None:
        value = int(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = value.bit_length() if value > 0 else 0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {str(k): self.buckets[k] for k in sorted(self.buckets)},
        }


class SlowLog:
    """The ``limit`` slowest entries observed, slowest first.

    Each entry is a flat JSON-ready dict whose ``wall`` field is the
    measured time in seconds; the rest describes what was slow.
    """

    __slots__ = ("limit", "entries")

    def __init__(self, limit: int = 10) -> None:
        self.limit = limit
        self.entries: List[Dict[str, Any]] = []

    def observe(self, wall: float, **fields: Any) -> None:
        self.entries.append({"wall": round(wall, 6), **fields})
        self.entries.sort(key=lambda entry: -entry["wall"])
        del self.entries[self.limit :]

    def to_list(self) -> List[Dict[str, Any]]:
        return [dict(entry) for entry in self.entries]


class MetricsRegistry:
    """Named counters/gauges/histograms/slow logs for one process."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._slow_logs: Dict[str, SlowLog] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        return histogram

    def slow_log(self, name: str) -> SlowLog:
        log = self._slow_logs.get(name)
        if log is None:
            log = self._slow_logs[name] = SlowLog()
        return log

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready snapshot (names sorted); ``slow_logs`` appears
        only once some slow log exists."""
        snapshot: Dict[str, Any] = {
            "counters": {k: self._counters[k].value for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
            "histograms": {k: self._histograms[k].to_dict() for k in sorted(self._histograms)},
        }
        if self._slow_logs:
            snapshot["slow_logs"] = {
                k: self._slow_logs[k].to_list() for k in sorted(self._slow_logs)
            }
        return snapshot

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._slow_logs.clear()


#: The process-wide registry most instrumentation writes to.
_GLOBAL = MetricsRegistry()


def metrics() -> MetricsRegistry:
    return _GLOBAL


def reset_metrics() -> None:
    _GLOBAL.reset()
