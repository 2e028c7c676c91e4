"""repro.obs — dependency-free observability for the whole pipeline.

Two cooperating pieces:

* :mod:`~repro.obs.trace` — hierarchical trace spans (wall/CPU time,
  integer counters, parent links) with deterministic JSONL export,
  schema validation, and worker-tree adoption for multiprocessing
  stages;
* :mod:`~repro.obs.metrics` — a process-local registry of counters,
  gauges, power-of-two histograms and top-N slow logs, mergeable
  across workers.

Instrumented stages create spans unconditionally (a span with no
active tracer still measures, so ``ExtractionStats``/
``SubsumptionStats`` wall fields and ``BENCH_*.json`` all derive from
the same measurements) and only pay the tree-keeping cost under
``with tracing(Tracer()):`` — what the ``--trace FILE`` CLI flag does.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SlowLog,
    metrics,
    reset_metrics,
)
from .trace import (
    TIMESTAMP_FIELDS,
    TRACE_FORMAT,
    TRACE_VERSION,
    Span,
    TraceSchemaError,
    Tracer,
    active_tracer,
    add,
    format_trace_summary,
    span,
    strip_timestamps,
    tracing,
    validate_trace_file,
    validate_trace_lines,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SlowLog",
    "Span",
    "TIMESTAMP_FIELDS",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TraceSchemaError",
    "Tracer",
    "active_tracer",
    "add",
    "format_trace_summary",
    "metrics",
    "reset_metrics",
    "span",
    "strip_timestamps",
    "tracing",
    "validate_trace_file",
    "validate_trace_lines",
]
