"""Static analysis layer.

Two engines:

* the **window analysis** (:mod:`.decode_graph`, :mod:`.window`,
  :mod:`.metrics`) — a shared decode graph whose reachability tables
  are the sound semantic prefilter of gadget extraction, and
  per-candidate :class:`~.window.WindowSummary` values read off the
  symbolic executor's paths for solver-free gadget-set quality metrics;
* the **mini-C overflow checker** (:mod:`.domain`, :mod:`.taint`,
  :mod:`.lint`) — the taint/interval analysis behind ``nfl lint`` that
  discovers the netperf ``break_args`` bug instead of hardcoding it.
"""

from .decode_graph import DecodeGraph, shared_decode_graph
from .domain import Interval
from .lint import check_module_source, format_findings
from .metrics import GadgetSetMetrics, classify_summary, compute_metrics, format_metrics
from .taint import DEFAULT_SOURCES, ModuleChecker, OverflowFinding
from .window import WindowSummary, summarize_window

__all__ = [
    "DecodeGraph",
    "DEFAULT_SOURCES",
    "GadgetSetMetrics",
    "Interval",
    "ModuleChecker",
    "OverflowFinding",
    "WindowSummary",
    "check_module_source",
    "classify_summary",
    "compute_metrics",
    "format_findings",
    "format_metrics",
    "shared_decode_graph",
    "summarize_window",
]
