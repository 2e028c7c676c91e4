"""Static analysis layer: the window analysis over decoded bytes.

A shared decode graph (:mod:`.decode_graph`) whose reachability tables
are the sound semantic prefilter of gadget extraction, and per-candidate
:class:`~.window.WindowSummary` values (:mod:`.window`) read off the
symbolic executor's paths for solver-free gadget-set quality metrics
(:mod:`.metrics`).
"""

from .decode_graph import DecodeGraph, shared_decode_graph
from .metrics import GadgetSetMetrics, classify_summary, compute_metrics, format_metrics
from .window import WindowSummary, summarize_window

__all__ = [
    "DecodeGraph",
    "GadgetSetMetrics",
    "WindowSummary",
    "classify_summary",
    "compute_metrics",
    "format_metrics",
    "shared_decode_graph",
    "summarize_window",
]
