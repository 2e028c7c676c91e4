"""Gadget-set quality metrics in the style of Brown et al.

"Not So Fast" argues that raw gadget counts (Fig. 1 of our source
paper) say little about *usability*, and scores gadget sets by their
functional diversity and by the availability of a few special-purpose
gadget kinds instead.  This module computes the analogous metrics over
:class:`~.window.WindowSummary` values — the symbolic executor's paths
with their expressions dropped, so no solver runs — which keeps a
full-binary "semantic census" cheap enough to run inside benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable

from ..isa.registers import Reg
from ..symex.executor import EndKind
from .window import WindowSummary

#: Functional gadget classes, in reporting order.
GADGET_CLASSES = (
    "ret",  # ends with a plain ret
    "jop",  # ends with jmp reg / jmp [mem]
    "cop",  # ends with call reg
    "syscall",  # reaches a syscall
    "reg_load",  # pops payload data into a non-rsp register
    "reg_move",  # clobbers a non-rsp register without consuming payload
    "stack_write",  # writes a known rsp-relative slot
    "mem_write",  # writes through a computed (non-stack) pointer
    "stack_pivot",  # leaves rsp at a non-constant or path-dependent offset
    "branch",  # contains a resolvable conditional jump
)

_JOP_ENDS = frozenset({EndKind.JMP_REG, EndKind.JMP_MEM})


def classify_summary(summary: WindowSummary) -> FrozenSet[str]:
    """The functional classes a window may provide."""
    if not summary.usable:
        return frozenset()
    classes = set()
    if EndKind.RET in summary.ends:
        classes.add("ret")
    if summary.ends & _JOP_ENDS:
        classes.add("jop")
    if EndKind.CALL_REG in summary.ends:
        classes.add("cop")
    if EndKind.SYSCALL in summary.ends:
        classes.add("syscall")
    nonsp = frozenset(r for r in summary.clobbered if r is not Reg.RSP)
    delta = summary.known_stack_delta
    if nonsp and delta is not None and delta > 8:
        classes.add("reg_load")
    elif nonsp:
        classes.add("reg_move")
    if summary.stack_write_offsets:
        classes.add("stack_write")
    if summary.has_wild_writes:
        classes.add("mem_write")
    if delta is None:
        classes.add("stack_pivot")
    if summary.conditional:
        classes.add("branch")
    return frozenset(classes)


@dataclass
class GadgetSetMetrics:
    """Aggregate quality metrics for one binary's gadget set."""

    total_windows: int = 0
    usable_windows: int = 0
    class_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def functional_diversity(self) -> float:
        """Fraction of functional classes represented at least once."""
        present = sum(1 for c in GADGET_CLASSES if self.class_counts.get(c, 0) > 0)
        return present / len(GADGET_CLASSES)


def compute_metrics(summaries: Iterable[WindowSummary]) -> GadgetSetMetrics:
    metrics = GadgetSetMetrics(class_counts={c: 0 for c in GADGET_CLASSES})
    for summary in summaries:
        metrics.total_windows += 1
        classes = classify_summary(summary)
        if classes:
            metrics.usable_windows += 1
        for c in classes:
            metrics.class_counts[c] += 1
    return metrics


def format_metrics(metrics: GadgetSetMetrics) -> str:
    """A small fixed-width table for benchmark results / the CLI."""
    lines = [
        f"windows scanned:       {metrics.total_windows}",
        f"semantically usable:   {metrics.usable_windows}",
        f"functional diversity:  {metrics.functional_diversity:.2f}",
    ]
    for c in GADGET_CLASSES:
        lines.append(f"  {c:<13}{metrics.class_counts.get(c, 0)}")
    return "\n".join(lines)
