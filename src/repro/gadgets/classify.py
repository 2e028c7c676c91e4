"""Syntactic gadget counting and classification (Fig. 1 / Table I).

This module reproduces what the *measurement study* in Sec. III does:
run a ROPGadget-style syntactic scan over a binary and bucket every
gadget by its terminating transfer.  It is deliberately independent of
the symbolic pipeline — the paper's point is precisely that counting
gadgets is easy while *using* them is not.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, TYPE_CHECKING, Tuple

from ..binfmt.image import BinaryImage
from ..isa.instructions import Instruction, Op
from ..symex.executor import SymbolicExecutor
from .record import JmpType

if TYPE_CHECKING:  # pragma: no cover
    from ..staticanalysis.decode_graph import DecodeGraph

#: Terminators for the syntactic scan.
_END_OPS = {Op.RET, Op.JMP_R, Op.JMP_M, Op.CALL_R, Op.JMP_REL}


@dataclass
class SyntacticGadget:
    """A gadget found by pure decoding (no semantics)."""

    addr: int
    insns: List[Instruction]
    kind: JmpType

    @property
    def length(self) -> int:
        return len(self.insns)


def classify_window(insns: List[Instruction]) -> Optional[JmpType]:
    """Table I classification of a decoded window ending in a transfer."""
    if not insns:
        return None
    last = insns[-1]
    has_conditional = any(i.is_cond_jump() for i in insns[:-1])
    if last.op == Op.RET:
        return JmpType.RET if not has_conditional else JmpType.CIJ
    if last.op in (Op.JMP_R, Op.JMP_M, Op.CALL_R):
        return JmpType.CIJ if has_conditional else JmpType.UIJ
    if last.op == Op.JMP_REL:
        return JmpType.CDJ if has_conditional else JmpType.UDJ
    if last.is_cond_jump():
        return JmpType.CDJ
    return None


def scan_syntactic_gadgets(
    image: BinaryImage,
    *,
    max_insns: int = 8,
    include_conditional: bool = True,
    graph: Optional["DecodeGraph"] = None,
) -> List[SyntacticGadget]:
    """ROPGadget-style scan: from every byte offset, decode up to
    ``max_insns`` instructions; every prefix ending in a transfer is a
    gadget.  Gadgets are deduplicated by (address, end address).

    Decoding goes through the shared per-process
    :class:`~repro.staticanalysis.decode_graph.DecodeGraph`, so a scan
    after (or before) gadget extraction on the same image costs no
    second decode of the section; pass ``graph`` to reuse one you
    already hold.
    """
    from ..staticanalysis.decode_graph import shared_decode_graph

    text = image.text
    code = text.data
    base = text.addr
    if graph is None:
        graph = shared_decode_graph(code, base)
    out: List[SyntacticGadget] = []
    seen: Set[Tuple[int, int]] = set()
    for offset in range(len(code)):
        insns: List[Instruction] = []
        cursor = offset
        for _ in range(max_insns):
            insn = graph.decode_at(cursor)
            if insn is None:
                break
            insns.append(insn)
            cursor = insn.end - base
            if insn.op in _END_OPS or insn.is_cond_jump():
                kind = classify_window(insns)
                if kind is None:
                    break
                if not include_conditional and kind in (JmpType.CDJ, JmpType.CIJ):
                    break
                key = (offset, cursor)
                if key not in seen:
                    seen.add(key)
                    out.append(SyntacticGadget(addr=base + offset, insns=list(insns), kind=kind))
                if insn.op in _END_OPS:
                    break
                # A conditional jump: keep scanning the fall-through for
                # longer gadgets that contain it (CIJ material).
        # (loop over start offsets continues)
    return out


def count_by_type(gadgets: List[SyntacticGadget]) -> Dict[JmpType, int]:
    """Gadget population per Table I row."""
    counts: Counter = Counter(g.kind for g in gadgets)
    return {k: counts.get(k, 0) for k in JmpType if k is not JmpType.SYSCALL}


def total_gadgets(image: BinaryImage, **kwargs) -> int:
    """Fig. 1's headline number for one binary."""
    return len(scan_syntactic_gadgets(image, **kwargs))


def semantic_census(
    image: BinaryImage, *, max_insns: int = 8, max_paths: int = 128
) -> "GadgetSetMetrics":
    """Brown-et-al-style gadget-set quality metrics, solver-free.

    Where :func:`scan_syntactic_gadgets` counts windows (the Fig. 1
    view this module exists for), the semantic census *summarises* them:
    every byte offset that can reach an indirect transfer within
    ``max_insns`` instructions runs through one symbolic executor over
    the shared decode graph (at most ``max_paths`` paths per window)
    into a :class:`~repro.staticanalysis.WindowSummary`, and the
    aggregate reports functional diversity and special-purpose gadget
    counts — the "is this gadget set actually usable?" question raw
    counts cannot answer.
    """
    from ..staticanalysis.decode_graph import shared_decode_graph
    from ..staticanalysis.metrics import GadgetSetMetrics, compute_metrics
    from ..staticanalysis.window import summarize_window

    text = image.text
    graph = shared_decode_graph(text.data, text.addr)
    executor = SymbolicExecutor(graph, max_insns=max_insns, max_paths=max_paths)
    summaries = (
        summarize_window(executor, text.addr + offset)
        for offset in range(len(text.data))
        if graph.reaches_transfer_within(offset, max_insns)
    )
    metrics = compute_metrics(summaries)
    metrics.total_windows = len(text.data)
    return metrics
