"""Gadget extraction — stage 1 of Gadget-Planner's workflow.

Candidate start addresses come from two sources, matching Sec. IV-B:

* every instruction boundary inside every recovered basic block
  ("decode from the valid starting position of each basic block ...
  ignore the first N instructions and search from an arbitrary position
  in the middle of a basic block"), and
* every *unaligned* byte offset in the text section that syntactically
  decodes to an indirect-transfer-terminated window (the strategy that
  "can detect unaligned instructions").

Three stages of filtering feed the symbolic executor:

1. a cheap syntactic prefilter (``syntactic_scan``) culls offsets from
   which a bounded DFS over the decode graph's successor table, under
   the configured walk rules, reaches no indirect transfer;
2. a *semantic* prefilter (``DecodeGraph.reaches_transfer_within``)
   culls survivors whose decode-graph distance to any indirect transfer
   exceeds the window budget — a sound proof that symbolic execution
   would yield only DEAD paths, so the gadget pool is unchanged;
3. survivors get full symbolic execution, and each usable path becomes
   one Table II record (so a window with a conditional jump yields
   several records, one per feasible side — Fig. 4's distinct feature).

All three stages share one :class:`~repro.staticanalysis.DecodeGraph`,
so every byte of the section is decoded exactly once per extraction;
the syntactic scan walks plain successor offsets and never touches an
instruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ..analysis.cfg import recover_cfg
from ..binfmt.image import BinaryImage
from ..obs import metrics, span
from ..staticanalysis.decode_graph import DecodeGraph, shared_decode_graph
from ..symex.executor import SymbolicExecutor
from .record import GadgetRecord, record_from_path


@dataclass
class ExtractionConfig:
    """Tunables for the extraction stage."""

    max_insns: int = 16  # window length in instructions
    max_paths: int = 6  # fork budget per candidate
    probe_unaligned: bool = True
    include_conditional: bool = True  # ablation knob
    merge_direct_jumps: bool = True  # ablation knob
    max_candidates: Optional[int] = None  # cap for huge binaries
    max_scan_steps: int = 48  # syntactic prefilter depth
    semantic_prefilter: bool = True  # ablation knob (sound: pool unchanged)


@dataclass
class ExtractionStats:
    """Observability for the extraction stage (filled if passed in).

    ``wall_total`` sums the walls of the stage's :mod:`repro.obs` spans
    (cache lookup and store included) — the same measurements a
    ``--trace`` run exports — so the CLI summary and the trace never
    disagree.
    """

    candidates: int = 0  # after the syntactic stage
    semantically_culled: int = 0  # candidates the prefilter removed
    symex_invocations: int = 0  # windows actually executed symbolically
    records: int = 0
    cache_hits: int = 0  # persistent-cache lookups that short-circuited
    cache_misses: int = 0
    wall_total: float = 0.0  # end-to-end, including cache lookup and store

    @property
    def cull_ratio(self) -> float:
        return self.semantically_culled / self.candidates if self.candidates else 0.0

    @property
    def cache_hit(self) -> bool:
        return self.cache_hits > 0


def syntactic_scan(graph: DecodeGraph, offset: int, config: ExtractionConfig) -> bool:
    """Cheap prefilter: can *some* walk from ``offset`` reach an indirect
    transfer within budget?  Conditional jumps explore both sides (a
    bounded DFS) — essential on flattened code, where nearly every path
    to a ``ret`` goes through dispatcher compare-and-branch chains.

    The walk rules come from ``graph.successors`` under the config's
    ablation knobs.  The budget ``max_scan_steps`` counts distinct
    offsets visited in DFS order (taken side of a conditional jump
    below its fall-through on the stack), not walk depth: a short walk
    to a transfer that the DFS reaches late does not count.
    """
    succ = graph.successors(config.merge_direct_jumps, config.include_conditional)
    if not 0 <= offset < len(succ):
        return False
    work: List[int] = [offset]
    seen: Set[int] = set()
    while work and len(seen) < config.max_scan_steps:
        cursor = work.pop()
        if cursor in seen:
            continue
        seen.add(cursor)
        nexts = succ[cursor]
        if nexts is None:
            return True
        work.extend(nexts)
    return False


def candidate_offsets(
    image: BinaryImage,
    config: ExtractionConfig,
    graph: Optional[DecodeGraph] = None,
) -> List[int]:
    """Candidate start addresses, aligned probes first.

    ``graph`` defaults to the process-wide :func:`shared_decode_graph`
    of the image's text section.
    """
    text = image.text
    base = text.addr
    if graph is None:
        graph = shared_decode_graph(text.data, base)
    aligned: List[int] = []
    seen: Set[int] = set()
    cfg = recover_cfg(image, decoder=graph.decode_addr)
    for block in cfg.blocks.values():
        for insn in block.instructions:
            if insn.addr not in seen:
                seen.add(insn.addr)
                aligned.append(insn.addr)
    unaligned: List[int] = []
    if config.probe_unaligned:
        for offset in range(len(text.data)):
            addr = base + offset
            if addr not in seen:
                unaligned.append(addr)
    candidates = [a for a in aligned + unaligned if syntactic_scan(graph, a - base, config)]
    if config.max_candidates is not None and len(candidates) > config.max_candidates:
        # Sample evenly instead of truncating, so the cap preserves the
        # aligned/unaligned mix and spans the whole text section.
        step = len(candidates) / config.max_candidates
        candidates = [candidates[int(i * step)] for i in range(config.max_candidates)]
    return candidates


def plan_candidates(
    image: BinaryImage,
    config: ExtractionConfig,
    stats: Optional[ExtractionStats] = None,
) -> Tuple[DecodeGraph, List[int]]:
    """Stages 1+2: the shared decode graph and the final candidate list.

    When ``config.semantic_prefilter`` is on, candidates whose decode
    graph proves them transfer-unreachable within the window budget are
    dropped before symbolic execution.  The prefilter runs *after* the
    candidate list is fixed (including ``max_candidates`` sampling), so
    it changes which windows are executed, never which are considered —
    with identical record output either way, gadget ids included,
    because culled windows contribute zero usable paths.
    """
    text = image.text
    # One decode of the section per process, shared with the syntactic
    # census and the baseline scanners (same bytes → same graph).
    graph = shared_decode_graph(text.data, text.addr)
    with span("extract.plan") as plan_sp:
        with span("extract.candidates") as cand_sp:
            candidates = candidate_offsets(image, config, graph)
        cand_sp.add("candidates", len(candidates))
        if stats is not None:
            stats.candidates = len(candidates)
        if config.semantic_prefilter:
            with span("extract.prefilter") as pre_sp:
                base = graph.base_addr
                kept = [
                    a for a in candidates
                    if graph.reaches_transfer_within(a - base, config.max_insns)
                ]
            pre_sp.add("culled", len(candidates) - len(kept))
            if stats is not None:
                stats.semantically_culled = len(candidates) - len(kept)
            candidates = kept
        plan_sp.add("candidates", len(candidates))
    return graph, candidates


def make_executor(graph: DecodeGraph, config: ExtractionConfig) -> SymbolicExecutor:
    """The symbolic executor the extraction stage runs candidates on,
    reading instructions from ``graph``."""
    return SymbolicExecutor(
        graph,
        max_insns=config.max_insns,
        max_paths=config.max_paths if config.include_conditional else 1,
    )


def run_candidates(
    executor: SymbolicExecutor,
    candidates: List[int],
    config: ExtractionConfig,
    stats: Optional[ExtractionStats] = None,
) -> List[GadgetRecord]:
    """Stage 3: symbolically execute candidates, in order, into records.

    Ids are assigned sequentially from 0 in candidate order.
    """
    records: List[GadgetRecord] = []
    gadget_id = 0
    steps_histogram = metrics().histogram("symex.steps_per_candidate")
    insns_at_entry = executor.insns_executed
    paths_at_entry = executor.paths_completed
    with span("extract.symex.run") as sp:
        for addr in candidates:
            if stats is not None:
                stats.symex_invocations += 1
            steps_before = executor.insns_executed
            for path in executor.execute_paths(addr):
                if not path.is_usable:
                    continue
                if not config.include_conditional and path.conditional_jumps:
                    continue
                if not config.merge_direct_jumps and path.merged_direct_jumps:
                    continue
                records.append(record_from_path(gadget_id, path))
                gadget_id += 1
            steps_histogram.observe(executor.insns_executed - steps_before)
        sp.add("candidates", len(candidates))
        sp.add("records", len(records))
        # Deltas, not lifetime totals: a caller may pass an executor
        # that has already run other candidates.
        sp.add("insns", executor.insns_executed - insns_at_entry)
        sp.add("paths", executor.paths_completed - paths_at_entry)
    return records


def extract_gadgets(
    image: BinaryImage,
    config: Optional[ExtractionConfig] = None,
    stats: Optional[ExtractionStats] = None,
) -> List[GadgetRecord]:
    """Run the full extraction stage over an image.

    This is the stage's one driver; :mod:`repro.pipeline` only puts the
    result cache in front of it.
    """
    config = config or ExtractionConfig()
    stats = stats if stats is not None else ExtractionStats()
    with span("extract") as root:
        graph, candidates = plan_candidates(image, config, stats)
        with span("extract.symex") as sym_sp:
            records = run_candidates(make_executor(graph, config), candidates, config, stats)
        sym_sp.add("records", len(records))
        root.add("records", len(records))
    stats.records = len(records)
    stats.wall_total += root.wall
    return records
