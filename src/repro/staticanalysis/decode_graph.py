"""Shared decode graph over a code window.

Gadget candidates overlap almost completely: every byte offset of the
text section starts a window, and two windows one byte apart share all
but one decode.  The syntactic scan, the semantic prefilter and the
symbolic executor therefore all work over a :class:`DecodeGraph` that
reads each offset's shape (does it decode, where does it end, where
does a direct transfer land) once from the ISA's byte table, builds an
instruction only the first time a caller reads its offset, and
precomputes reachability facts on the induced control-flow graph:

* ``dist_to_transfer`` — for every offset, the minimum number of
  executed instructions (counting the terminator) of any walk that ends
  at an indirect control transfer, following the *symbolic executor's*
  successor rules (direct jumps/calls always followed, both sides of a
  conditional jump explored, ``hlt``/decode-failure dead).  A candidate
  whose distance exceeds the window budget provably yields only DEAD
  paths under symbolic execution — the sound cull used by the semantic
  prefilter (see :meth:`DecodeGraph.reaches_transfer_within`).
* ``successors`` — per pair of walk rules, the successor offsets of
  every offset as plain ints: ``None`` at an indirect transfer, ``()``
  at a dead end, else the offsets a walk continues at.  This is the one
  place the walk rules are written down; the syntactic scan runs its
  bounded DFS over these tables, and ``dist_to_transfer`` is a reverse
  BFS over the executor's pair of them.
* ``scan_table`` — per rule pair and scan budget, the DFS position of
  the first indirect transfer from every offset (0 where none lies
  within the budget), filled once from the highest offset down: the
  distance table decides most offsets, an offset with one successor
  already decided is derived from it, and only the rest run the DFS.
  The syntactic scan and the candidate stage read this table.

CFG recovery (:func:`repro.analysis.cfg.recover_cfg`) walks the same
int tables and builds no instruction either.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..isa.encoding import BYTE_TABLE, DIRECT, HALT, PLAIN, TRANSFER, decode
from ..isa.instructions import Instruction

#: Sentinel distance for "no transfer reachable".
UNREACHABLE = -1


class ScanTable(NamedTuple):
    """The syntactic scan's answers for one rule pair and budget.

    ``first[o]`` is the DFS position of the first indirect transfer
    from ``o`` (an upper bound where derived), 0 where none lies within
    the budget; ``bounded`` and ``walked`` count the offsets the
    distance table and the DFS decided.
    """

    first: List[int]
    bounded: int
    walked: int


def _first_transfer(succ: List[Optional[Tuple[int, ...]]], offset: int, budget: int) -> int:
    """The scan's DFS from ``offset``: the position, counting
    distinct offsets in visit order, of the first indirect transfer it
    reaches, or 0 where ``budget`` offsets pass without one.  The taken
    side of a conditional jump lies below its fall-through on the
    stack."""
    work: List[int] = [offset]
    seen = set()
    while work and len(seen) < budget:
        cursor = work.pop()
        if cursor in seen:
            continue
        seen.add(cursor)
        nexts = succ[cursor]
        if nexts is None:
            return len(seen)
        work.extend(nexts)
    return 0


@functools.lru_cache(maxsize=8)
def shared_decode_graph(code: bytes, base_addr: int) -> "DecodeGraph":
    """A process-wide cache of :class:`DecodeGraph` per (code, base).

    Decoding a section is the dominant fixed cost shared by gadget
    extraction, the syntactic census and every baseline scanner; tools
    that analyse the same image byte-for-byte (the Fig. 1 / Table 1
    comparisons run three tools over each build) should decode it once.
    Graphs are immutable apart from memoised instructions and
    reachability and scan tables, so sharing cannot change any caller's
    results.
    The small LRU bound keeps at most a handful of text sections alive.
    """
    return DecodeGraph(code, base_addr)


class DecodeGraph:
    """Decode shapes + reachability tables for one (code, base) view.

    One pass over :data:`~repro.isa.encoding.BYTE_TABLE` records, for
    every offset, where the instruction there ends (0 where none
    decodes) and where a direct transfer lands; the walk tables are
    built from those ints, and CFG recovery walks them directly.  An
    :class:`Instruction` is built the first time a caller reads its
    offset and kept, so every read of an offset returns the same
    object.
    """

    def __init__(self, code: bytes, base_addr: int) -> None:
        self.code = code
        self.base_addr = base_addr
        n = len(code)
        ends = [0] * n
        targets: Dict[int, int] = {}
        table = BYTE_TABLE
        for offset, byte in enumerate(code):
            shape = table[byte]
            if shape is None:
                continue
            end = offset + shape.size
            if end > n or (shape.zero_high_nibble and code[offset + 1] & 0xF0):
                continue
            ends[offset] = end
            if shape.kind >= DIRECT:  # the rel32 kinds, DIRECT and COND
                rel = int.from_bytes(code[offset + 1 : end], "little", signed=True)
                targets[offset] = end + rel
        self._ends = ends
        self._targets = targets
        self._insns: List[Optional[Instruction]] = [None] * n
        self._dist: Optional[List[int]] = None
        self._successors: Dict[Tuple[bool, bool], List[Optional[Tuple[int, ...]]]] = {}
        self._scans: Dict[Tuple[bool, bool, int], ScanTable] = {}
        #: The symbolic executor's entry (the instruction with its
        #: handler bound) per address it has run, kept here so entries
        #: live exactly as long as the graph.
        self.symex_entries: Dict[int, tuple] = {}

    # -- decoding ---------------------------------------------------------

    def decode_at(self, offset: int) -> Optional[Instruction]:
        """The instruction decoded at ``offset``, or None; built on the
        first read and the same object on every later one."""
        if 0 <= offset < len(self._ends) and self._ends[offset]:
            insn = self._insns[offset]
            if insn is None:
                insn = self._insns[offset] = decode(self.code, offset, addr=self.base_addr + offset)
            return insn
        return None

    def decode_addr(self, addr: int) -> Optional[Instruction]:
        """Address-keyed variant of :meth:`decode_at`."""
        return self.decode_at(addr - self.base_addr)

    @property
    def insns(self) -> List[Optional[Instruction]]:
        """Every offset's :meth:`decode_at`, for whole-section readers."""
        return [self.decode_at(offset) for offset in range(len(self.code))]

    # -- walk rules -------------------------------------------------------

    def successors(
        self, merge_direct_jumps: bool, include_conditional: bool
    ) -> List[Optional[Tuple[int, ...]]]:
        """Per-offset successor table under one pair of walk rules.

        Entry ``o`` is ``None`` if the instruction at ``o`` is an
        indirect transfer; ``()`` at a dead end (no decode, ``hlt``, or
        a direct jump/call when ``merge_direct_jumps`` is off); else
        the in-range offsets a walk continues at, the taken side of a
        conditional jump (only when ``include_conditional``) before its
        fall-through.  Successors outside the section are dropped, as a
        walk stepping there stops.  ``(True, True)`` are the symbolic
        executor's rules, over-approximated: both sides of every
        conditional jump are listed even when the executor would
        statically resolve one away.  Built once per rule pair, from
        the byte table's control kinds, without an instruction.
        """
        key = (merge_direct_jumps, include_conditional)
        table = self._successors.get(key)
        if table is not None:
            return table
        code = self.code
        n = len(code)
        targets = self._targets
        shapes = BYTE_TABLE
        table = []
        append = table.append
        for offset, end in enumerate(self._ends):
            if not end:
                append(())
                continue
            kind = shapes[code[offset]].kind
            if kind == PLAIN:
                append((end,) if end < n else ())
            elif kind == TRANSFER:
                append(None)
            elif kind == HALT:
                append(())
            else:
                target = targets[offset]
                if kind == DIRECT:
                    succs = (target,) if merge_direct_jumps else ()
                elif include_conditional:
                    succs = (target, end)
                else:
                    succs = (end,)
                append(tuple(o for o in succs if 0 <= o < n))
        self._successors[key] = table
        return table

    # -- the syntactic scan -----------------------------------------------

    def scan_table(
        self, merge_direct_jumps: bool, include_conditional: bool, max_scan_steps: int
    ) -> ScanTable:
        """The syntactic scan's answer at every offset, built once per
        rule pair and budget.

        The scan from ``o`` accepts when a DFS over
        :meth:`successors` meets an indirect transfer among the first
        ``max_scan_steps`` distinct offsets it visits.  Offsets are
        decided from the highest down:

        * by :attr:`dist_to_transfer`: a transfer at ``o`` is accepted
          at position 1, and ``o`` is rejected when no walk under the
          executor's rules (whose edges include every other pair's)
          reaches a transfer within the budget, since a DFS that meets
          one at position ``k`` has visited a walk to it of at most
          ``k`` instructions;
        * from ``o``'s one successor ``s`` when it is already decided:
          ``o`` pushes only ``s``, so the DFS from ``o`` visits ``o``
          and then the DFS order from ``s`` with ``o`` removed, cycles
          included.  No transfer within the budget from ``s`` means
          none from ``o``, and a first transfer at position ``<= h``
          from ``s`` puts one at ``<= h + 1`` from ``o``;
        * by the DFS itself, which finds the exact position, for every
          other offset: conditional jumps, a successor not yet decided
          and a derived bound past the budget.

        A new derivation rule must keep that argument: it holds only
        for an offset whose DFS pushes a single offset.
        """
        key = (merge_direct_jumps, include_conditional, max_scan_steps)
        table = self._scans.get(key)
        if table is not None:
            return table
        succ = self.successors(merge_direct_jumps, include_conditional)
        dist = self.dist_to_transfer
        first = [0] * len(succ)
        bounded = walked = 0
        for offset in range(len(succ) - 1, -1, -1):
            d = dist[offset]
            if d == 1 or d == UNREACHABLE or d > max_scan_steps:
                if d == 1 and max_scan_steps >= 1:
                    first[offset] = 1
                bounded += 1
                continue
            nexts = succ[offset]
            if len(nexts) == 1 and nexts[0] > offset:
                h = first[nexts[0]]
                if not h:
                    continue
                if h < max_scan_steps:
                    first[offset] = h + 1
                    continue
            walked += 1
            first[offset] = _first_transfer(succ, offset, max_scan_steps)
        table = self._scans[key] = ScanTable(first, bounded, walked)
        return table

    # -- distance to an indirect transfer ---------------------------------

    @property
    def dist_to_transfer(self) -> List[int]:
        """Min executed-instruction count to an indirect transfer.

        ``dist[o] == 1`` means the instruction at ``o`` *is* a transfer;
        ``dist[o] == k`` means the shortest walk executes ``k``
        instructions ending at one; :data:`UNREACHABLE` means no walk
        exists.  Computed once by reverse BFS (unit edge weights).
        """
        if self._dist is None:
            n = len(self.code)
            preds: List[List[int]] = [[] for _ in range(n)]
            queue: deque = deque()
            dist = [UNREACHABLE] * n
            for offset, succs in enumerate(self.successors(True, True)):
                if succs is None:
                    dist[offset] = 1
                    queue.append(offset)
                    continue
                for succ in succs:
                    preds[succ].append(offset)
            while queue:
                offset = queue.popleft()
                d = dist[offset]
                for pred in preds[offset]:
                    if dist[pred] == UNREACHABLE:
                        dist[pred] = d + 1
                        queue.append(pred)
            self._dist = dist
        return self._dist

    def reaches_transfer_within(self, offset: int, budget: int) -> bool:
        """Can *any* executor walk from ``offset`` end at an indirect
        transfer while executing at most ``budget`` instructions?

        False here is a proof that symbolic execution with
        ``max_insns == budget`` produces only DEAD paths from
        ``offset``: every symbolic path follows one of the walks this
        graph over-approximates, and each executed instruction
        (including merged direct jumps) consumes one unit of the
        executor's length budget.
        """
        if not 0 <= offset < len(self.code):
            return False
        d = self.dist_to_transfer[offset]
        return d != UNREACHABLE and d <= budget
