"""Shared decode graph over a code window.

Gadget candidates overlap almost completely: every byte offset of the
text section starts a window, and two windows one byte apart share all
but one decode.  The syntactic scan, the semantic prefilter and the
symbolic executor therefore all work over a :class:`DecodeGraph` that
decodes each offset of the section exactly once and precomputes
reachability facts on the induced control-flow graph:

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
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Dict, List, Optional, Tuple

from ..isa.encoding import DecodeError, decode
from ..isa.instructions import Instruction, Op

#: Instructions that end a gadget usefully (mirrors gadgets.extract).
INDIRECT_ENDS = frozenset({Op.RET, Op.JMP_R, Op.JMP_M, Op.CALL_R, Op.SYSCALL})

#: Sentinel distance for "no transfer reachable".
UNREACHABLE = -1


@functools.lru_cache(maxsize=8)
def shared_decode_graph(code: bytes, base_addr: int) -> "DecodeGraph":
    """A process-wide cache of :class:`DecodeGraph` per (code, base).

    Decoding a section is the dominant fixed cost shared by gadget
    extraction, the syntactic census and every baseline scanner; tools
    that analyse the same image byte-for-byte (the Fig. 1 / Table 1
    comparisons run three tools over each build) should decode it once.
    Graphs are immutable apart from memoised reachability tables, so
    sharing cannot change any caller's results.  The small LRU bound
    keeps at most a handful of text sections alive.
    """
    return DecodeGraph(code, base_addr)


class DecodeGraph:
    """Decode cache + reachability tables for one (code, base) view."""

    def __init__(self, code: bytes, base_addr: int) -> None:
        self.code = code
        self.base_addr = base_addr
        n = len(code)
        insns: List[Optional[Instruction]] = [None] * n
        for offset in range(n):
            try:
                insns[offset] = decode(code, offset, addr=base_addr + offset)
            except DecodeError:
                pass
        self.insns = insns
        self._dist: Optional[List[int]] = None
        self._successors: Dict[Tuple[bool, bool], List[Optional[Tuple[int, ...]]]] = {}

    # -- decoding ---------------------------------------------------------

    def decode_at(self, offset: int) -> Optional[Instruction]:
        """The instruction decoded at ``offset``, or None."""
        if 0 <= offset < len(self.insns):
            return self.insns[offset]
        return None

    def decode_addr(self, addr: int) -> Optional[Instruction]:
        """Address-keyed variant of :meth:`decode_at`."""
        return self.decode_at(addr - self.base_addr)

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
        statically resolve one away.  Built once per rule pair.
        """
        key = (merge_direct_jumps, include_conditional)
        table = self._successors.get(key)
        if table is not None:
            return table
        n = len(self.insns)
        base = self.base_addr
        table = []
        for insn in self.insns:
            if insn is None or insn.op == Op.HLT:
                table.append(())
                continue
            if insn.op in INDIRECT_ENDS:
                table.append(None)
                continue
            if insn.op in (Op.JMP_REL, Op.CALL_REL):
                succs = (insn.target - base,) if merge_direct_jumps else ()
            elif insn.is_cond_jump() and include_conditional:
                succs = (insn.target - base, insn.end - base)
            else:
                succs = (insn.end - base,)
            table.append(tuple(o for o in succs if 0 <= o < n))
        self._successors[key] = table
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
            n = len(self.insns)
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
        if not 0 <= offset < len(self.insns):
            return False
        d = self.dist_to_transfer[offset]
        return d != UNREACHABLE and d <= budget
