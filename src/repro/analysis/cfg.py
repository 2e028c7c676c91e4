"""Control-flow-graph recovery on raw binaries.

Classic recursive-traversal disassembly: start from every known entry
point (function symbols plus the image entry), follow direct control
flow, collect leaders, and split the instruction stream into basic
blocks.  Gadget extraction uses the recovered blocks as its aligned
probe points (the paper: "decode from the valid starting position of
each basic block"), on top of its unaligned probing.

The walk reads a :class:`~repro.staticanalysis.DecodeGraph`'s int
tables (where each instruction ends, where a direct transfer lands)
and the byte table's control kind and opcode of each first byte, so it
builds no instruction.  Blocks keep instruction addresses; their
instructions are read from the graph on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..binfmt.image import BinaryImage
from ..isa.encoding import BYTE_TABLE, DIRECT, PLAIN
from ..isa.instructions import COND_JUMPS, Instruction, Op
from ..staticanalysis.decode_graph import DecodeGraph, shared_decode_graph

#: Terminators whose next instruction also runs: a call returns there,
#: and a syscall or a not-taken conditional jump continues there.
_FALLS_THROUGH = frozenset({Op.CALL_REL, Op.CALL_R, Op.SYSCALL, *COND_JUMPS})


@dataclass
class BasicBlock:
    start: int
    addrs: List[int]  # instruction addresses, never empty
    successors: Tuple[int, ...]
    graph: DecodeGraph = field(repr=False, compare=False)

    @property
    def instructions(self) -> List[Instruction]:
        return [self.graph.decode_addr(addr) for addr in self.addrs]

    @property
    def end(self) -> int:
        return self.terminator.end

    @property
    def terminator(self) -> Instruction:
        return self.graph.decode_addr(self.addrs[-1])


@dataclass
class CFG:
    blocks: Dict[int, BasicBlock] = field(default_factory=dict)
    entries: Set[int] = field(default_factory=set)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def conditional_edges(self) -> int:
        return sum(1 for b in self.blocks.values() if b.terminator.is_cond_jump())


def recover_cfg(image: BinaryImage, graph: Optional[DecodeGraph] = None) -> CFG:
    """Recover basic blocks over the image's text section.

    ``graph`` is the text section's decode graph, by default the
    process-wide :func:`shared_decode_graph`.  Direct jump, call and
    conditional-jump targets in the section become leaders, as does the
    next instruction after a call, a syscall or a conditional jump;
    ``ret``, ``hlt`` and indirect jumps end a walk.
    """
    text = image.text
    base = text.addr
    if graph is None:
        graph = shared_decode_graph(text.data, base)
    code = graph.code
    ends = graph._ends
    targets = graph._targets
    n = len(ends)

    entries = {addr for addr in image.symbols.values() if base <= addr < base + n}
    if base <= image.entry < base + n:
        entries.add(image.entry)

    # Pass 1: walk from entries over the graph's shapes, collect leaders.
    leaders: Set[int] = {addr - base for addr in entries}
    visited = bytearray(n)
    work = list(leaders)
    while work:
        offset = work.pop()
        while offset < n and not visited[offset] and ends[offset]:
            visited[offset] = 1
            shape = BYTE_TABLE[code[offset]]
            if shape.kind == PLAIN:
                offset = ends[offset]
                continue
            if shape.kind >= DIRECT:  # the rel32 kinds, DIRECT and COND
                target = targets[offset]
                if 0 <= target < n:
                    leaders.add(target)
                    work.append(target)
            end = ends[offset]
            if shape.op in _FALLS_THROUGH and end < n:
                leaders.add(end)
                work.append(end)
            break

    # Pass 2: split the walked stream at leaders.
    cfg = CFG(entries=entries)
    for leader in sorted(leaders):
        if not visited[leader]:
            continue
        addrs: List[int] = []
        offset = leader
        while offset < n and visited[offset]:
            addrs.append(base + offset)
            shape = BYTE_TABLE[code[offset]]
            end = ends[offset]
            if shape.kind != PLAIN or end in leaders:
                break
            offset = end
        successors: List[int] = []
        if shape.kind == PLAIN:
            if end in leaders:
                successors.append(base + end)
        else:
            if shape.kind >= DIRECT and targets[offset] in leaders:
                successors.append(base + targets[offset])
            if shape.op in _FALLS_THROUGH and end in leaders:
                successors.append(base + end)
        cfg.blocks[base + leader] = BasicBlock(base + leader, addrs, tuple(successors), graph)
    return cfg
