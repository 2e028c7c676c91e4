"""Control-flow-graph recovery on raw binaries.

Classic recursive-traversal disassembly: start from every known entry
point (function symbols plus the image entry), follow direct control
flow, collect leaders, and split the instruction stream into basic
blocks.  Gadget extraction uses the recovered blocks as its aligned
probe points (the paper: "decode from the valid starting position of
each basic block"), on top of its unaligned probing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..binfmt.image import BinaryImage
from ..isa.encoding import DecodeError, decode
from ..isa.instructions import Instruction, Op


@dataclass
class BasicBlock:
    start: int
    instructions: List[Instruction] = field(default_factory=list)
    successors: Tuple[int, ...] = ()

    @property
    def end(self) -> int:
        if not self.instructions:
            return self.start
        return self.instructions[-1].end

    @property
    def terminator(self) -> Optional[Instruction]:
        return self.instructions[-1] if self.instructions else None


@dataclass
class CFG:
    blocks: Dict[int, BasicBlock] = field(default_factory=dict)
    entries: Set[int] = field(default_factory=set)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def conditional_edges(self) -> int:
        return sum(
            1
            for b in self.blocks.values()
            if b.terminator is not None and b.terminator.is_cond_jump()
        )


def _successor_addrs(insn: Instruction) -> Tuple[List[int], bool]:
    """(direct successor addresses, falls_through)."""
    op = insn.op
    if op == Op.JMP_REL:
        return [insn.target], False
    if insn.is_cond_jump():
        return [insn.target], True
    if op == Op.CALL_REL:
        # Treat the callee as a separate entry; the call falls through.
        return [insn.target], True
    if op in (Op.RET, Op.HLT, Op.JMP_R, Op.JMP_M):
        return [], False
    if op == Op.CALL_R:
        return [], True
    if op == Op.SYSCALL:
        return [], True
    return [], True  # non-terminator


def recover_cfg(
    image: BinaryImage,
    *,
    decoder: Optional[Callable[[int], Optional[Instruction]]] = None,
) -> CFG:
    """Recover basic blocks over the image's text section.

    ``decoder`` (addr → Instruction|None) lets callers share a decode
    cache — gadget extraction passes its ``DecodeGraph`` so the section
    is not decoded a second time.
    """
    text = image.text
    data = text.data
    base = text.addr

    def in_text(addr: int) -> bool:
        return base <= addr < base + len(data)

    def _decode_fresh(addr: int) -> Optional[Instruction]:
        try:
            return decode(data, addr - base, addr=addr)
        except DecodeError:
            return None

    decode_at = decoder if decoder is not None else _decode_fresh

    entries = {addr for name, addr in image.symbols.items() if in_text(addr)}
    entries.add(image.entry)

    # Pass 1: walk from entries, decode instructions, collect leaders.
    insn_at: Dict[int, Instruction] = {}
    leaders: Set[int] = set(e for e in entries if in_text(e))
    work = list(leaders)
    visited: Set[int] = set()
    while work:
        addr = work.pop()
        while in_text(addr) and addr not in visited:
            insn = decode_at(addr)
            if insn is None:
                break
            visited.add(addr)
            insn_at[addr] = insn
            targets, falls = _successor_addrs(insn)
            for t in targets:
                if in_text(t):
                    leaders.add(t)
                    work.append(t)
            if insn.is_terminator():
                if falls and in_text(insn.end):
                    leaders.add(insn.end)
                    work.append(insn.end)
                break
            addr = insn.end

    # Pass 2: split the decoded stream at leaders.
    cfg = CFG(entries=set(e for e in entries if in_text(e)))
    for leader in sorted(leaders):
        if leader not in insn_at:
            continue
        block = BasicBlock(start=leader)
        addr = leader
        while addr in insn_at:
            insn = insn_at[addr]
            block.instructions.append(insn)
            if insn.is_terminator() or insn.end in leaders:
                break
            addr = insn.end
        term = block.terminator
        successors: List[int] = []
        if term is not None:
            targets, falls = _successor_addrs(term)
            if term.is_terminator():
                successors.extend(t for t in targets if t in leaders)
                if falls and term.end in leaders:
                    successors.append(term.end)
            elif term.end in leaders:
                successors.append(term.end)
        block.successors = tuple(successors)
        cfg.blocks[leader] = block
    return cfg
