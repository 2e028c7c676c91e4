"""ROPGadget-like baseline: syntax-level patterns + a fixed template.

Faithful to the strategy the paper critiques (Sec. III / VI):

* gadget *finding* is a pure syntactic scan (it reports big numbers);
* chain *building* only ever uses the hard-coded shapes
  ``pop <reg>; ret``, ``mov [<r1>], <r2>; ret`` and a bare ``syscall``,
  assembled by a fixed template.  "Once a gadget in the pattern is
  missing, the whole search will fail."
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..binfmt.image import BinaryImage
from ..isa.encoding import BYTE_TABLE
from ..isa.instructions import Instruction, Op
from ..isa.registers import Reg
from ..gadgets.classify import SyntacticGadget, scan_syntactic_gadgets
from ..gadgets.record import GadgetRecord, JmpType
from ..planner.goals import ResolvedGoal
from ..planner.payload import AttackPayload
from ..staticanalysis.decode_graph import shared_decode_graph
from .common import BaselineTool

#: First bytes whose encoding is ``syscall`` (the opcode and its alias).
_SYSCALL_BYTES = frozenset(
    byte for byte, shape in enumerate(BYTE_TABLE) if shape is not None and shape.op is Op.SYSCALL
)


def _match_pop_ret(g: SyntacticGadget) -> Optional[Reg]:
    if len(g.insns) == 2 and g.insns[0].op in (Op.POP_R, Op.POP1) and g.insns[1].op == Op.RET:
        return g.insns[0].dst
    return None


def _match_write_ret(g: SyntacticGadget) -> Optional[Tuple[Reg, Reg]]:
    if (
        len(g.insns) == 2
        and g.insns[0].op == Op.STORE
        and g.insns[0].disp == 0
        and g.insns[1].op == Op.RET
    ):
        return g.insns[0].base, g.insns[0].src
    return None


def _match_syscall(g: SyntacticGadget) -> bool:
    return g.insns[0].op == Op.SYSCALL


class ROPGadgetLike(BaselineTool):
    """Pattern matching with a fixed ropchain template."""

    name = "ropgadget"

    def find_gadgets(self, image: BinaryImage) -> List[SyntacticGadget]:
        # Include a syscall-terminated scan: extend windows ending at
        # syscall (the classifier drops them, so scan separately).  All
        # decoding rides the shared per-process decode graph — the same
        # decode work extraction and the other baselines use — and the
        # sweep reads first bytes, building only the syscalls.
        text = image.text
        graph = shared_decode_graph(text.data, text.addr)
        gadgets = scan_syntactic_gadgets(image, graph=graph)
        for offset, byte in enumerate(text.data):
            if byte in _SYSCALL_BYTES:
                insn = graph.decode_at(offset)
                if insn is not None:
                    gadgets.append(
                        SyntacticGadget(addr=insn.addr, insns=[insn], kind=JmpType.UIJ)
                    )
        return gadgets

    def build_chains(
        self, image: BinaryImage, gadgets: List[SyntacticGadget], resolved: ResolvedGoal
    ) -> List[AttackPayload]:
        pops: Dict[Reg, int] = {}
        writes: Dict[Tuple[Reg, Reg], int] = {}
        syscall_addr: Optional[int] = None
        for g in gadgets:
            reg = _match_pop_ret(g)
            if reg is not None and reg not in pops:
                pops[reg] = g.addr
            wr = _match_write_ret(g)
            if wr is not None and wr not in writes:
                writes[wr] = g.addr
            if _match_syscall(g) and syscall_addr is None:
                syscall_addr = g.addr
        if syscall_addr is None:
            return []

        words: List[int] = []
        chain_addrs: List[int] = []

        def emit(addr: int, *data: int) -> None:
            if not words:
                words.append(addr)
            else:
                words.append(addr)
            chain_addrs.append(addr)
            words.extend(data)

        # Memory goals first (plant "/bin/sh" etc. via the write template).
        for mg in resolved.memory_goals:
            usable = None
            for (addr_reg, val_reg), waddr in writes.items():
                if addr_reg in pops and val_reg in pops and addr_reg != val_reg:
                    usable = (addr_reg, val_reg, waddr)
                    break
            if usable is None:
                return []  # template incomplete → total failure
            addr_reg, val_reg, waddr = usable
            for target_addr, word in mg.words():
                emit(pops[addr_reg], target_addr)
                emit(pops[val_reg], word)
                emit(waddr)

        # Register goals via pop templates only.
        for reg, value in resolved.reg_values.items():
            pop_addr = pops.get(reg)
            if pop_addr is None:
                return []
            emit(pop_addr, value)
        emit(syscall_addr)

        payload = AttackPayload(
            goal_name=resolved.goal.name,
            words=words,
            chain=[_fake_record(a, image) for a in chain_addrs],
            entry_address=words[0],
        )
        # The template writes gadget addresses in-line; `words[0]` is the
        # first gadget and the rest already interleave addresses/data.
        return [payload]


def _fake_record(addr: int, image: BinaryImage) -> GadgetRecord:
    """A minimal record for reporting (ROPGadget has no semantics)."""
    from ..symex.executor import EndKind
    from ..symex.expr import bv_const

    insns: List[Instruction] = []
    text = image.text
    graph = shared_decode_graph(text.data, text.addr)
    offset = addr - text.addr
    for _ in range(4):
        insn = graph.decode_at(offset)
        if insn is None:
            break
        insns.append(insn)
        offset = insn.end - text.addr
        if insn.is_terminator():
            break
    return GadgetRecord(
        gadget_id=-1,
        location=addr,
        length=sum(i.size for i in insns),
        insns=insns,
        jmp_type=JmpType.RET,
        end=EndKind.RET,
        pre_cond=[],
        post_regs={},
        jump_target=bv_const(0),
        clob_regs=frozenset(),
        ctrl_regs=frozenset(),
        stack_delta=None,
        stack_smashed=False,
        mem_reads=[],
        mem_writes=[],
        max_stack_offset=0,
        conditional_jumps=0,
        merged_direct_jumps=0,
    )
