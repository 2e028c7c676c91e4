"""The gadget library — Sec. V: "Gadget-Planner represents the gadget
library as a dictionary keyed on the register name, i.e., indexing the
available gadgets by the registers they affect.  Selecting gadgets in
this way, instead of considering all gadgets in all states,
substantially reduces the branching factor of the search."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..isa.registers import Reg
from ..symex.executor import EndKind
from ..symex.expr import BVConst, BVSym, free_symbols
from ..symex.state import is_controlled_symbol, reg_of_symbol
from ..gadgets.record import GadgetRecord
from .conditions import MemCondition


class ChainKind(enum.Enum):
    """How a gadget can be wired into a chain."""

    RET = "ret"  # ret-terminated: successor address goes on the stack
    CONTROLLED_TARGET = "controlled"  # indirect, target solvable from payload
    CONNECTOR = "connector"  # indirect, target = one initial register
    GOAL = "goal"  # syscall-terminated: usable as the final step only
    UNUSABLE = "unusable"


def _target_symbols(gadget: GadgetRecord):
    return free_symbols(gadget.jump_target)


def chain_kind(gadget: GadgetRecord) -> ChainKind:
    """Classify how (whether) the gadget can participate in chains."""
    if gadget.stack_smashed:
        return ChainKind.UNUSABLE
    if gadget.end is EndKind.SYSCALL:
        return ChainKind.GOAL
    if gadget.end is EndKind.DEAD:
        return ChainKind.UNUSABLE
    syms = _target_symbols(gadget)
    if gadget.end is EndKind.RET:
        if all(is_controlled_symbol(s) for s in syms) and syms:
            return ChainKind.RET
        return ChainKind.UNUSABLE
    # Indirect endings.
    if syms and all(is_controlled_symbol(s) for s in syms):
        return ChainKind.CONTROLLED_TARGET
    if len(syms) == 1 and reg_of_symbol(next(iter(syms))) is not None:
        return ChainKind.CONNECTOR
    return ChainKind.UNUSABLE


def _provider_quality(gadget: GadgetRecord, reg: Reg) -> tuple:
    """Sort key: cheaper/cleaner providers first."""
    post = gadget.post_regs[reg]
    if isinstance(post, BVConst):
        shape = 0
    elif isinstance(post, BVSym) and is_controlled_symbol(post.name):
        shape = 0  # direct pop-style control: as good as a constant
    else:
        syms = free_symbols(post)
        shape = 1 if all(is_controlled_symbol(s) for s in syms) else 2
    return (
        shape,
        len(gadget.pre_cond),
        len(gadget.clob_regs),
        gadget.stack_delta if gadget.stack_delta is not None else 1 << 20,
        gadget.num_insns,
        gadget.location,
    )


@dataclass
class GadgetLibrary:
    """Indexed views over the deduplicated gadget pool."""

    by_reg: Dict[Reg, List[GadgetRecord]] = field(default_factory=dict)
    goal_gadgets: List[GadgetRecord] = field(default_factory=list)
    writers: List[GadgetRecord] = field(default_factory=list)
    kinds: Dict[int, ChainKind] = field(default_factory=dict)
    #: Registers some non-goal gadget overwrites: ``by_reg``'s keys, and
    #: ``rsp``, which a reused step may still provide.
    clobbered: Set[Reg] = field(default_factory=set)
    #: Gadgets usable in some chain position (goal gadgets included).
    size: int = 0

    @classmethod
    def build(cls, records: List[GadgetRecord]) -> "GadgetLibrary":
        lib = cls()
        for gadget in records:
            kind = chain_kind(gadget)
            lib.kinds[gadget.gadget_id] = kind
            if kind is ChainKind.UNUSABLE:
                continue
            lib.size += 1
            if kind is ChainKind.GOAL:
                lib.goal_gadgets.append(gadget)
                continue
            if gadget.has_side_memory_writes:
                lib.writers.append(gadget)
            lib.clobbered |= gadget.clob_regs
            for reg in gadget.clob_regs:
                if reg is Reg.RSP:
                    continue
                lib.by_reg.setdefault(reg, []).append(gadget)
        for reg, gadgets in lib.by_reg.items():
            gadgets.sort(key=lambda g: _provider_quality(g, reg))
        lib.goal_gadgets.sort(key=lambda g: (len(g.pre_cond), g.num_insns, g.location))
        lib.writers.sort(key=lambda g: (len(g.pre_cond), g.num_insns, g.location))
        return lib

    def kind_of(self, gadget: GadgetRecord) -> ChainKind:
        return self.kinds[gadget.gadget_id]

    def providers_for(self, reg: Reg) -> List[GadgetRecord]:
        return self.by_reg.get(reg, [])

    def can_provide(self, condition) -> bool:
        """Could some step ever provide ``condition``?

        A register condition needs a step that overwrites the register,
        fresh or reused, and every step but the goal comes from this
        library; a memory condition needs a fresh writer.
        """
        if isinstance(condition, MemCondition):
            return bool(self.writers)
        return condition.reg in self.clobbered
