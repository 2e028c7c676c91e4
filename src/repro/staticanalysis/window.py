"""Per-window summaries read off the symbolic executor's paths.

:func:`summarize_window` runs one candidate window through a
:class:`~repro.symex.executor.SymbolicExecutor` and folds its usable
paths into a :class:`WindowSummary`: the transfer kinds the window can
end with, the registers some path clobbers, each path's stack-pointer
delta, its memory-write footprint, and whether some path went through
a conditional jump.  These are the Table II facts of the window's
records, with the expressions dropped, so the solver-free metrics of
:mod:`.metrics` describe exactly the paths extraction would turn into
records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Set

from ..isa.registers import ALL_REGS, Reg
from ..symex.executor import EndKind, SymbolicExecutor
from ..symex.state import reg_sym


@dataclass(frozen=True)
class WindowSummary:
    """What the usable symbolic paths of one window do, merged."""

    start_addr: int
    #: Transfer kinds the usable paths end with (empty: none is usable).
    ends: FrozenSet[EndKind]
    #: Registers some usable path leaves different from its entry value.
    clobbered: FrozenSet[Reg]
    #: Each usable path's rsp delta; None for an rsp that is not rsp0 + c.
    stack_deltas: FrozenSet[Optional[int]]
    #: rsp0-relative byte offsets some usable path writes.
    stack_write_offsets: FrozenSet[int]
    #: Whether some usable path writes through a non-rsp0-relative pointer.
    has_wild_writes: bool
    #: Whether some usable path went through a conditional jump.
    conditional: bool

    @property
    def usable(self) -> bool:
        """Would extraction emit any record for this window?"""
        return bool(self.ends)

    @property
    def known_stack_delta(self) -> Optional[int]:
        """The constant rsp delta all usable paths agree on, if any."""
        if len(self.stack_deltas) == 1:
            (delta,) = self.stack_deltas
            return delta
        return None


def summarize_window(executor: SymbolicExecutor, addr: int) -> WindowSummary:
    """Summarise the window at ``addr`` from its symbolic paths."""
    ends: Set[EndKind] = set()
    clobbered: Set[Reg] = set()
    deltas: Set[Optional[int]] = set()
    stack_writes: Set[int] = set()
    wild = conditional = False
    for path in executor.execute_paths(addr):
        if not path.is_usable:
            continue
        state = path.state
        ends.add(path.end)
        clobbered.update(r for r in ALL_REGS if state.get(r) != reg_sym(r))
        deltas.add(state.rsp_offset())
        for write in state.mem_writes:
            if write.stack_offset is None:
                wild = True
            else:
                stack_writes.add(write.stack_offset)
        conditional = conditional or path.conditional_jumps > 0
    return WindowSummary(
        start_addr=addr,
        ends=frozenset(ends),
        clobbered=frozenset(clobbered),
        stack_deltas=frozenset(deltas),
        stack_write_offsets=frozenset(stack_writes),
        has_wild_writes=wild,
        conditional=conditional,
    )
