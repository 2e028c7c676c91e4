"""Symbolic execution of gadget candidates.

:func:`execute_paths` runs a short code window symbolically from a
given address, forking at conditional direct jumps and *following*
direct jumps/calls (the paper's gadget-merging rule), until the path
ends at an indirect control transfer (``ret`` / ``jmp reg`` /
``jmp [mem]`` / ``call reg``), a ``syscall``, or a dead end.

Each completed path yields a :class:`PathSummary` carrying the final
symbolic state and the symbolic jump target — everything gadget-record
construction (Table II) needs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from ..isa.instructions import Instruction, Op
from ..isa.registers import Reg
from ..isa.semantics import CONSTANTS, SEMANTICS, WIDTHS, Loc, register
from . import expr
from .expr import BV, BoolConst, bool_not, bv_add, bv_const, bv_sub
from .state import SymState

if TYPE_CHECKING:
    from ..staticanalysis.decode_graph import DecodeGraph


class EndKind(enum.Enum):
    """How a symbolic path terminated."""

    RET = "ret"
    JMP_REG = "jmp_reg"
    JMP_MEM = "jmp_mem"
    CALL_REG = "call_reg"
    SYSCALL = "syscall"
    DEAD = "dead"  # decode failure, hlt, fork budget, length budget


@dataclass
class PathSummary:
    """One completed symbolic path through a gadget candidate."""

    start_addr: int
    insns: List[Instruction]
    state: SymState
    end: EndKind
    jump_target: Optional[BV] = None  # symbolic next rip (None for DEAD)
    merged_direct_jumps: int = 0  # how many direct jmp/call were followed
    conditional_jumps: int = 0  # how many Jcc were resolved on this path

    @property
    def length(self) -> int:
        return len(self.insns)

    @property
    def is_usable(self) -> bool:
        return self.end is not EndKind.DEAD


@dataclass
class _Pending:
    addr: int
    state: SymState
    insns: List[Instruction]
    merged: int
    conds: int


class SymbolicExecutor:
    """Executes code windows symbolically over a section's decode graph.

    Gadget windows overlap heavily (every suffix is probed too), so the
    executor reads each instruction from the graph, which decodes every
    offset of the section once.
    """

    def __init__(self, graph: "DecodeGraph", *, max_insns: int = 24, max_paths: int = 8) -> None:
        self.graph = graph
        self.max_insns = max_insns
        self.max_paths = max_paths
        #: Lifetime observability counters (read by extraction spans):
        #: symbolic instructions stepped and paths completed (any end).
        self.insns_executed = 0
        self.paths_completed = 0

    def execute_paths(self, start_addr: int) -> List[PathSummary]:
        """All completed paths starting at ``start_addr``."""
        summaries: List[PathSummary] = []
        work: List[_Pending] = [
            _Pending(addr=start_addr, state=SymState(), insns=[], merged=0, conds=0)
        ]
        while work and len(summaries) < self.max_paths:
            pending = work.pop()
            completed = self._run_path(pending, work)
            self.paths_completed += len(completed)
            summaries.extend(completed)
        return summaries

    def _run_path(self, pending: _Pending, work: List[_Pending]) -> List[PathSummary]:
        state = pending.state
        addr = pending.addr
        insns = pending.insns
        merged = pending.merged
        conds = pending.conds
        decode_addr = self.graph.decode_addr
        while len(insns) < self.max_insns:
            insn = decode_addr(addr)
            if insn is None:
                return [self._dead(pending.addr if not insns else insns[0].addr, insns, state, merged, conds)]
            insns = insns + [insn]
            self.insns_executed += 1
            op = insn.op

            if op == Op.RET:
                return [self._done(insns, state, EndKind.RET, self._pop(state), merged, conds)]
            if op == Op.JMP_R:
                return [self._done(insns, state, EndKind.JMP_REG, state.get(insn.dst), merged, conds)]
            if op == Op.JMP_M:
                target = self._read(state, insn, Loc.MEM)
                return [self._done(insns, state, EndKind.JMP_MEM, target, merged, conds)]
            if op == Op.CALL_R:
                self._push(state, bv_const(insn.end))
                return [self._done(insns, state, EndKind.CALL_REG, state.get(insn.dst), merged, conds)]
            if op == Op.SYSCALL:
                return [self._done(insns, state, EndKind.SYSCALL, bv_const(insn.end), merged, conds)]
            if op == Op.HLT:
                return [self._dead(insns[0].addr, insns, state, merged, conds)]
            if op == Op.JMP_REL:
                merged += 1
                addr = insn.target
                continue
            if op == Op.CALL_REL:
                self._push(state, bv_const(insn.end))
                merged += 1
                addr = insn.target
                continue
            if insn.is_cond_jump():
                condition = state.flags.condition(op)
                if isinstance(condition, BoolConst):
                    # Statically resolved (e.g. after xor reg, reg).
                    addr = insn.target if condition.value else insn.end
                    continue
                # Fork: taken branch goes onto the work list, fall
                # through continues here (arbitrary but deterministic).
                taken = state.clone()
                taken.add_constraint(condition)
                work.append(
                    _Pending(addr=insn.target, state=taken, insns=list(insns), merged=merged, conds=conds + 1)
                )
                state.add_constraint(bool_not(condition))
                conds += 1
                addr = insn.end
                continue

            self._execute_straightline(state, insn)
            addr = insn.end
        return [self._dead(insns[0].addr if insns else pending.addr, insns, state, merged, conds)]

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _push(state: SymState, value: BV) -> None:
        new_rsp = bv_sub(state.get(Reg.RSP), bv_const(8))
        state.set(Reg.RSP, new_rsp)
        state.store(new_rsp, value, 8)

    @staticmethod
    def _pop(state: SymState) -> BV:
        rsp = state.get(Reg.RSP)
        value = state.load(rsp, 8)
        state.set(Reg.RSP, bv_add(rsp, bv_const(8)))
        return value

    def _done(
        self,
        insns: List[Instruction],
        state: SymState,
        end: EndKind,
        target: BV,
        merged: int,
        conds: int,
    ) -> PathSummary:
        if state.rsp_offset() is None:
            state.stack_smashed = True
        return PathSummary(
            start_addr=insns[0].addr,
            insns=insns,
            state=state,
            end=end,
            jump_target=target,
            merged_direct_jumps=merged,
            conditional_jumps=conds,
        )

    @staticmethod
    def _dead(start: int, insns: List[Instruction], state: SymState, merged: int, conds: int) -> PathSummary:
        return PathSummary(
            start_addr=start,
            insns=insns,
            state=state,
            end=EndKind.DEAD,
            jump_target=None,
            merged_direct_jumps=merged,
            conditional_jumps=conds,
        )

    def _execute_straightline(self, state: SymState, insn: Instruction) -> None:
        """Run ``insn``'s semantics row with the expression builders."""
        for step in SEMANTICS[insn.op]:
            values = [self._read(state, insn, loc) for loc in step.reads]
            results = values if step.fn is None else [getattr(expr, step.fn)(*values)]
            if step.flags is not None:
                state.flags = state.flags.after(step, results[0], *values)
            for loc, value in zip(step.writes, results):
                self._write(state, insn, loc, value)

    def _read(self, state: SymState, insn: Instruction, loc: Loc) -> BV:
        reg = register(loc, insn)
        if reg is not None:
            return state.get(reg)
        if loc in CONSTANTS:
            return CONSTANTS[loc](expr, insn)
        if loc is Loc.STACK:
            return self._pop(state)
        addr = bv_add(state.get(insn.base), bv_const(insn.disp))
        if loc is Loc.EA:
            return addr
        return state.load(addr, WIDTHS[loc])

    def _write(self, state: SymState, insn: Instruction, loc: Loc, value: BV) -> None:
        reg = register(loc, insn)
        if reg is not None:
            state.set(reg, value)
        elif loc is Loc.STACK:
            self._push(state, value)
        else:
            state.store(self._read(state, insn, Loc.EA), value, WIDTHS[loc])


def execute_paths(
    code: bytes,
    base_addr: int,
    start_addr: int,
    *,
    max_insns: int = 24,
    max_paths: int = 8,
) -> List[PathSummary]:
    """Convenience wrapper over :class:`SymbolicExecutor` on a fresh
    decode graph of ``code``."""
    from ..staticanalysis.decode_graph import DecodeGraph

    graph = DecodeGraph(code, base_addr)
    executor = SymbolicExecutor(graph, max_insns=max_insns, max_paths=max_paths)
    return executor.execute_paths(start_addr)
