"""Symbolic execution of gadget candidates.

:func:`execute_paths` runs a short code window symbolically from a
given address, forking at conditional direct jumps and *following*
direct jumps/calls (the paper's gadget-merging rule), until the path
ends at an indirect control transfer (``ret`` / ``jmp reg`` /
``jmp [mem]`` / ``call reg``), a ``syscall``, or a dead end.

Each completed path yields a :class:`PathSummary` carrying the final
symbolic state and the symbolic jump target — everything gadget-record
construction (Table II) needs.

A data instruction runs as a generated handler: each op's semantics
row is compiled once into a factory over the :mod:`~repro.symex.expr`
builders (:func:`factory_source`), and the handler it makes for an
instruction calls the builders the row names on the same operands in
the same order.  Constants (``bv_const``) are built on every run, so no
expression object is shared between runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..isa.instructions import COND_JUMPS, Instruction, Op
from ..isa.registers import Reg
from ..isa.semantics import (
    CONSTANTS,
    SEMANTICS,
    WIDTHS,
    Loc,
    Place,
    RowSource,
    Step,
    compile_factory,
    factory_text,
)
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

    Gadget windows overlap heavily (every suffix is probed too), so each
    instruction runs many times.  The executor keeps one
    :data:`Entry` per address it has run in the graph's
    ``symex_entries``: the graph's one instruction there, with its
    handler bound, so a later window runs it with one lookup and one
    call.  The entries live on the graph, and
    :func:`~repro.gadgets.extract.extract_gadgets` drops them when it
    returns.
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
            summaries.append(self._run_path(work.pop(), work))
            self.paths_completed += 1
        return summaries

    def _run_path(self, pending: _Pending, work: List[_Pending]) -> PathSummary:
        """Run one path to its end; a fork pushes its taken side on
        ``work``.  ``pending.insns`` is this path's own list."""
        state = pending.state
        addr = pending.addr
        insns = pending.insns
        merged = pending.merged
        conds = pending.conds
        entries = self.graph.symex_entries
        while len(insns) < self.max_insns:
            entry = entries.get(addr)
            if entry is None:
                insn = self.graph.decode_addr(addr)
                if insn is None:
                    start = insns[0].addr if insns else pending.addr
                    return _dead(start, insns, state, merged, conds)
                entry = entries[addr] = _make_entry(insn)
            insn, kind, run, addr = entry
            insns.append(insn)
            self.insns_executed += 1
            if kind is _STEP:
                run(state)
            elif kind is _FOLLOW:
                run(state)
                merged += 1
            elif kind is _BRANCH:
                condition = state.flags.condition(insn.op)
                if isinstance(condition, BoolConst):
                    # Statically resolved (e.g. after xor reg, reg).
                    if condition.value:
                        addr = insn.target
                    continue
                # Fork: taken branch goes onto the work list, fall
                # through continues here (arbitrary but deterministic).
                taken = state.clone()
                taken.add_constraint(condition)
                work.append(_Pending(insn.target, taken, list(insns), merged, conds + 1))
                state.add_constraint(bool_not(condition))
                conds += 1
            elif kind is EndKind.DEAD:
                return _dead(insns[0].addr, insns, state, merged, conds)
            else:
                return _done(insns, state, kind, run(state), merged, conds)
        return _dead(insns[0].addr if insns else pending.addr, insns, state, merged, conds)


def _done(
    insns: List[Instruction], state: SymState, end: EndKind, target: BV, merged: int, conds: int
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


def _dead(
    start: int, insns: List[Instruction], state: SymState, merged: int, conds: int
) -> PathSummary:
    return PathSummary(
        start_addr=start,
        insns=insns,
        state=state,
        end=EndKind.DEAD,
        jump_target=None,
        merged_direct_jumps=merged,
        conditional_jumps=conds,
    )


# -- entries: an instruction with its handler bound ---------------------------

#: How a path goes on after an entry's instruction, where it does not
#: end there with an :class:`EndKind`: run the handler and go on at the
#: entry's next address; follow a direct jump or call (the handler
#: pushes a call's return address); or resolve a Jcc, or fork on it.
_STEP, _FOLLOW, _BRANCH = "step", "follow", "branch"

#: ``(insn, kind, handler, next)``: ``kind`` is one of the three above
#: or the :class:`EndKind` the instruction ends a path with, in which
#: case ``handler(state)`` returns the jump target (None for ``hlt``);
#: ``next`` is where a path goes on.
Entry = Tuple[Instruction, object, Optional[Callable[[SymState], Optional[BV]]], Optional[int]]


def _push(state: SymState, value: BV) -> None:
    new_rsp = bv_sub(state.regs[Reg.RSP], bv_const(8))
    state.regs[Reg.RSP] = new_rsp
    state.store(new_rsp, value, 8)


def _pop(state: SymState) -> BV:
    rsp = state.regs[Reg.RSP]
    value = state.load(rsp, 8)
    state.regs[Reg.RSP] = bv_add(rsp, bv_const(8))
    return value


def _make_entry(insn: Instruction) -> Entry:
    """``insn``'s entry: a data op runs its generated handler, and a
    control op is dispatched by kind."""
    op, end = insn.op, insn.end
    if op in SEMANTICS:
        factory = _FACTORIES.get(op) or _compile_factory(op)
        return insn, _STEP, factory(insn), end
    if op in COND_JUMPS:
        return insn, _BRANCH, None, end
    if op is Op.JMP_REL:
        return insn, _FOLLOW, _stay, insn.target
    if op is Op.CALL_REL:
        return insn, _FOLLOW, lambda state: _push(state, bv_const(end)), insn.target
    if op is Op.RET:
        return insn, EndKind.RET, _pop, None
    if op is Op.JMP_R:
        dst = insn.dst
        return insn, EndKind.JMP_REG, lambda state: state.regs[dst], None
    if op is Op.JMP_M:
        base, disp = insn.base, insn.disp
        return (
            insn,
            EndKind.JMP_MEM,
            lambda state: state.load(bv_add(state.regs[base], bv_const(disp)), 8),
            None,
        )
    if op is Op.CALL_R:
        dst = insn.dst

        def call(state: SymState) -> BV:
            _push(state, bv_const(end))
            return state.regs[dst]

        return insn, EndKind.CALL_REG, call, None
    if op is Op.SYSCALL:
        return insn, EndKind.SYSCALL, lambda state: bv_const(end), None
    return insn, EndKind.DEAD, None, None  # hlt


def _stay(state: SymState) -> None:
    """A direct jump's handler: the state does not change."""


# -- handlers generated from the semantics table --------------------------------

#: Per op, the compiled factory ``make(insn) -> handler(state)``.
_FACTORIES: Dict[Op, Callable[[Instruction], Callable[[SymState], None]]] = {}

#: What generated source may name besides its operands: the builders,
#: the registers, and ``COUNT(insn)``, a shift count as :data:`CONSTANTS`
#: states it (a plain int, so it is bound once).
_NAMESPACE: Dict[str, object] = {
    **{name: getattr(expr, name) for name in dir(expr) if name.startswith("bv_")},
    **{reg.name: reg for reg in Reg},
    "COUNT": partial(CONSTANTS[Loc.COUNT], expr),
}


def _compile_factory(op: Op) -> Callable[[Instruction], Callable[[SymState], None]]:
    namespace = {**_NAMESPACE, "STEPS": SEMANTICS[op]}
    factory = compile_factory(factory_source(op), f"<symbolic {op.name}>", namespace)
    _FACTORIES[op] = factory
    return factory


def factory_source(op: Op) -> str:
    """The Python source of ``make(insn)``, which returns ``op``'s
    symbolic handler with ``insn``'s operands bound: its semantics row
    over the expression builders, run on a :class:`SymState`.

    A stack read or write is the pop or push sequence; a memory access
    computes its address after every read of its step; constants are
    built on each run.
    """
    gen = _RowSource().row(op)
    return factory_text("insn", "state", gen.fields, ["regs = state.regs"] + gen.lines)


class _RowSource(RowSource):
    """The symbolic executor's emitters: a row over the builders."""

    def register(self, place: Place) -> Optional[str]:
        """The expression of the register ``place`` names, or None."""
        if place is Loc.DST or place is Loc.SRC:
            self.fields.setdefault(place.value, f"insn.{place.value}")
            return f"regs[{place.value}]"
        if isinstance(place, Reg):
            return f"regs[{place.name}]"
        return None

    def address(self) -> str:
        self.fields.setdefault("base", "insn.base")
        self.fields.setdefault("disp", "insn.disp")
        return "bv_add(regs[base], bv_const(disp))"

    def read(self, place: Place) -> str:
        if place is Loc.COUNT:
            self.fields.setdefault("count", "COUNT(insn)")
            return "count"
        var = self.temp()
        reg = self.register(place)
        if reg is not None:
            self.lines.append(f"{var} = {reg}")
        elif place is Loc.IMM:
            self.fields.setdefault("imm", "insn.imm")
            self.lines.append(f"{var} = bv_const(imm)")
        elif place is Loc.ONE:
            self.lines.append(f"{var} = bv_const(1)")
        elif place is Loc.STACK:
            self.lines += [
                "rsp = regs[RSP]",
                f"{var} = state.load(rsp, 8)",
                "regs[RSP] = bv_add(rsp, bv_const(8))",
            ]
        elif place is Loc.EA:
            self.lines.append(f"{var} = {self.address()}")
        else:
            self.lines.append(f"{var} = state.load({self.address()}, {WIDTHS[place]})")
        return var

    def write(self, place: Place, value: str) -> None:
        reg = self.register(place)
        if reg is not None:
            self.lines.append(f"{reg} = {value}")
        elif place is Loc.STACK:
            self.lines += [
                "rsp = bv_sub(regs[RSP], bv_const(8))",
                "regs[RSP] = rsp",
                f"state.store(rsp, {value}, 8)",
            ]
        else:
            self.lines.append(f"state.store({self.address()}, {value}, {WIDTHS[place]})")

    def trap(self, divisor: str) -> None:
        """Nothing traps: ``bv_udiv``/``bv_umod`` fold a zero divisor."""

    def apply(self, fn: str, values: List[str]) -> str:
        return f"{fn}({', '.join(values)})"

    def set_flags(self, step: Step, index: int, result: str, values: List[str]) -> None:
        self.fields.setdefault(f"step{index}", f"STEPS[{index}]")
        self.lines.append(
            f"state.flags = state.flags.after(step{index}, {result}, {', '.join(values)})"
        )


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
