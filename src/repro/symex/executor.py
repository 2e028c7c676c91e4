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

from ..isa.instructions import Instruction, Op, OP_TABLE
from ..isa.registers import Reg
from .expr import (
    BV,
    BoolConst,
    bv_add,
    bv_and,
    bv_const,
    bv_mul,
    bv_neg,
    bv_not,
    bv_or,
    bv_sar,
    bv_shl,
    bv_shr,
    bv_sub,
    bv_udiv,
    bv_umod,
    bv_xor,
    bool_not,
)
from .state import FlagsState, SymState

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
                target = state.load(state.get(Reg.RSP), 8)
                state.set(Reg.RSP, bv_add(state.get(Reg.RSP), bv_const(8)))
                return [self._done(insns, state, EndKind.RET, target, merged, conds)]
            if op == Op.JMP_R:
                return [self._done(insns, state, EndKind.JMP_REG, state.get(insn.dst), merged, conds)]
            if op == Op.JMP_M:
                addr_expr = bv_add(state.get(insn.base), bv_const(insn.disp))
                target = state.load(addr_expr, 8)
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
                mnemonic = OP_TABLE[op].mnemonic
                condition = state.flags.condition(mnemonic)
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
        op = insn.op
        if op == Op.NOP:
            return
        if op in (Op.MOV_RI, Op.MOV_RI32):
            state.set(insn.dst, bv_const(insn.imm))
            return
        if op == Op.MOV_RR:
            state.set(insn.dst, state.get(insn.src))
            return
        if op == Op.LOAD:
            addr = bv_add(state.get(insn.base), bv_const(insn.disp))
            state.set(insn.dst, state.load(addr, 8))
            return
        if op == Op.STORE:
            addr = bv_add(state.get(insn.base), bv_const(insn.disp))
            state.store(addr, state.get(insn.src), 8)
            return
        if op == Op.LOADB:
            addr = bv_add(state.get(insn.base), bv_const(insn.disp))
            state.set(insn.dst, state.load(addr, 1))
            return
        if op == Op.STOREB:
            addr = bv_add(state.get(insn.base), bv_const(insn.disp))
            state.store(addr, state.get(insn.src), 1)
            return
        if op == Op.LEA:
            state.set(insn.dst, bv_add(state.get(insn.base), bv_const(insn.disp)))
            return
        if op == Op.XCHG:
            a, b = state.get(insn.dst), state.get(insn.src)
            state.set(insn.dst, b)
            state.set(insn.src, a)
            return
        if op == Op.PUSH_R:
            self._push(state, state.get(insn.dst))
            return
        if op == Op.PUSH_I:
            self._push(state, bv_const(insn.imm))
            return
        if op in (Op.POP_R, Op.POP1):
            state.set(insn.dst, self._pop(state))
            return
        if op == Op.LEAVE:
            state.set(Reg.RSP, state.get(Reg.RBP))
            state.set(Reg.RBP, self._pop(state))
            return
        if op in (Op.ADD_RR, Op.ADD_RI):
            a = state.get(insn.dst)
            b = state.get(insn.src) if op == Op.ADD_RR else bv_const(insn.imm)
            result = bv_add(a, b)
            state.flags = FlagsState.from_add(a, b, result)
            state.set(insn.dst, result)
            return
        if op in (Op.SUB_RR, Op.SUB_RI):
            a = state.get(insn.dst)
            b = state.get(insn.src) if op == Op.SUB_RR else bv_const(insn.imm)
            result = bv_sub(a, b)
            state.flags = FlagsState.from_sub(a, b, result)
            state.set(insn.dst, result)
            return
        if op in (Op.AND_RR, Op.AND_RI, Op.OR_RR, Op.OR_RI, Op.XOR_RR, Op.XOR_RI):
            a = state.get(insn.dst)
            b = state.get(insn.src) if insn.src is not None else bv_const(insn.imm)
            if op in (Op.AND_RR, Op.AND_RI):
                result = bv_and(a, b)
            elif op in (Op.OR_RR, Op.OR_RI):
                result = bv_or(a, b)
            else:
                result = bv_xor(a, b)
            state.flags = FlagsState.from_logic(result)
            state.set(insn.dst, result)
            return
        if op in (Op.SHL_RI, Op.SHR_RI, Op.SAR_RI):
            a = state.get(insn.dst)
            count = insn.imm & 0x3F
            if op == Op.SHL_RI:
                result = bv_shl(a, count)
            elif op == Op.SHR_RI:
                result = bv_shr(a, count)
            else:
                result = bv_sar(a, count)
            state.flags = FlagsState.from_logic(result)
            state.set(insn.dst, result)
            return
        if op == Op.MUL_RR:
            result = bv_mul(state.get(insn.dst), state.get(insn.src))
            state.flags = FlagsState.from_logic(result)
            state.set(insn.dst, result)
            return
        if op == Op.NOT_R:
            state.set(insn.dst, bv_not(state.get(insn.dst)))
            return
        if op == Op.NEG_R:
            result = bv_neg(state.get(insn.dst))
            state.flags = FlagsState.from_logic(result)
            state.set(insn.dst, result)
            return
        if op == Op.INC_R:
            a = state.get(insn.dst)
            result = bv_add(a, bv_const(1))
            old_cf = state.flags.cf
            state.flags = FlagsState.from_add(a, bv_const(1), result)
            state.flags.cf = old_cf  # INC preserves CF, as on x86
            state.flags.cf_patched = True
            state.set(insn.dst, result)
            return
        if op == Op.DEC_R:
            a = state.get(insn.dst)
            result = bv_sub(a, bv_const(1))
            old_cf = state.flags.cf
            state.flags = FlagsState.from_sub(a, bv_const(1), result)
            state.flags.cf = old_cf
            state.flags.cf_patched = True
            state.set(insn.dst, result)
            return
        if op in (Op.UDIV_RR, Op.UMOD_RR):
            a, b = state.get(insn.dst), state.get(insn.src)
            state.set(insn.dst, bv_udiv(a, b) if op == Op.UDIV_RR else bv_umod(a, b))
            return
        if op in (Op.CMP_RR, Op.CMP_RI):
            a = state.get(insn.dst)
            b = state.get(insn.src) if op == Op.CMP_RR else bv_const(insn.imm)
            state.flags = FlagsState.from_sub(a, b, bv_sub(a, b))
            return
        if op in (Op.TEST_RR, Op.TEST_RI):
            a = state.get(insn.dst)
            b = state.get(insn.src) if op == Op.TEST_RR else bv_const(insn.imm)
            state.flags = FlagsState.from_logic(bv_and(a, b))
            return
        raise AssertionError(f"unhandled straightline op {op}")  # pragma: no cover


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
