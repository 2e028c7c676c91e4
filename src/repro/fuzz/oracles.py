"""The cross-layer oracle bank.

Every oracle is a pure function from a replayable :class:`Case` (or
its raw ingredients) to a list of failure messages — empty means
"agreed or inconclusive".  Inconclusive situations (wild writes the
symbolic side cannot bind, division traps, path-budget truncation,
unmapped wild reads) are deliberately *skipped*, never reported: a
differential oracle must only fire when both sides made a checkable
claim about the same execution.

The oracles:

``roundtrip``
    ``encode(decode(data, off))`` reproduces the canonical bytes at
    every offset of an image, and ``decode_window`` chains are
    self-consistent at unaligned offsets.
``emu_symex``
    For a window's feasible symbolic path (constraints evaluated under
    a concrete seeded machine), the concrete emulator follows the same
    instruction trace and lands on the same post-registers and jump
    target.
``prefilter``
    Static-analysis soundness: any window that
    :meth:`~repro.staticanalysis.DecodeGraph.reaches_transfer_within`
    culls yields zero usable symbolic paths.
``winnow``
    Subsumption only drops records with a same-fingerprint survivor
    that agrees under fresh concrete probes (trial keys disjoint from
    the ones the winnower itself used).  The fingerprint, read from the
    winnower's shared probe tables, equals :func:`reference_fingerprint`
    (a fresh probe env per trial, every register evaluated) for every
    record, as do its jump target's refutation probes, and the sampled
    equality agrees with :func:`reference_sampled_equal` for every
    same-bucket pair.
``serialize``
    ``pool_from_bytes(pool_to_bytes(pool))`` is byte-stable.
``planner``
    Every assembled payload gets the same verdict and syscall event
    from the unprotected validator and from enforced validation under
    the ``none`` policy.
``plan_search``
    The planner's search (provision memo, offer lists, bitmask ordering
    closure, threat checks of new pairs only, carried constraint load,
    the connector and provider drop rules) returns the same plans in the
    same order, after the same number of nodes, as
    :func:`reference_search`, which recomputes all of them; every plan
    it returns linearizes, and those of a reference that drops nothing
    which linearize are an in-order prefix of its plans.
``warm_cache``
    A planner run through one :class:`~repro.pipeline.ResultCache` —
    cold, warm, warm again and from the cache's in-process memo —
    reports what a run with no cache does, under a drawn defense
    policy; afterwards the memoised winnow pool still equals a fresh
    decode of its entry (no caller changed a shared record).
``obfuscation``
    Every obfuscation config preserves a program's concrete output.
``scan``
    The decode graph, which reads shapes from the byte table and builds
    instructions lazily, returns :func:`decode`'s instruction at every
    offset, and its successor tables and transfer distances equal those
    built over an instruction decoded at every offset; the syntactic
    scan's bounded DFS over those tables accepts exactly the offsets
    that the same DFS decoding at every step accepts, under every pair
    of walk rules.  CFG recovery over the graph's shapes, from an entry
    at the section's start, recovers :func:`reference_cfg`'s blocks:
    the same starts, instruction addresses and successors.
``solver_preprocess``
    The solver's word-level pass never refutes a conjunction that a
    plain :class:`~repro.solver.bitblast.BitBlaster` + CDCL search
    satisfies, the solver as a whole never answers UNSAT there either,
    and every SAT model it returns satisfies the conjunction.
``memory``
    :class:`~repro.emulator.memory.Memory`, whose reads and writes
    skip the page loop within the last page they checked, returns the
    same bytes, raises the same faults and bumps ``exec_write_gen``
    alike as :class:`ReferenceMemory`, which takes the loop every time.
``blocks``
    :meth:`Emulator.run <repro.emulator.cpu.Emulator.run>`, which runs
    straight-line blocks of generated handlers, ends as
    :class:`ReferenceEmulator` does, which decodes afresh and runs one
    instruction per step, each semantics row step by step over
    ``IntDomain``: the same exit status or exception, step count,
    ``rip``, registers, flags, pages, permissions, output and syscall
    events.
``symex``
    :class:`~repro.symex.executor.SymbolicExecutor`, which runs each
    data instruction as a handler generated from its semantics row and
    keeps them on the decode graph, returns what
    :class:`ReferenceSymbolicExecutor` does, which interprets each row
    step by step over the expression builders: on a cold and a warm
    entry table, every path's instructions, end, target, counts,
    registers, constraints, memory effects, stack tables, wild-read
    counter, flags (provenance and forced bits) and the executors'
    counters are equal, and the two runs share no expression object
    that two reference runs do not.
``asm``
    :func:`~repro.isa.assembler.assemble_unit`, which keeps each
    statement text's bytes or pending form in a process-wide memo,
    returns what :func:`reference_assemble` does, which parses and
    builds every statement afresh: the same code, labels and
    instructions, cold and warm, or an :class:`AssemblyError` naming
    the same line.
"""

from __future__ import annotations

import heapq
import itertools
import random
import re
import struct
from dataclasses import dataclass, fields, is_dataclass, replace
from hashlib import blake2b
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.cfg import recover_cfg
from ..binfmt.image import TEXT_BASE, BinaryImage, Section, make_image
from ..emulator.cpu import (
    MAX_DECODE_SIZE,
    DivideError,
    Emulator,
    EmulatorError,
    InvalidInstruction,
    StepLimitExceeded,
    run_image,
)
from ..emulator.memory import PAGE_MASK, PAGE_SIZE, PERM_R, PERM_W, PERM_X, Memory, MemoryFault
from ..emulator.syscalls import AttackTriggered, ProcessExit
from ..gadgets.extract import ExtractionConfig, extract_gadgets, syntactic_scan
from ..gadgets.record import GadgetRecord
from ..gadgets import subsumption
from ..gadgets.subsumption import WINNOW_MAX_CONFLICTS, deduplicate_gadgets, fingerprint
from ..isa.assembler import AssembledUnit, AssemblyError, assemble_unit
from ..isa.encoding import DecodeError, decode, decode_window, encode
from ..isa.instructions import COND_JUMPS, OP_TABLE, Instruction, Op, OperandLayout, opcode_operands
from ..isa.registers import ALL_REGS, MASK64, Flag, Reg, reg_by_name
from ..isa.semantics import (
    CONSTANTS,
    JCC,
    SEMANTICS,
    WIDTHS,
    IntDomain,
    Loc,
    Step as SemanticStep,
    flag_values,
    register,
)
from ..obfuscation.pipeline import CONFIGS, build_program
from ..pipeline import ResultCache, pool_from_bytes, pool_to_bytes
from ..planner import GadgetPlanner
from ..planner.conditions import (
    MemCondition,
    RegCondition,
    provide_mem_condition,
    provide_reg_condition,
    target_provision,
)
from ..planner.goals import find_bytes_in_image, resolve_goal, standard_goals
from ..planner.library import ChainKind, GadgetLibrary, chain_kind
from ..planner.payload import validate_payload
from ..planner.plan import GOAL_STEP, CausalLink, OpenCondition, PartialPlan, Step
from ..planner.search import PlannerConfig, SearchStats, _seed_plans, search_plans
from ..solver.bitblast import BitBlaster
from ..solver.sat import SATBudgetExceeded, SATSolver
from ..solver.solver import Solver, SolverResult, Status, _query_digest
from ..symex.executor import EndKind, PathSummary, SymbolicExecutor, _dead, _done, _Pending
from ..symex import expr
from ..symex.expr import (
    BV,
    Bool,
    BoolConst,
    bool_not,
    bv_add,
    bv_const,
    bv_sub,
    eval_bool,
    eval_bv,
    expr_size,
)
from ..symex.state import FLAG_SYM_PREFIX, SymState, reg_sym, stack_sym_offset
from ..staticanalysis.decode_graph import DecodeGraph, shared_decode_graph
from .gen import MemoryOp, gen_formula, gen_memory_ops

EmulatorFactory = Callable[..., Emulator]


class Inconclusive(Exception):
    """The two sides did not make a comparable claim; skip the case."""


@dataclass(frozen=True)
class Case:
    """One replayable fuzz case (what the corpus serializes)."""

    oracle: str
    kind: str  # "window" | "image" | "program" | "formula" | "ops" | "asm"
    #: Code bytes; for a "formula" case, the indices of the conjuncts of
    #: ``gen_formula(Random(env_seed))`` it keeps, one byte each, and for
    #: an "ops" case those of ``gen_memory_ops(Random(env_seed))``.
    text: bytes = b""
    #: Window start; for an "asm" case, the base address.
    offset: int = 0
    env_seed: int = 0
    #: Window length; for a "scan" case, the scan's ``max_scan_steps``,
    #: and for a "blocks" case, the emulators' ``step_limit``.
    max_insns: int = 8
    max_paths: int = 4
    #: Program source; for an "asm" case, assembly text.
    source: str = ""
    #: Build or policy configs; for an "asm" case, its pre-defined
    #: labels as ``name=value``.
    configs: Tuple[str, ...] = ()
    note: str = ""


# ---------------------------------------------------------------------------
# encode/decode round-trip
# ---------------------------------------------------------------------------


def check_roundtrip(data: bytes) -> List[str]:
    """Canonical re-encoding and window self-consistency at every offset."""
    failures: List[str] = []
    for off in range(len(data)):
        try:
            insn = decode(data, off)
        except DecodeError:
            continue
        encoded = encode(insn)
        canonical = bytes([data[off] & 0x7F]) + data[off + 1 : off + insn.size]
        if encoded != canonical:
            failures.append(
                f"roundtrip: encode(decode) at +{off} gave {encoded.hex()} "
                f"!= canonical {canonical.hex()}"
            )
            continue
        if len(encoded) != insn.size:
            failures.append(f"roundtrip: size mismatch at +{off}: {len(encoded)} != {insn.size}")
        again = decode(encoded, 0, addr=insn.addr)
        if opcode_operands(again) != opcode_operands(insn):
            failures.append(f"roundtrip: re-decode at +{off} changed operands")
    # decode_window must agree with pointwise decode and chain addresses.
    for off in range(len(data)):
        cursor = off
        for insn in decode_window(data, off, base_addr=0):
            if insn.addr != cursor:
                failures.append(f"decode_window: non-contiguous chain at +{off}")
                break
            point = decode(data, cursor)
            if opcode_operands(point) != opcode_operands(insn):
                failures.append(f"decode_window: disagrees with decode at +{cursor}")
                break
            cursor += insn.size
    return failures


# ---------------------------------------------------------------------------
# emulator vs symbolic executor
# ---------------------------------------------------------------------------

#: Stack bytes seeded on each side of rsp0 (both machine copies see
#: the same pseudo-random payload; everything else is zero-fill).
_STACK_SALT_LO = -0x200
_STACK_SALT_HI = 0x400

#: In the order the semantics table's Jcc predicates take them.
_FLAG_ORDER = (Flag.ZF, Flag.SF, Flag.CF, Flag.OF)


def _seed_machine(emu: Emulator, env_seed: int) -> None:
    rng = random.Random(f"fuzzenv:{env_seed}")
    rsp0 = emu.cpu.get(Reg.RSP)
    for off in range(_STACK_SALT_LO, _STACK_SALT_HI, 8):
        emu.memory.write_u64((rsp0 + off) & MASK64, rng.getrandbits(64))
    for reg in ALL_REGS:
        if reg == Reg.RSP:
            continue
        roll = rng.random()
        if roll < 0.20:
            value = (rsp0 + rng.randrange(_STACK_SALT_LO // 8, _STACK_SALT_HI // 8) * 8) & MASK64
        elif roll < 0.35:
            value = rng.randrange(0, 16)
        else:
            value = rng.getrandbits(64)
        emu.cpu.set(reg, value)
    for flag in _FLAG_ORDER:
        emu.cpu.flags[flag] = bool(rng.getrandbits(1))


class _PathEnv(dict):
    """Lazy symbol → concrete-value binding against a machine snapshot.

    Registers and flags are eagerly bound; ``stk<n>`` payload symbols
    and ``mem<n>`` wild-read symbols resolve on demand against the
    *initial* memory image (the snapshot machine is never stepped, so
    later stores cannot contaminate entry-state symbols).
    """

    def __init__(self, snapshot: Emulator, mem_reads: Sequence) -> None:
        super().__init__()
        self._memory = snapshot.memory
        self._rsp0 = snapshot.cpu.get(Reg.RSP)
        for reg in ALL_REGS:
            self[str(reg_sym(reg))] = snapshot.cpu.get(reg)
        for flag in _FLAG_ORDER:
            self[f"{FLAG_SYM_PREFIX}{flag.value}"] = int(snapshot.cpu.flags[flag])
        self._wild = {str(r.value_sym): r for r in mem_reads}

    def __missing__(self, name: str) -> int:
        offset = stack_sym_offset(name)
        if offset is not None:
            value = self._read((self._rsp0 + offset) & MASK64, 8)
        else:
            read = self._wild.get(name)
            if read is None:
                raise Inconclusive(f"unbindable symbol {name}")
            addr = eval_bv(read.addr, self) & MASK64
            value = self._read(addr, read.width)
        self[name] = value
        return value

    def _read(self, addr: int, width: int) -> int:
        try:
            if width == 8:
                return self._memory.read_u64(addr)
            return self._memory.read_u8(addr)
        except MemoryFault:
            raise Inconclusive(f"unmapped concrete read at {addr:#x}") from None


def check_window(
    text: bytes,
    offset: int,
    env_seed: int,
    *,
    max_insns: int = 8,
    max_paths: int = 4,
    emulator_factory: EmulatorFactory = Emulator,
) -> List[str]:
    """Differential emulator-vs-symex check of one window.

    Picks the (unique) symbolic path whose constraints hold under a
    seeded concrete machine, then drives the emulator down the same
    window and compares the instruction trace, all sixteen
    post-registers, the jump target, the four flags, and every Jcc
    condition the symbolic flags give against the semantics table's
    predicate on the emulator's flags.
    """
    image = make_image(text)
    base = image.text.addr
    addr = base + offset
    executor = SymbolicExecutor(
        shared_decode_graph(text, base), max_insns=max_insns, max_paths=max_paths
    )
    paths = [p for p in executor.execute_paths(addr) if p.is_usable]
    if not paths:
        return []

    snapshot = emulator_factory(image, stop_on_attack=False)
    _seed_machine(snapshot, env_seed)

    feasible = []
    for path in paths:
        if path.state.stack_smashed:
            continue
        if any(w.stack_offset is None for w in path.state.mem_writes):
            continue  # wild write: concrete side effects unmodeled
        env = _PathEnv(snapshot, path.state.mem_reads)
        try:
            if all(eval_bool(c, env) for c in path.state.constraints):
                feasible.append((path, env))
        except Inconclusive:
            pass
    if not feasible:
        return []
    if len(feasible) > 1:
        traces = {tuple(i.addr for i in p.insns) for p, _ in feasible}
        if len(traces) > 1:
            return [
                f"symex: {len(feasible)} distinct paths of window {offset:+#x} are "
                "simultaneously feasible (constraints not mutually exclusive)"
            ]
    path, env = feasible[0]

    # Pre-evaluate every claim; any unbindable symbol → inconclusive.
    try:
        expect_regs = {r: eval_bv(path.state.get(r), env) & MASK64 for r in ALL_REGS}
        expect_target = (
            eval_bv(path.jump_target, env) & MASK64 if path.end is not EndKind.SYSCALL else None
        )
        flags = path.state.flags
        expect = {
            f"post-flag {f.value}": eval_bool(v, env)
            for f, v in zip(_FLAG_ORDER, (flags.zf, flags.sf, flags.cf, flags.of))
        }
        expect.update({op.name.lower(): eval_bool(flags.condition(op), env) for op in JCC})
    except Inconclusive:
        return []

    live = emulator_factory(image, stop_on_attack=False)
    _seed_machine(live, env_seed)
    live.cpu.rip = addr
    steps = len(path.insns) - (1 if path.end is EndKind.SYSCALL else 0)
    for k in range(steps):
        expected = path.insns[k].addr
        if live.cpu.rip != expected:
            return [
                f"divergence at step {k}: emulator rip {live.cpu.rip:#x} != "
                f"symex {expected:#x} ({path.insns[k]})"
            ]
        try:
            live.step()
        except DivideError:
            return []
        except (EmulatorError, MemoryFault) as exc:
            return [f"emulator fault at step {k} ({path.insns[k]}): {exc}"]
    failures: List[str] = []
    for reg in ALL_REGS:
        got = live.cpu.get(reg)
        if got != expect_regs[reg]:
            failures.append(
                f"post-reg {reg}: emulator {got:#x} != symex {expect_regs[reg]:#x}"
            )
    if expect_target is not None and live.cpu.rip != expect_target:
        failures.append(
            f"jump target: emulator rip {live.cpu.rip:#x} != symex {expect_target:#x}"
        )
    if path.end is EndKind.SYSCALL and live.cpu.rip != path.insns[-1].addr:
        failures.append(
            f"syscall path: emulator rip {live.cpu.rip:#x} != {path.insns[-1].addr:#x}"
        )
    live_flags = tuple(live.cpu.flags[f] for f in _FLAG_ORDER)
    got = {f"post-flag {f.value}": v for f, v in zip(_FLAG_ORDER, live_flags)}
    got.update({op.name.lower(): taken(IntDomain, *live_flags) for op, taken in JCC.items()})
    failures += [f"{k}: emulator {got[k]} != symex {v}" for k, v in expect.items() if got[k] != v]
    return failures


# ---------------------------------------------------------------------------
# generated symbolic handlers vs the row interpreter
# ---------------------------------------------------------------------------


class ReferenceSymbolicExecutor(SymbolicExecutor):
    """:class:`SymbolicExecutor` that reads each instruction from the
    graph on every step, dispatches control ops one by one and runs a
    data op's semantics row step by step over the expression builders:
    no entry table, no generated handler.  The reference for the
    executor's generated handlers."""

    def _run_path(self, pending: _Pending, work: List[_Pending]) -> PathSummary:
        state = pending.state
        addr = pending.addr
        insns = pending.insns
        merged = pending.merged
        conds = pending.conds
        decode_addr = self.graph.decode_addr
        while len(insns) < self.max_insns:
            insn = decode_addr(addr)
            if insn is None:
                start = pending.addr if not insns else insns[0].addr
                return _dead(start, insns, state, merged, conds)
            insns = insns + [insn]
            self.insns_executed += 1
            op = insn.op

            if op == Op.RET:
                return _done(insns, state, EndKind.RET, _ref_pop(state), merged, conds)
            if op == Op.JMP_R:
                return _done(insns, state, EndKind.JMP_REG, state.get(insn.dst), merged, conds)
            if op == Op.JMP_M:
                target = _ref_read(state, insn, Loc.MEM)
                return _done(insns, state, EndKind.JMP_MEM, target, merged, conds)
            if op == Op.CALL_R:
                _ref_push(state, bv_const(insn.end))
                return _done(insns, state, EndKind.CALL_REG, state.get(insn.dst), merged, conds)
            if op == Op.SYSCALL:
                return _done(insns, state, EndKind.SYSCALL, bv_const(insn.end), merged, conds)
            if op == Op.HLT:
                return _dead(insns[0].addr, insns, state, merged, conds)
            if op == Op.JMP_REL:
                merged += 1
                addr = insn.target
                continue
            if op == Op.CALL_REL:
                _ref_push(state, bv_const(insn.end))
                merged += 1
                addr = insn.target
                continue
            if insn.is_cond_jump():
                condition = state.flags.condition(op)
                if isinstance(condition, BoolConst):
                    addr = insn.target if condition.value else insn.end
                    continue
                taken = state.clone()
                taken.add_constraint(condition)
                work.append(_Pending(insn.target, taken, list(insns), merged, conds + 1))
                state.add_constraint(bool_not(condition))
                conds += 1
                addr = insn.end
                continue

            _ref_execute_straightline(state, insn)
            addr = insn.end
        return _dead(insns[0].addr if insns else pending.addr, insns, state, merged, conds)


def _ref_push(state: SymState, value: BV) -> None:
    new_rsp = bv_sub(state.get(Reg.RSP), bv_const(8))
    state.set(Reg.RSP, new_rsp)
    state.store(new_rsp, value, 8)


def _ref_pop(state: SymState) -> BV:
    rsp = state.get(Reg.RSP)
    value = state.load(rsp, 8)
    state.set(Reg.RSP, bv_add(rsp, bv_const(8)))
    return value


def _ref_execute_straightline(state: SymState, insn: Instruction) -> None:
    """Run ``insn``'s semantics row with the expression builders."""
    for step in SEMANTICS[insn.op]:
        values = [_ref_read(state, insn, loc) for loc in step.reads]
        results = values if step.fn is None else [getattr(expr, step.fn)(*values)]
        if step.flags is not None:
            state.flags = state.flags.after(step, results[0], *values)
        for loc, value in zip(step.writes, results):
            _ref_write(state, insn, loc, value)


def _ref_read(state: SymState, insn: Instruction, loc) -> BV:
    reg = register(loc, insn)
    if reg is not None:
        return state.get(reg)
    if loc in CONSTANTS:
        return CONSTANTS[loc](expr, insn)
    if loc is Loc.STACK:
        return _ref_pop(state)
    addr = bv_add(state.get(insn.base), bv_const(insn.disp))
    if loc is Loc.EA:
        return addr
    return state.load(addr, WIDTHS[loc])


def _ref_write(state: SymState, insn: Instruction, loc, value: BV) -> None:
    reg = register(loc, insn)
    if reg is not None:
        state.set(reg, value)
    elif loc is Loc.STACK:
        _ref_push(state, value)
    else:
        state.store(_ref_read(state, insn, Loc.EA), value, WIDTHS[loc])


def _path_shape(path: PathSummary) -> Tuple:
    """Every fact of a path the oracle compares, as ``(name, value)``
    pairs; reading the flag bits forces lazy flags."""
    state, flags = path.state, path.state.flags
    return (
        ("insns", [insn.addr for insn in path.insns]),
        ("end", path.end),
        ("jump target", path.jump_target),
        ("merged/conds", (path.merged_direct_jumps, path.conditional_jumps)),
        ("registers", dict(state.regs)),
        ("constraints", list(state.constraints)),
        ("mem reads", list(state.mem_reads)),
        ("mem writes", list(state.mem_writes)),
        ("stack writes", dict(state._stack_writes)),
        ("stack reads", dict(state._stack_reads)),
        ("wild counter", state._wild_counter),
        ("stack smashed", state.stack_smashed),
        ("max stack offset read", state.max_stack_offset_read),
        ("flags", (flags.kind, flags.a, flags.b, flags.cf_patched)),
        ("flag bits", (flags.zf, flags.sf, flags.cf, flags.of)),
    )


def _expression_objects(value: object) -> Dict[int, object]:
    """Every dataclass object (expression node or memory effect) that
    ``value`` reaches, by identity."""
    found: Dict[int, object] = {}
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif is_dataclass(item) and id(item) not in found:
            found[id(item)] = item
            stack.extend(getattr(item, f.name) for f in fields(item))
    return found


def _shared_objects(first: object, second: object) -> List[str]:
    """The objects both ``first`` and ``second`` reach, as sorted text."""
    mine, theirs = _expression_objects(first), _expression_objects(second)
    return sorted(str(mine[key]) for key in mine.keys() & theirs.keys())


def check_symex(text: bytes, offset: int, *, max_insns: int = 8, max_paths: int = 4) -> List[str]:
    """Run the window at ``offset`` twice on one :class:`SymbolicExecutor`
    (the second time on the entries the first made) and twice on a
    :class:`ReferenceSymbolicExecutor`; every path's facts, the
    counters, and the expression objects the two runs share must agree."""
    addr = TEXT_BASE + offset
    made = [
        executor(DecodeGraph(text, TEXT_BASE), max_insns=max_insns, max_paths=max_paths)
        for executor in (SymbolicExecutor, ReferenceSymbolicExecutor)
    ]
    runs = [[executor.execute_paths(addr) for _ in range(2)] for executor in made]
    shapes = [[[_path_shape(path) for path in run] for run in pair] for pair in runs]
    failures: List[str] = []
    for call, got, want in zip(("cold", "warm"), *shapes):
        if len(got) != len(want):
            failures.append(f"symex: {call} run gave {len(got)} paths, the reference {len(want)}")
        for k, (mine, theirs) in enumerate(zip(got, want)):
            failures += [
                f"symex: {call} path {k} {name} {a!r:.160} != reference {b!r:.160}"
                for (name, a), (_, b) in zip(mine, theirs)
                if a != b
            ]
    counts = [(e.insns_executed, e.paths_completed) for e in made]
    if counts[0] != counts[1]:
        failures.append(f"symex: (insns, paths) executed {counts[0]} != reference {counts[1]}")
    shared = [_shared_objects(*pair) for pair in shapes]
    if shared[0] != shared[1]:
        extra = sorted(set(shared[0]) - set(shared[1]))
        failures.append(
            f"symex: the two runs share {len(shared[0])} objects, the reference's "
            f"{len(shared[1])} (only here: {extra[:3]!r:.160})"
        )
    return failures


# ---------------------------------------------------------------------------
# static-prefilter soundness
# ---------------------------------------------------------------------------


def check_prefilter(text: bytes, *, max_insns: int = 6, max_paths: int = 6) -> List[str]:
    """Nothing the decode-graph prefilter culls may have a usable
    symbolic path."""
    base = TEXT_BASE
    graph = shared_decode_graph(text, base)
    executor = SymbolicExecutor(graph, max_insns=max_insns, max_paths=max_paths)
    failures: List[str] = []
    for off in range(len(text)):
        if graph.reaches_transfer_within(off, max_insns):
            continue
        usable = [p for p in executor.execute_paths(base + off) if p.is_usable]
        if usable:
            failures.append(
                f"prefilter: culled {base + off:#x} but symex found "
                f"{len(usable)} usable path(s) ending {usable[0].end.name}"
            )
    return failures


# ---------------------------------------------------------------------------
# syntactic scan: successor-table DFS vs per-offset decode walk
# ---------------------------------------------------------------------------

#: The four (merge_direct_jumps, include_conditional) ablation pairs.
_SCAN_RULES = ((True, True), (True, False), (False, True), (False, False))

#: Instructions that end a gadget usefully: the references' own
#: statement of what the byte table marks ``TRANSFER``.
INDIRECT_ENDS = frozenset({Op.RET, Op.JMP_R, Op.JMP_M, Op.CALL_R, Op.SYSCALL})


def reference_successors(
    code: bytes, base: int, merge_direct_jumps: bool, include_conditional: bool
) -> List[Optional[Tuple[int, ...]]]:
    """The successor table built over an :class:`Instruction` decoded at
    every offset: the reference the decode graph's table, built from
    byte-table shapes, is checked against."""
    insns: List[Optional[Instruction]] = []
    for offset in range(len(code)):
        try:
            insns.append(decode(code, offset, addr=base + offset))
        except DecodeError:
            insns.append(None)
    n = len(code)
    table: List[Optional[Tuple[int, ...]]] = []
    for insn in insns:
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
    return table


def reference_dist(table: List[Optional[Tuple[int, ...]]]) -> List[int]:
    """Transfer distances by reverse BFS over a successor table (the
    executor's rules, ``(True, True)``): ``1`` at a transfer, ``-1``
    where none is reachable."""
    n = len(table)
    preds: List[List[int]] = [[] for _ in range(n)]
    dist = [-1] * n
    frontier = []
    for offset, succs in enumerate(table):
        if succs is None:
            dist[offset] = 1
            frontier.append(offset)
            continue
        for succ in succs:
            preds[succ].append(offset)
    while frontier:
        nxt = []
        for offset in frontier:
            for pred in preds[offset]:
                if dist[pred] == -1:
                    dist[pred] = dist[offset] + 1
                    nxt.append(pred)
        frontier = nxt
    return dist


def reference_scan(code: bytes, base: int, offset: int, config: ExtractionConfig) -> bool:
    """The syntactic scan as a walk that decodes at every step.

    The same bounded DFS as :func:`~repro.gadgets.extract.syntactic_scan`,
    with the walk rules spelled out on each decoded instruction instead
    of read from a successor table: the reference the table walk is
    checked against.
    """
    work = [offset]
    seen = set()
    while work and len(seen) < config.max_scan_steps:
        cursor = work.pop()
        if cursor in seen or not 0 <= cursor < len(code):
            continue
        seen.add(cursor)
        try:
            insn = decode(code, cursor, addr=base + cursor)
        except DecodeError:
            continue
        if insn.op in INDIRECT_ENDS:
            return True
        if insn.op == Op.HLT:
            continue
        if insn.op in (Op.JMP_REL, Op.CALL_REL):
            if config.merge_direct_jumps:
                work.append(insn.target - base)
        elif insn.is_cond_jump():
            if config.include_conditional:
                work.append(insn.target - base)
            work.append(insn.end - base)
        else:
            work.append(insn.end - base)
    return False


#: A recovered block: its instructions and its successor addresses.
RefBlock = Tuple[List[Instruction], Tuple[int, ...]]


def _ref_successor_addrs(insn: Instruction) -> Tuple[List[int], bool]:
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
    return [], True  # call reg, syscall, or a non-terminator


def reference_cfg(image: BinaryImage) -> Tuple[Set[int], Dict[int, RefBlock]]:
    """Recursive-traversal CFG recovery over an :class:`Instruction`
    decoded at every step: the reference
    :func:`~repro.analysis.cfg.recover_cfg`, which walks the decode
    graph's int shapes, is checked against.  Returns the in-text
    entries and the blocks by leader address, in sorted order."""
    text = image.text
    data = text.data
    base = text.addr

    def in_text(addr: int) -> bool:
        return base <= addr < base + len(data)

    def decode_at(addr: int) -> Optional[Instruction]:
        try:
            return decode(data, addr - base, addr=addr)
        except DecodeError:
            return None

    entries = {addr for addr in image.symbols.values() if in_text(addr)}
    if in_text(image.entry):
        entries.add(image.entry)

    # Pass 1: walk from entries, decode instructions, collect leaders.
    insn_at: Dict[int, Instruction] = {}
    leaders: Set[int] = set(entries)
    work = list(leaders)
    while work:
        addr = work.pop()
        while in_text(addr) and addr not in insn_at:
            insn = decode_at(addr)
            if insn is None:
                break
            insn_at[addr] = insn
            targets, falls = _ref_successor_addrs(insn)
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
    blocks: Dict[int, RefBlock] = {}
    for leader in sorted(leaders):
        if leader not in insn_at:
            continue
        insns: List[Instruction] = []
        addr = leader
        while addr in insn_at:
            insn = insn_at[addr]
            insns.append(insn)
            if insn.is_terminator() or insn.end in leaders:
                break
            addr = insn.end
        term = insns[-1]
        targets, falls = _ref_successor_addrs(term)
        successors: List[int] = []
        if term.is_terminator():
            successors.extend(t for t in targets if t in leaders)
            if falls and term.end in leaders:
                successors.append(term.end)
        elif term.end in leaders:
            successors.append(term.end)
        blocks[leader] = (insns, tuple(successors))
    return entries, blocks


def reference_candidates(image: BinaryImage, config: ExtractionConfig) -> List[int]:
    """The candidate list with no decode graph: :func:`reference_cfg`'s
    instruction addresses (blocks by leader, each address once), then
    every other text offset, kept where :func:`reference_scan` accepts.
    Ignores ``max_candidates``."""
    text = image.text
    base = text.addr
    _, blocks = reference_cfg(image)
    probes = list(dict.fromkeys(insn.addr for insns, _ in blocks.values() for insn in insns))
    if config.probe_unaligned:
        aligned = set(probes)
        probes += [base + o for o in range(len(text.data)) if base + o not in aligned]
    return [a for a in probes if reference_scan(text.data, base, a - base, config)]


def check_scan(text: bytes, *, max_scan_steps: int) -> List[str]:
    """The decode graph agrees with the per-offset decode it replaces,
    and the table walk with :func:`reference_scan`.

    At every offset, ``decode_at`` is :func:`decode`'s instruction (None
    where it raises); under each of the four walk-rule pairs the
    successor table equals :func:`reference_successors` and the table
    walk accepts what the decode walk does; ``dist_to_transfer`` equals
    :func:`reference_dist`.  Reports the first differing offset of each
    check."""
    graph = shared_decode_graph(text, TEXT_BASE)
    failures: List[str] = []
    for off in range(len(text)):
        try:
            want_insn: Optional[Instruction] = decode(text, off, addr=TEXT_BASE + off)
        except DecodeError:
            want_insn = None
        try:
            got_insn = graph.decode_at(off)
        except DecodeError as exc:
            failures.append(
                f"scan: at +{off} the graph's decode raises ({exc}), decode says {want_insn}"
            )
            break
        if got_insn != want_insn:
            failures.append(
                f"scan: at +{off} the graph decodes {got_insn}, decode says {want_insn}"
            )
            break
    tables = {}
    for merge, conditional in _SCAN_RULES:
        rules = f"merge={merge}, conditional={conditional}"
        want_table = tables[merge, conditional] = reference_successors(
            text, TEXT_BASE, merge, conditional
        )
        got_table = graph.successors(merge, conditional)
        for off, (got, want) in enumerate(zip(got_table, want_table)):
            if got != want:
                failures.append(
                    f"scan: at +{off} ({rules}) the successor table says {got}, "
                    f"the instructions {want}"
                )
                break
        config = ExtractionConfig(
            merge_direct_jumps=merge,
            include_conditional=conditional,
            max_scan_steps=max_scan_steps,
        )
        for off in range(len(text)):
            got = syntactic_scan(graph, off, config)
            want = reference_scan(text, TEXT_BASE, off, config)
            if got != want:
                failures.append(
                    f"scan: at +{off} ({rules}, steps={max_scan_steps}) the table walk "
                    f"says {got}, the decode walk {want}"
                )
                break
    want_dist = reference_dist(tables[True, True])
    for off, (got, want) in enumerate(zip(graph.dist_to_transfer, want_dist)):
        if got != want:
            failures.append(f"scan: at +{off} dist_to_transfer is {got}, the reference {want}")
            break
    image = make_image(text)
    cfg = recover_cfg(image, graph)
    got_blocks = [(b.start, b.addrs, b.successors) for b in cfg.blocks.values()]
    want_blocks = [
        (start, [insn.addr for insn in insns], succs)
        for start, (insns, succs) in reference_cfg(image)[1].items()
    ]
    for got, want in itertools.zip_longest(got_blocks, want_blocks):
        if got != want:
            failures.append(f"scan: the CFG has block {got}, the reference {want}")
            break
    return failures


# ---------------------------------------------------------------------------
# winnow subsumption vs fresh concrete probes
# ---------------------------------------------------------------------------


class _FreshProbeEnv(dict):
    """Deterministic symbol valuation keyed off-track from the
    winnower's own probe trials (blake2b domain ``fuzzprobe``)."""

    def __init__(self, trial: int) -> None:
        super().__init__()
        self._trial = trial

    def __missing__(self, name: str) -> int:
        digest = blake2b(f"fuzzprobe:{self._trial}:{name}".encode(), digest_size=8).digest()
        value = int.from_bytes(digest, "little")
        self[name] = value
        return value


def _probe_claims(record: GadgetRecord, trial: int) -> Optional[Tuple]:
    env = _FreshProbeEnv(trial)
    try:
        if not all(eval_bool(c, env) for c in record.pre_cond):
            return None
        regs = tuple(eval_bv(record.post_regs[r], env) & MASK64 for r in ALL_REGS)
        target = eval_bv(record.jump_target, env) & MASK64
    except KeyError:
        return None
    return regs + (target,)


#: Extraction bounds of the two pool oracles (winnow and serialize).
_POOL_EXTRACTION = ExtractionConfig(max_insns=5, max_paths=4, max_candidates=64)

#: The winnower's probe trials: four fingerprint, twelve refute.
_FINGERPRINT_TRIALS = range(4)
_REFUTE_TRIALS = range(4, 16)


def reference_fingerprint(record: GadgetRecord) -> Tuple:
    """The fingerprint with a fresh probe env per trial and
    :func:`eval_bv` on every register: the reference the shared probe
    tables are checked against."""
    samples = []
    for trial in _FINGERPRINT_TRIALS:
        env = subsumption._ProbeEnv(trial)
        regs = tuple(eval_bv(record.post_regs[r], env) for r in ALL_REGS)
        samples.append((regs, eval_bv(record.jump_target, env)))
    effects = (
        record.end,
        len(record.mem_writes),
        tuple((w.width, w.stack_offset) for w in record.mem_writes),
    )
    return (tuple(samples), effects)


def reference_sampled_equal(ea, eb) -> bool:
    """Sampled equality with a fresh probe env per refutation trial."""
    for trial in _REFUTE_TRIALS:
        env = subsumption._ProbeEnv(trial)
        if eval_bv(ea, env) != eval_bv(eb, env):
            return False
    return True


def _probe_table_failures(records: Sequence[GadgetRecord]) -> List[str]:
    """The shared probe tables answer as fresh envs would: every
    fingerprint, every jump target under the refutation trials, and the
    sampled equality of every post-expression pair of every same-bucket
    record pair that is not syntactically equal (the winnow samples
    only those)."""
    failures: List[str] = []
    buckets: Dict[Tuple, List[GadgetRecord]] = {}
    for r in records:
        want = reference_fingerprint(r)
        if fingerprint(r) != want:
            failures.append(
                f"winnow: fingerprint of #{r.gadget_id} @ {r.location:#x} differs "
                "from its reference"
            )
        target = r.jump_target
        refuted = [subsumption._probe(target, env) for env in subsumption._REFUTE_TABLES]
        if refuted != [eval_bv(target, subsumption._ProbeEnv(t)) for t in _REFUTE_TRIALS]:
            failures.append(
                f"winnow: refutation probes of #{r.gadget_id} @ {r.location:#x} differ "
                "from their reference"
            )
        buckets.setdefault(want, []).append(r)
    for bucket in buckets.values():
        for a, b in itertools.combinations(bucket, 2):
            pairs = [(a.post_regs[r], b.post_regs[r]) for r in ALL_REGS]
            pairs.append((a.jump_target, b.jump_target))
            if any(
                subsumption._sampled_equal(ea, eb) != reference_sampled_equal(ea, eb)
                for ea, eb in pairs
                if ea != eb
            ):
                failures.append(
                    f"winnow: sampled equality of #{a.gadget_id} and #{b.gadget_id} "
                    "differs from its reference"
                )
    return failures


def check_winnow(text: bytes) -> List[str]:
    """Winnow validity: the probe tables match their references,
    survivors ⊆ records, and every dropped record has a same-fingerprint
    survivor agreeing under fresh probes."""
    records = extract_gadgets(make_image(text), _POOL_EXTRACTION)
    if not records:
        return []
    survivors = deduplicate_gadgets(records)
    failures = _probe_table_failures(records)
    record_ids = {id(r) for r in records}
    surv_ids = {id(s) for s in survivors}
    for s in survivors:
        if id(s) not in record_ids:
            failures.append(f"winnow: survivor #{s.gadget_id} is not one of the input records")
    by_fp: Dict[Tuple, List[GadgetRecord]] = {}
    for s in survivors:
        by_fp.setdefault(fingerprint(s), []).append(s)
    for r in records:
        if id(r) in surv_ids:
            continue
        group = by_fp.get(fingerprint(r))
        if not group:
            failures.append(
                f"winnow: dropped #{r.gadget_id} @ {r.location:#x} with no "
                "same-fingerprint survivor"
            )
            continue
        trials = range(100, 104)
        matched = any(
            all(
                _probe_claims(r, t) is None or _probe_claims(r, t) == _probe_claims(s, t)
                for t in trials
            )
            for s in group
        )
        if not matched:
            failures.append(
                f"winnow: dropped #{r.gadget_id} @ {r.location:#x} but no survivor "
                "agrees under fresh concrete probes"
            )
    return failures


# ---------------------------------------------------------------------------
# serialization / planner identities
# ---------------------------------------------------------------------------


def check_serialize(text: bytes) -> List[str]:
    records = extract_gadgets(make_image(text), _POOL_EXTRACTION)
    blob = pool_to_bytes(records)
    back = pool_from_bytes(blob)
    if pool_to_bytes(back) != blob:
        return ["serialize: pool_to_bytes(pool_from_bytes(blob)) != blob"]
    if len(back) != len(records):
        return [f"serialize: {len(records)} records in, {len(back)} out"]
    return []


def check_planner(text: bytes) -> List[str]:
    from ..defenses.enforce import validate_payload_with_policy
    from ..defenses.policy import POLICIES

    image = make_image(text)
    config = ExtractionConfig(max_insns=5, max_paths=4, max_candidates=48)
    pcfg = PlannerConfig(max_nodes=400, max_plans=2, max_steps=6)
    base = GadgetPlanner(image, extraction=config, planner=pcfg, validate=False).run()
    goals = {goal.name: goal for goal in standard_goals(image)}
    failures: List[str] = []
    for index, payload in enumerate(base.payloads):
        resolved = resolve_goal(image, goals[payload.goal_name])
        enforced = validate_payload_with_policy(image, payload, resolved, POLICIES["none"])
        plain = validate_payload(image, payload, resolved)
        if (enforced.ok, enforced.event) != (plain, payload.event):
            failures.append(
                f"planner: payload {index} validates {plain} with event {payload.event} "
                f"unprotected, but {enforced.ok} with event {enforced.event} under none"
            )
    return failures


# ---------------------------------------------------------------------------
# warm requests: winnow-first lookup and the decode memo vs no cache
# ---------------------------------------------------------------------------


def _report_shape(report) -> Dict[str, object]:
    """What a planner report must keep whatever its pools came from."""
    es = report.extraction_stats
    return {
        "gadgets_total": report.gadgets_total,
        "gadgets_after_subsumption": report.gadgets_after_subsumption,
        "gadgets_surviving": report.gadgets_surviving,
        "per_goal": sorted(report.per_goal.items()),
        "payloads": [
            (p.goal_name, [g.location for g in p.chain], p.words) for p in report.payloads
        ],
        "extraction": (es.records, es.candidates, es.semantically_culled),
    }


def check_warm_cache(text: bytes, policy: str) -> List[str]:
    """A cache-less planner run against four runs on one cache: cold
    (both stages computed and stored), warm (the winnow entry decoded),
    warm again (decoded and kept) and a memo hit."""
    import tempfile
    from pathlib import Path

    from ..defenses.policy import POLICIES

    image = make_image(text)
    config = ExtractionConfig(max_insns=5, max_paths=4, max_candidates=48)

    def run(cache: Optional[ResultCache]):
        planner = GadgetPlanner(
            image,
            extraction=config,
            planner=_SEARCH_CONFIG,
            solver=_UnblastedSolver(max_conflicts=WINNOW_MAX_CONFLICTS),
            cache=cache,
            defense=POLICIES[policy],
        )
        return _report_shape(planner.run())

    want = run(None)
    failures: List[str] = []
    with tempfile.TemporaryDirectory(prefix="nfl-fuzz-") as root:
        cache = ResultCache(root=Path(root))
        for name in ("cold", "warm", "re-read", "memo"):
            got = run(cache)
            failures += [
                f"warm_cache[{policy}]: the {name} run's {key} is {got[key]!r:.60}, "
                f"with no cache {want[key]!r:.60}"
                for key in want
                if got[key] != want[key]
            ]
        if cache.stats.memo_hits != 1:
            failures.append(f"warm_cache: {cache.stats.memo_hits} memo hits, expected 1")
        memoised = cache.load_pool("winnow", image.to_bytes(), config)
        fresh = ResultCache(root=Path(root)).load_pool("winnow", image.to_bytes(), config)
        if memoised is None or fresh is None:
            failures.append("warm_cache: the winnow entry is gone")
        elif pool_to_bytes(memoised[0]) != pool_to_bytes(fresh[0]):
            failures.append("warm_cache: the memoised winnow pool differs from its entry")
    return failures


# ---------------------------------------------------------------------------
# planner search: memo, closure and new-pair threat checks vs recomputation
# ---------------------------------------------------------------------------

#: The search budgets of the plan_search oracle (small: the reference
#: redoes every provision and every ordering walk).
_SEARCH_CONFIG = PlannerConfig(max_nodes=150, max_plans=4, max_steps=6)


class _UnblastedSolver(Solver):
    """A solver that answers UNKNOWN wherever it would bit-blast, and
    draws its samples from a generator seeded by the query.

    The plan_search oracle checks the search, not the solver.  Blasting
    one 64-bit divider can cost seconds, which a smoke campaign cannot
    afford per case.  Seeding each sampling run from the query makes
    every answer a function of the query alone, so the unpruned
    reference, which asks more queries and in another order than the
    search, still gets the search's answer to each one.
    """

    def _blast_and_solve(self, conjuncts, symbols, cost) -> SolverResult:
        return SolverResult(Status.UNKNOWN)

    def _try_sampling(self, conjuncts, symbols):
        self._rng = random.Random(_query_digest(conjuncts))
        return super()._try_sampling(conjuncts, symbols)


def _dfs_precedes(orderings, before: int, after: int) -> bool:
    """Is there a walk of ordering edges from ``before`` to ``after``?"""
    adjacency: Dict[int, List[int]] = {}
    for a, b in orderings:
        adjacency.setdefault(a, []).append(b)
    stack, seen = [before], {before}
    while stack:
        for nxt in adjacency.get(stack.pop(), ()):
            if nxt == after:
                return True
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def _ref_with_ordering(plan: PartialPlan, before: int, after: int) -> Optional[PartialPlan]:
    if (before, after) in plan.orderings:
        return plan
    if before == after or _dfs_precedes(plan.orderings, after, before):
        return None
    return replace(plan, orderings=plan.orderings | {(before, after)}, closure=None)


def _ref_resolve_threats(plan: Optional[PartialPlan]) -> Optional[PartialPlan]:
    """Threat elimination rescanning every (link, step) pair from the
    first link after each resolution."""
    changed = True
    while changed and plan is not None:
        changed = False
        for link in plan.links:
            for sid, step in plan.steps.items():
                p, c = link.provider, link.consumer
                if sid in (p, c) or not step.clobbers(link.condition.reg):
                    continue
                if _dfs_precedes(plan.orderings, sid, p) or _dfs_precedes(plan.orderings, c, sid):
                    continue
                resolved = _ref_with_ordering(plan, c, sid)
                if resolved is None:
                    resolved = _ref_with_ordering(plan, sid, p)
                if resolved is None:
                    return None
                plan, changed = resolved, True
                break
            if changed:
                break
    return plan


def _ref_provide(plan: PartialPlan, sid: int, gadget, open_cond, bindings, regressed):
    """Link ``sid`` (added when not yet a step) as ``open_cond``'s provider."""
    steps, orderings = dict(plan.steps), plan.orderings
    next_sid = plan._next_sid
    if sid not in steps:
        steps[sid] = Step(sid, gadget)
        next_sid += 1
    elif (sid, open_cond.consumer) not in orderings:
        if _dfs_precedes(orderings, open_cond.consumer, sid):
            return None
    links = plan.links
    if isinstance(open_cond.condition, RegCondition):
        links += (CausalLink(sid, open_cond.consumer, open_cond.condition),)
    new_bindings = dict(plan.bindings)
    if bindings or sid not in plan.steps:
        new_bindings[sid] = tuple(new_bindings.get(sid, ())) + tuple(bindings)
    new = PartialPlan(
        steps=steps,
        orderings=orderings | {(sid, open_cond.consumer)},
        links=links,
        open_conds=tuple(oc for oc in plan.open_conds if oc is not open_cond)
        + tuple(OpenCondition(sid, rc) for rc in regressed),
        bindings=new_bindings,
        immediate_pre_goal=plan.immediate_pre_goal,
        _next_sid=next_sid,
    )
    return _ref_resolve_threats(new)


def _ref_expand(plan: PartialPlan, library, solver: Solver, config: PlannerConfig, locator):
    """:func:`repro.planner.search._expand` with every provision
    recomputed; yields only the live successors."""
    oc = plan.open_conds[0]
    cond = oc.condition
    fresh = plan.num_steps < config.max_steps
    if isinstance(cond, MemCondition):
        produced = 0
        for gadget in library.writers if fresh else ():
            if produced >= config.providers_per_cond:
                break
            if library.kind_of(gadget) is ChainKind.CONNECTOR:
                continue
            prov = provide_mem_condition(gadget, cond, solver)
            if prov is not None:
                new = _ref_provide(plan, plan._next_sid, gadget, oc, prov.bindings, prov.regressed)
                if new is not None:
                    produced += 1
                    yield new
        return
    for sid, step in plan.steps.items():
        if sid in (oc.consumer, GOAL_STEP) or cond.reg not in step.gadget.clob_regs:
            continue
        prov = provide_reg_condition(step.gadget, cond, solver, locator=locator)
        if prov is None:
            continue
        already = plan.established_at(sid)
        if any(already.get(rc.reg, rc.value) != rc.value for rc in prov.regressed):
            continue
        regressed = [rc for rc in prov.regressed if already.get(rc.reg) != rc.value]
        new = _ref_provide(plan, sid, step.gadget, oc, prov.bindings, regressed)
        if new is not None:
            yield new
    produced = 0
    for gadget in library.providers_for(cond.reg) if fresh else ():
        if produced >= config.providers_per_cond:
            break
        connector = library.kind_of(gadget) is ChainKind.CONNECTOR
        if connector and (plan.immediate_pre_goal is not None or oc.consumer != GOAL_STEP):
            continue
        prov = provide_reg_condition(gadget, cond, solver, locator=locator)
        if prov is None:
            continue
        if connector:
            tp = target_provision(gadget, plan.steps[GOAL_STEP].gadget.location, solver)
            if tp is None:
                continue
            prov = prov.merged_with(tp)
        new = _ref_provide(plan, plan._next_sid, gadget, oc, prov.bindings, prov.regressed)
        if new is None:
            continue
        if connector:
            new.immediate_pre_goal = new._next_sid - 1
        produced += 1
        yield new


def _ref_dead(plan: PartialPlan, pool: Sequence[GadgetRecord]) -> bool:
    """The search's two drop rules, recomputed: the connector is ordered
    before a step other than the goal, or an open condition asks for a
    register no usable non-goal gadget of ``pool`` overwrites, or for
    memory none writes."""
    connector = plan.immediate_pre_goal
    if connector is not None and any(
        _dfs_precedes(plan.orderings, connector, sid)
        for sid in plan.steps
        if sid not in (connector, GOAL_STEP)
    ):
        return True
    chain = [r for r in pool if chain_kind(r) not in (ChainKind.UNUSABLE, ChainKind.GOAL)]
    for oc in plan.open_conds:
        if isinstance(oc.condition, MemCondition):
            if not any(r.has_side_memory_writes for r in chain):
                return True
        elif not any(oc.condition.reg in r.clob_regs for r in chain):
            return True
    return False


def reference_search(
    library,
    resolved,
    solver: Solver,
    config: PlannerConfig,
    locator,
    pool: Optional[Sequence[GadgetRecord]] = None,
) -> Tuple[List[PartialPlan], int, bool]:
    """:func:`~repro.planner.search.search_plans` recomputing everything:
    no provision memo or offer list, reachability by DFS over the
    orderings, threats rescanned from the first link, the constraint
    load re-summed on every push, and the drop rules checked against
    ``pool`` (the library's records) on every push.  With no ``pool`` it
    drops nothing.  Returns the complete plans, the nodes expanded and
    whether the queue ran empty."""
    counter = itertools.count()
    queue: List = []

    def push(plan: PartialPlan) -> None:
        if pool is not None and _ref_dead(plan, pool):
            return
        load = sum(expr_size(c) for cs in plan.bindings.values() for c in cs)
        heapq.heappush(queue, ((len(plan.open_conds), load, plan.num_steps), next(counter), plan))

    for seed in _seed_plans(library, resolved, solver):
        push(seed)
    complete: List[PartialPlan] = []
    nodes = 0
    while queue and nodes < config.max_nodes and len(complete) < config.max_plans:
        plan = heapq.heappop(queue)[2]
        if plan.is_complete:
            complete.append(plan)
            continue
        nodes += 1
        for successor in list(_ref_expand(plan, library, solver, config, locator)):
            push(successor)
    return complete, nodes, not queue


def _plan_shape(plan: PartialPlan) -> Tuple:
    return (
        tuple((sid, step.gadget.location) for sid, step in plan.steps.items()),
        tuple(sorted(plan.orderings)),
        plan.links,
        tuple((oc.consumer, oc.condition) for oc in plan.open_conds),
        tuple(sorted(plan.bindings.items())),
        plan.immediate_pre_goal,
    )


def check_plan_search(text: bytes) -> List[str]:
    """The planner's search against :func:`reference_search`, per
    standard goal: the same plans in the same order and the same nodes
    expanded; each plan's closure agrees with a DFS over its orderings,
    its carried load with the re-summed one, and it linearizes; the
    dead-end reasons and the two prunes sum to the dead ends.  Against
    the reference that drops nothing: its complete plans that linearize
    are an in-order prefix of the search's, and all of them wherever
    that reference ran out of plans to expand."""
    image = make_image(text)
    pool = extract_gadgets(image, _POOL_EXTRACTION)
    library = GadgetLibrary.build(pool)

    def locator(value: int) -> Optional[int]:
        return find_bytes_in_image(image, (value & MASK64).to_bytes(8, "little"))

    failures: List[str] = []
    for goal in standard_goals(image):
        try:
            resolved = resolve_goal(image, goal)
        except ValueError:
            continue
        stats = SearchStats()
        got = search_plans(
            library,
            resolved,
            solver=_UnblastedSolver(),
            config=_SEARCH_CONFIG,
            stats=stats,
            locator=locator,
        )
        want, nodes, _ = reference_search(
            library, resolved, _UnblastedSolver(), _SEARCH_CONFIG, locator, pool
        )
        unpruned, _, emptied = reference_search(
            library, resolved, _UnblastedSolver(), _SEARCH_CONFIG, locator
        )
        where = f"plan_search[{goal.name}]"
        if stats.nodes_expanded != nodes:
            failures.append(f"{where}: {stats.nodes_expanded} nodes expanded, reference {nodes}")
        shapes = [_plan_shape(p) for p in got]
        if shapes != [_plan_shape(p) for p in want]:
            failures.append(f"{where}: {len(got)} plans differ from the reference's {len(want)}")
        linear = [_plan_shape(p) for p in unpruned if p.linearize() is not None]
        if shapes[: len(linear)] != linear or (emptied and len(shapes) != len(linear)):
            failures.append(
                f"{where}: the unpruned reference's {len(linear)} linearizable plans are not "
                f"{'all' if emptied else 'a prefix'} of the search's {len(got)}"
            )
        dead = stats.dead_no_provider + stats.dead_no_provision + stats.dead_step_cap
        pruned = stats.pruned_connector + stats.pruned_no_provider
        if dead + stats.dead_threat + pruned != stats.dead_ends:
            failures.append(f"{where}: dead-end reasons do not sum to {stats.dead_ends}")
        for index, plan in enumerate(got):
            if plan.linearize() is None:
                failures.append(f"{where}: plan {index} is complete but does not linearize")
            for a in plan.steps:
                for b in plan.steps:
                    if plan.precedes(a, b) != _dfs_precedes(plan.orderings, a, b):
                        failures.append(
                            f"{where}: plan {index} closure says s{a}<s{b} is "
                            f"{plan.precedes(a, b)}, DFS disagrees"
                        )
            load = sum(expr_size(c) for cs in plan.bindings.values() for c in cs)
            if plan.constraint_load() != load:
                failures.append(f"{where}: plan {index} carries load {plan.load}, sums to {load}")
    return failures


# ---------------------------------------------------------------------------
# cross-config behavioral equivalence
# ---------------------------------------------------------------------------


def check_obfuscation(source: str, configs: Sequence[str], *, seed: int = 0) -> List[str]:
    reference: Optional[Tuple[int, bytes]] = None
    ref_name = ""
    failures: List[str] = []
    for name in configs:
        program = build_program(source, CONFIGS[name], seed=seed)
        status, stdout = run_image(program.image, step_limit=2_000_000)
        if reference is None:
            reference, ref_name = (status, stdout), name
        elif (status, stdout) != reference:
            failures.append(
                f"obfuscation: config {name} output {(status, stdout)!r} != "
                f"{ref_name} {reference!r}"
            )
    return failures


# ---------------------------------------------------------------------------
# solver word-level pass vs plain bit-blasting
# ---------------------------------------------------------------------------

#: Conflict budget of the plain reference search; an overrun is inconclusive.
_PLAIN_MAX_CONFLICTS = 20_000


def _plain_satisfiable(conjuncts: Sequence[Bool]) -> Optional[bool]:
    """Blast and search with no preprocessing and no clause budget."""
    sat = SATSolver()
    blaster = BitBlaster(sat)
    for c in conjuncts:
        blaster.assert_bool(c)
    try:
        return sat.solve(max_conflicts=_PLAIN_MAX_CONFLICTS).satisfiable
    except SATBudgetExceeded:
        return None


def formula_conjuncts(case: Case) -> List[Bool]:
    """The conjunction a "formula" case names."""
    conjuncts = gen_formula(random.Random(case.env_seed))
    return [conjuncts[k] for k in case.text if k < len(conjuncts)]


def check_solver_preprocess(conjuncts: Sequence[Bool]) -> List[str]:
    """The word-level pass and the solver against plain bit-blasting.

    The plain search runs only when one of them answers UNSAT, so a
    formula whose answer is SAT costs no reference blast.
    """
    plain: List[Optional[bool]] = []

    def plain_sat() -> bool:
        if not plain:
            plain.append(_plain_satisfiable(conjuncts))
        return plain[0] is True

    failures: List[str] = []
    rule = Solver().refute(conjuncts)
    if rule is not None and plain_sat():
        failures.append(f"solver_preprocess: rule {rule} refuted a satisfiable conjunction")
    result = Solver().check(list(conjuncts))
    if result.is_sat and not all(eval_bool(c, result.model) for c in conjuncts):
        failures.append(f"solver_preprocess: model {result.model} violates the conjunction")
    if result.is_unsat and plain_sat():
        failures.append("solver_preprocess: solver answered UNSAT, plain blasting SAT")
    return failures


# ---------------------------------------------------------------------------
# memory's one-page memo vs the page loop
# ---------------------------------------------------------------------------


class ReferenceMemory(Memory):
    """:class:`Memory` with the page loop on every access and no memo:
    the reference the ``memory`` oracle checks the one-page memos
    against.  Mapping and permissions are :class:`Memory`'s own."""

    def read(self, addr: int, size: int, *, execute: bool = False) -> bytes:
        needed = PERM_X if execute else PERM_R
        kind = "execute" if execute else "read"
        out = bytearray()
        remaining = size
        cursor = addr
        while remaining > 0:
            page = self._page_for(cursor, needed, kind)
            off = cursor & (PAGE_SIZE - 1)
            take = min(remaining, PAGE_SIZE - off)
            out += page[off : off + take]
            cursor += take
            remaining -= take
        return bytes(out)

    def write(self, addr: int, data: bytes, *, perm: int = PERM_W) -> None:
        remaining = len(data)
        cursor = addr
        src = 0
        while remaining > 0:
            page = self._page_for(cursor, perm, "write")
            if self._perms.get(cursor & PAGE_MASK, 0) & PERM_X:
                self.exec_write_gen += 1
            off = cursor & (PAGE_SIZE - 1)
            take = min(remaining, PAGE_SIZE - off)
            page[off : off + take] = data[src : src + take]
            cursor += take
            src += take
            remaining -= take

    def read_u64(self, addr: int) -> int:
        return struct.unpack("<Q", self.read(addr, 8))[0]

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, struct.pack("<Q", value & MASK64))


def memory_ops(case: Case) -> List[MemoryOp]:
    """The ``Memory`` calls an "ops" case names."""
    ops = gen_memory_ops(random.Random(case.env_seed))
    return [ops[k] for k in case.text if k < len(ops)]


def _memory_outcome(mem: Memory, op: MemoryOp) -> Tuple:
    call, addr, *args = op
    try:
        if call == "read":
            size, execute = args
            result = mem.read(addr, size, execute=execute)
        else:
            result = getattr(mem, call)(addr, *args)
    except MemoryFault as fault:
        return ("fault", fault.kind, fault.addr)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", result)


def check_memory(ops: Sequence[MemoryOp]) -> List[str]:
    """Run ``ops`` on a :class:`Memory` and a :class:`ReferenceMemory`;
    after each call the result or fault, and ``exec_write_gen``, must
    agree, and at the end so must every page's bytes."""
    got, want = Memory(), ReferenceMemory()
    for index, op in enumerate(ops):
        outcome, expected = _memory_outcome(got, op), _memory_outcome(want, op)
        where = f"memory: op {index} {op[0]}({op[1]:#x}, ...)"
        if outcome != expected:
            return [f"{where} gave {outcome!r:.120}, the page loop {expected!r:.120}"]
        if got.exec_write_gen != want.exec_write_gen:
            return [
                f"{where} left exec_write_gen {got.exec_write_gen}, "
                f"the page loop {want.exec_write_gen}"
            ]
    pages = {addr: bytes(page) for addr, page in got._pages.items()}
    if pages != {addr: bytes(page) for addr, page in want._pages.items()}:
        return ["memory: the pages' bytes differ after the last op"]
    return []


# ---------------------------------------------------------------------------
# block dispatch of generated handlers vs one generic step at a time
# ---------------------------------------------------------------------------


def reference_handler(insn: Instruction) -> Callable[[Emulator], int]:
    """What ``insn`` does, returning the next rip: each step of its
    semantics row over :class:`IntDomain`, one read and one write at a
    time, or its control transfer.  The reference for the emulator's
    generated handlers."""
    op, end = insn.op, insn.end & MASK64
    if op in SEMANTICS:
        steps = [_int_step(step, insn) for step in SEMANTICS[op]]

        def run(emu: Emulator) -> int:
            for step in steps:
                step(emu)
            return end

        return run
    target = (insn.target or 0) & MASK64
    if op in COND_JUMPS:

        def jcc(emu: Emulator) -> int:
            flags = emu.cpu.flags
            taken = JCC[op](IntDomain, *(flags[f] for f in _FLAG_ORDER))
            return target if taken else end

        return jcc
    if op is Op.HLT:

        def halt(emu: Emulator) -> int:
            raise ProcessExit(0)

        return halt
    if op is Op.SYSCALL:
        return lambda emu: emu._syscall(end)
    if op is Op.RET:
        return lambda emu: emu.pop()
    if op is Op.JMP_REL:
        return lambda emu: target
    if op is Op.CALL_REL:
        return lambda emu: emu._call(end, target)
    if op is Op.CALL_R:
        return lambda emu: emu._call(end, emu.transfer_target(insn))
    return lambda emu: emu.transfer_target(insn)  # jmp reg, jmp [mem]


def _int_step(step: SemanticStep, insn: Instruction) -> Callable[[Emulator], None]:
    """One step of a semantics row over :class:`IntDomain`, whatever its shape."""
    reads = [_reader(loc, insn) for loc in step.reads]
    writes = [_writer(loc, insn) for loc in step.writes]
    fn = step.fn and getattr(IntDomain, step.fn)
    rule, keep_cf, traps = step.flags, step.keep_cf, step.traps

    def run(emu: Emulator) -> None:
        values = [read(emu) for read in reads]
        if traps and not values[1]:
            raise DivideError(f"division by zero at {insn.addr:#x}")
        results = [fn(*values)] if fn else values
        if rule is not None:
            flags = emu.cpu.flags
            flags[Flag.ZF], flags[Flag.SF], cf, flags[Flag.OF] = flag_values(
                IntDomain, rule, results[0], *values
            )
            if not keep_cf:
                flags[Flag.CF] = cf
        for write, value in zip(writes, results):
            write(emu, value)

    return run


def _reader(loc, insn: Instruction) -> Callable[[Emulator], int]:
    reg = register(loc, insn)
    if reg is not None:
        return lambda emu: emu.cpu.regs[reg]
    if loc in CONSTANTS:
        value = CONSTANTS[loc](IntDomain, insn)
        return lambda emu: value
    if loc is Loc.STACK:
        return lambda emu: emu.pop()
    base, disp = insn.base, insn.disp
    if loc is Loc.EA:
        return lambda emu: (emu.cpu.regs[base] + disp) & MASK64
    load = Memory.read_u64 if WIDTHS[loc] == 8 else Memory.read_u8
    return lambda emu: load(emu.memory, (emu.cpu.regs[base] + disp) & MASK64)


def _writer(loc, insn: Instruction) -> Callable[[Emulator, int], None]:
    reg = register(loc, insn)
    if reg is not None:

        def set_reg(emu: Emulator, value: int) -> None:
            emu.cpu.regs[reg] = value & MASK64

        return set_reg
    if loc is Loc.STACK:
        return lambda emu, value: emu.push(value)
    base, disp = insn.base, insn.disp
    store = Memory.write_u64 if WIDTHS[loc] == 8 else Memory.write_u8
    return lambda emu, value: store(emu.memory, (emu.cpu.regs[base] + disp) & MASK64, value)


class ReferenceEmulator(Emulator):
    """:class:`Emulator` that decodes the instruction at ``rip`` afresh on
    every step, runs it with :func:`reference_handler`, and runs one
    step at a time: no decode cache, no generated handler, no block."""

    def step(self) -> None:
        if self.steps >= self.step_limit:
            raise StepLimitExceeded(f"exceeded {self.step_limit} steps")
        self.steps += 1
        rip = self.cpu.rip
        size = self.memory.readable_run(rip, MAX_DECODE_SIZE, PERM_X)
        if not size:
            raise InvalidInstruction(f"fetch from non-executable memory at {rip:#x}")
        try:
            insn = decode(self.memory.read(rip, size, execute=True), 0, addr=rip)
        except DecodeError as exc:
            raise InvalidInstruction(str(exc)) from None
        self.cpu.rip = reference_handler(insn)(self)

    def run(self) -> int:
        try:
            while True:
                self.step()
        except ProcessExit as exit_exc:
            return exit_exc.status


def blocks_image(case: Case) -> BinaryImage:
    """The image a "blocks" case runs: a built program, or its code at
    ``TEXT_BASE`` (mapped W|X when ``configs`` is ``("wx",)``)."""
    if case.kind == "program":
        return build_program(case.source, CONFIGS[case.configs[0]], seed=case.env_seed).image
    image = make_image(case.text)
    if case.configs == ("wx",):
        image.sections[0] = Section(".text", TEXT_BASE, case.text, writable=True, executable=True)
    return image


def _blocks_run(emu: Emulator, case: Case) -> Tuple:
    """Run ``emu`` as the case says; the outcome and the machine after it."""
    if case.kind != "program":
        _seed_machine(emu, case.env_seed)
        # Zeroes make divisors trap and pointers fault more often.
        rng = random.Random(f"blocks:{case.env_seed}")
        for reg in ALL_REGS:
            if reg is not Reg.RSP and rng.random() < 0.25:
                emu.cpu.set(reg, 0)
        emu.cpu.rip = TEXT_BASE + case.offset
    try:
        outcome: Tuple = ("exit", emu.run())
    except (EmulatorError, MemoryFault, AttackTriggered) as exc:
        outcome = (type(exc).__name__, getattr(exc, "addr", None), str(exc))
    return (
        ("outcome", outcome),
        ("steps", emu.steps),
        ("rip", emu.cpu.rip),
        ("registers", dict(emu.cpu.regs)),
        ("flags", dict(emu.cpu.flags)),
        ("pages", {addr: bytes(page) for addr, page in emu.memory._pages.items()}),
        ("permissions", dict(emu.memory._perms)),
        ("stdout", bytes(emu.syscalls.stdout)),
        ("syscall events", list(emu.syscalls.events)),
    )


def check_blocks(case: Case, *, emulator_factory: EmulatorFactory = Emulator) -> List[str]:
    """Run a "blocks" case on ``emulator_factory``'s emulator and on a
    :class:`ReferenceEmulator`, with ``step_limit`` ``case.max_insns``;
    reports each part of the end state that differs."""
    image = blocks_image(case)
    made = [
        factory(image, stop_on_attack=False, step_limit=case.max_insns)
        for factory in (emulator_factory, ReferenceEmulator)
    ]
    got, want = (_blocks_run(emu, case) for emu in made)
    return [
        f"blocks: {name} {mine!r:.160} after run(), one step at a time {theirs!r:.160}"
        for (name, mine), (_, theirs) in zip(got, want)
        if mine != theirs
    ]


# ---------------------------------------------------------------------------
# the statement memo vs the two-pass assembler
# ---------------------------------------------------------------------------


@dataclass
class _RefMem:
    base: Reg
    disp: int


@dataclass
class _RefStatement:
    """A parsed source statement awaiting label resolution."""

    line_no: int
    operands: List[object]
    size: int
    op: Optional[Op] = None
    data: Optional[bytes] = None  # for directives


_REF_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):$")
_REF_MEM_RE = re.compile(r"^\[\s*([a-z0-9]+)\s*(?:([+-])\s*(\w+))?\s*\]$")

# Mnemonics that map to a single opcode regardless of operand shapes.
_REF_SIMPLE: Dict[str, Op] = {}
for _op, _inf in OP_TABLE.items():
    _REF_SIMPLE.setdefault(_inf.mnemonic, _op)
for _amb in ("mov", "jmp", "call", "push"):
    _REF_SIMPLE.pop(_amb, None)
_REF_SIMPLE["pop"] = Op.POP1

_REF_RR_OPS = {
    "add": (Op.ADD_RR, Op.ADD_RI),
    "sub": (Op.SUB_RR, Op.SUB_RI),
    "and": (Op.AND_RR, Op.AND_RI),
    "or": (Op.OR_RR, Op.OR_RI),
    "xor": (Op.XOR_RR, Op.XOR_RI),
    "cmp": (Op.CMP_RR, Op.CMP_RI),
    "test": (Op.TEST_RR, Op.TEST_RI),
}


def _ref_code(raw: str) -> str:
    """``raw`` before its first ``;`` or ``#`` outside a double-quoted
    string, one character at a time."""
    quoted = escaped = False
    for index, ch in enumerate(raw):
        if escaped:
            escaped = False
        elif quoted:
            if ch == "\\":
                escaped = True
            elif ch == '"':
                quoted = False
        elif ch == '"':
            quoted = True
        elif ch in ";#":
            return raw[:index]
    return raw


def _ref_int(token: str, line_no: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblyError(f"bad integer literal {token!r}", line_no) from None


def _ref_operand(token: str, line_no: int):
    token = token.strip()
    mem = _REF_MEM_RE.match(token)
    if mem:
        base = reg_by_name(mem.group(1))
        disp = 0
        if mem.group(2):
            disp = _ref_int(mem.group(3), line_no)
            if mem.group(2) == "-":
                disp = -disp
        return _RefMem(base=base, disp=disp)
    try:
        return reg_by_name(token)
    except ValueError:
        pass
    try:
        return int(token, 0)
    except ValueError:
        return token  # a label reference


def _ref_split_operands(rest: str) -> List[str]:
    if not rest.strip():
        return []
    parts: List[str] = []
    depth = 0
    current = ""
    for ch in rest:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += ch
    parts.append(current)
    return [p.strip() for p in parts]


def _ref_select_op(mnemonic: str, operands: List, line_no: int) -> Op:
    """Pick the opcode for a mnemonic based on its operand shapes."""

    def is_reg(x) -> bool:
        return isinstance(x, Reg)

    def is_mem(x) -> bool:
        return isinstance(x, _RefMem)

    def is_immish(x) -> bool:
        return isinstance(x, (int, str))

    if mnemonic == "mov":
        if len(operands) != 2:
            raise AssemblyError("mov takes two operands", line_no)
        a, b = operands
        if is_reg(a) and is_reg(b):
            return Op.MOV_RR
        if is_reg(a) and is_immish(b):
            return Op.MOV_RI
        if is_reg(a) and is_mem(b):
            return Op.LOAD
        if is_mem(a) and is_reg(b):
            return Op.STORE
        raise AssemblyError("unsupported mov operand combination", line_no)
    if mnemonic == "mov32":
        return Op.MOV_RI32
    if mnemonic in ("jmp", "call", "push"):
        if len(operands) != 1:
            raise AssemblyError(f"{mnemonic} takes one operand", line_no)
        (a,) = operands
        if mnemonic == "jmp":
            return Op.JMP_R if is_reg(a) else Op.JMP_M if is_mem(a) else Op.JMP_REL
        if mnemonic == "call":
            return Op.CALL_R if is_reg(a) else Op.CALL_REL
        return Op.PUSH_R if is_reg(a) else Op.PUSH_I
    if mnemonic in _REF_RR_OPS:
        if len(operands) != 2:
            raise AssemblyError(f"{mnemonic} takes two operands", line_no)
        rr, ri = _REF_RR_OPS[mnemonic]
        return rr if is_reg(operands[1]) else ri
    op = _REF_SIMPLE.get(mnemonic)
    if op is None:
        raise AssemblyError(f"unknown mnemonic {mnemonic!r}", line_no)
    return op


#: The operands each layout takes, in order: a register ``r``, an
#: immediate or label ``i``, a memory operand ``m``.
_REF_KINDS = {
    OperandLayout.NONE: "",
    OperandLayout.REG: "r",
    OperandLayout.REG_IN_OPCODE: "r",
    OperandLayout.REG_REG: "rr",
    OperandLayout.REG_IMM64: "ri",
    OperandLayout.REG_IMM32: "ri",
    OperandLayout.REG_IMM8: "ri",
    OperandLayout.REG_MEM: "rm",
    OperandLayout.MEM_REG: "mr",
    OperandLayout.IMM64: "i",
    OperandLayout.REL32: "i",
    OperandLayout.MEM: "m",
}


def _ref_kind(value) -> str:
    if isinstance(value, Reg):  # before int: a Reg is an IntEnum
        return "r"
    if isinstance(value, _RefMem):
        return "m"
    return "i"


def _ref_build(stmt: _RefStatement, labels: Dict[str, int], addr: int) -> Instruction:
    """Second pass: check the operands' count and kinds, resolve labels
    and build the final Instruction."""
    op = stmt.op
    assert op is not None
    info = OP_TABLE[op]
    layout = info.layout
    kinds = "".join(_ref_kind(v) for v in stmt.operands)
    if kinds != _REF_KINDS[layout]:
        raise AssemblyError(
            f"{info.mnemonic} takes operands {_REF_KINDS[layout]!r}, got {kinds!r}", stmt.line_no
        )

    def resolve(v) -> int:
        if isinstance(v, int):
            return v
        if isinstance(v, str):
            if v not in labels:
                raise AssemblyError(f"undefined label {v!r}", stmt.line_no)
            return labels[v]
        raise AssemblyError(f"expected immediate or label, got {v!r}", stmt.line_no)

    ops = stmt.operands
    kwargs: dict = {"addr": addr}
    if layout is OperandLayout.NONE:
        pass
    elif layout in (OperandLayout.REG, OperandLayout.REG_IN_OPCODE):
        kwargs["dst"] = ops[0]
    elif layout is OperandLayout.REG_REG:
        kwargs["dst"], kwargs["src"] = ops[0], ops[1]
    elif layout in (OperandLayout.REG_IMM64, OperandLayout.REG_IMM32, OperandLayout.REG_IMM8):
        kwargs["dst"] = ops[0]
        kwargs["imm"] = resolve(ops[1])
    elif layout is OperandLayout.REG_MEM:
        mem = ops[1]
        kwargs["dst"], kwargs["base"], kwargs["disp"] = ops[0], mem.base, mem.disp
    elif layout is OperandLayout.MEM_REG:
        mem = ops[0]
        kwargs["base"], kwargs["disp"], kwargs["src"] = mem.base, mem.disp, ops[1]
    elif layout is OperandLayout.IMM64:
        kwargs["imm"] = resolve(ops[0])
    elif layout is OperandLayout.REL32:
        kwargs["rel"] = resolve(ops[0]) - (addr + info.size)
    elif layout is OperandLayout.MEM:
        mem = ops[0]
        kwargs["base"], kwargs["disp"] = mem.base, mem.disp
    else:  # pragma: no cover - exhaustive
        raise AssertionError(layout)
    return Instruction(op=op, **kwargs)


def _ref_directive(mnemonic: str, rest: str, line_no: int) -> bytes:
    if mnemonic == ".quad":
        values = [_ref_int(v.strip(), line_no) for v in rest.split(",")]
        return b"".join(struct.pack("<Q", v & MASK64) for v in values)
    if mnemonic == ".byte":
        values = [_ref_int(v.strip(), line_no) for v in rest.split(",")]
        return bytes(v & 0xFF for v in values)
    if mnemonic == ".zero":
        return b"\x00" * _ref_int(rest.strip(), line_no)
    if mnemonic == ".asciz":
        text = rest.strip()
        if not (text.startswith('"') and text.endswith('"')):
            raise AssemblyError(".asciz expects a double-quoted string", line_no)
        body = text[1:-1].encode().decode("unicode_escape").encode("latin-1")
        return body + b"\x00"
    raise AssemblyError(f"unknown directive {mnemonic!r}", line_no)


#: What a malformed statement may raise short of an AssemblyError in
#: the reference; each becomes one naming its line.
_REF_FAULTS = (ValueError, IndexError, AttributeError, TypeError, struct.error)


def reference_assemble(
    source: str, base_addr: int = 0, extra_labels: Optional[Dict[str, int]] = None
) -> Tuple[bytes, Dict[str, int], List[Instruction]]:
    """The two-pass assembler with no memo: every statement is parsed
    with the per-character operand split and built as an
    :class:`Instruction` on every call.  Returns ``(code, labels,
    instructions)``; any fault in a statement raises an
    :class:`AssemblyError` naming its line, the first pass's before the
    second's."""
    statements: List[_RefStatement] = []
    labels: Dict[str, int] = dict(extra_labels or {})
    addr = base_addr

    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = _ref_code(raw).strip()
        if not line:
            continue
        while True:
            match = _REF_LABEL_RE.match(line.split(None, 1)[0]) if line else None
            if match is None:
                break
            name = match.group(1)
            if name in labels:
                raise AssemblyError(f"duplicate label {name!r}", line_no)
            labels[name] = addr
            line = line.split(None, 1)[1].strip() if line != match.group(0) else ""
        if not line:
            continue
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        try:
            if mnemonic.startswith("."):
                data = _ref_directive(mnemonic, rest, line_no)
                statements.append(_RefStatement(line_no, [], len(data), data=data))
                addr += len(data)
                continue
            operands = [_ref_operand(t, line_no) for t in _ref_split_operands(rest)]
            op = _ref_select_op(mnemonic, operands, line_no)
        except AssemblyError:
            raise
        except _REF_FAULTS as exc:
            raise AssemblyError(str(exc), line_no) from None
        size = OP_TABLE[op].size
        statements.append(_RefStatement(line_no, operands, size, op=op))
        addr += size

    out = bytearray()
    insns: List[Instruction] = []
    addr = base_addr
    for stmt in statements:
        if stmt.data is not None:
            out += stmt.data
        else:
            try:
                insn = _ref_build(stmt, labels, addr)
                out += encode(insn)
            except AssemblyError:
                raise
            except _REF_FAULTS as exc:
                raise AssemblyError(str(exc), stmt.line_no) from None
            insns.append(insn)
        addr += stmt.size
    return bytes(out), labels, insns


_LINE_RE = re.compile(r"line (\d+):")


def asm_extra_labels(case: Case) -> Dict[str, int]:
    """The pre-defined labels an "asm" case names (``name=value``)."""
    return {name: int(value, 0) for name, value in (c.split("=", 1) for c in case.configs)}


def _asm_outcome(assembler, source: str, base_addr: int, extra_labels: Dict[str, int]) -> Tuple:
    try:
        result = assembler(source, base_addr, extra_labels)
    except AssemblyError as exc:
        where = _LINE_RE.match(str(exc))
        return ("error", int(where.group(1)) if where else None)
    except Exception as exc:  # any other fault is a finding, reported as such
        return ("raised", type(exc).__name__, str(exc))
    if isinstance(result, AssembledUnit):
        result = (result.code, result.labels, result.instructions)
    return ("ok", *result)


def check_asm(source: str, base_addr: int, extra_labels: Dict[str, int]) -> List[str]:
    """Assemble ``source`` twice with :func:`assemble_unit` (the second
    time every statement is in the memo) and once with
    :func:`reference_assemble`: the code, labels and instructions, or the
    line an :class:`AssemblyError` names, must agree."""
    want = _asm_outcome(reference_assemble, source, base_addr, extra_labels)
    failures = []
    for call in ("first", "second"):
        got = _asm_outcome(assemble_unit, source, base_addr, extra_labels)
        if got != want:
            failures.append(
                f"asm: {call} assemble_unit at {base_addr:#x} gave {got!r:.160}, "
                f"the two-pass reference {want!r:.160}"
            )
    return failures


# ---------------------------------------------------------------------------
# case dispatch (campaign, corpus replay and shrinker re-checks)
# ---------------------------------------------------------------------------


def run_case(case: Case, *, emulator_factory: EmulatorFactory = Emulator) -> List[str]:
    """Run the oracle a case names; empty list = green/inconclusive.

    The one place a :class:`Case` becomes a check call, so a failure
    the campaign finds replays from the corpus under the same arguments.
    """
    if case.oracle == "roundtrip":
        return check_roundtrip(case.text)
    if case.oracle == "emu_symex":
        return check_window(
            case.text,
            case.offset,
            case.env_seed,
            max_insns=case.max_insns,
            max_paths=case.max_paths,
            emulator_factory=emulator_factory,
        )
    if case.oracle == "symex":
        return check_symex(
            case.text, case.offset, max_insns=case.max_insns, max_paths=case.max_paths
        )
    if case.oracle == "prefilter":
        return check_prefilter(case.text, max_insns=case.max_insns, max_paths=case.max_paths)
    if case.oracle == "winnow":
        return check_winnow(case.text)
    if case.oracle == "serialize":
        return check_serialize(case.text)
    if case.oracle == "planner":
        return check_planner(case.text)
    if case.oracle == "plan_search":
        return check_plan_search(case.text)
    if case.oracle == "warm_cache":
        return check_warm_cache(case.text, case.configs[0] if case.configs else "none")
    if case.oracle == "obfuscation":
        return check_obfuscation(case.source, case.configs or ("none",), seed=case.env_seed)
    if case.oracle == "solver_preprocess":
        return check_solver_preprocess(formula_conjuncts(case))
    if case.oracle == "scan":
        return check_scan(case.text, max_scan_steps=case.max_insns)
    if case.oracle == "memory":
        return check_memory(memory_ops(case))
    if case.oracle == "blocks":
        return check_blocks(case, emulator_factory=emulator_factory)
    if case.oracle == "asm":
        return check_asm(case.source, case.offset, asm_extra_labels(case))
    raise ValueError(f"unknown oracle {case.oracle!r}")


def clone_case(case: Case, **changes) -> Case:
    return replace(case, **changes)
