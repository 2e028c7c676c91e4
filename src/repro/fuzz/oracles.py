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
    the ones the winnower itself used).
``serialize``
    ``pool_from_bytes(pool_to_bytes(pool))`` is byte-stable.
``planner``
    Every assembled payload gets the same verdict and syscall event
    from the unprotected validator and from enforced validation under
    the ``none`` policy.
``obfuscation``
    Every obfuscation config preserves a program's concrete output.
``scan``
    The syntactic scan's bounded DFS over the decode graph's successor
    table accepts exactly the offsets that the same DFS decoding at
    every step accepts, under every pair of walk rules.
``solver_preprocess``
    The solver's word-level pass never refutes a conjunction that a
    plain :class:`~repro.solver.bitblast.BitBlaster` + CDCL search
    satisfies, the solver as a whole never answers UNSAT there either,
    and every SAT model it returns satisfies the conjunction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from hashlib import blake2b
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..binfmt.image import TEXT_BASE, make_image
from ..emulator.cpu import DivideError, Emulator, EmulatorError, run_image
from ..emulator.memory import MemoryFault
from ..gadgets.extract import ExtractionConfig, extract_gadgets, syntactic_scan
from ..gadgets.record import GadgetRecord
from ..gadgets.subsumption import deduplicate_gadgets, fingerprint
from ..isa.encoding import DecodeError, decode, decode_window, encode
from ..isa.instructions import Op, opcode_operands
from ..isa.registers import ALL_REGS, MASK64, Flag, Reg
from ..isa.semantics import JCC, IntDomain
from ..obfuscation.pipeline import CONFIGS, build_program
from ..pipeline import pool_from_bytes, pool_to_bytes
from ..solver.bitblast import BitBlaster
from ..solver.sat import SATBudgetExceeded, SATSolver
from ..solver.solver import Solver
from ..symex.executor import EndKind, SymbolicExecutor
from ..symex.expr import Bool, eval_bool, eval_bv
from ..symex.state import FLAG_SYM_PREFIX, reg_sym, stack_sym_offset
from ..staticanalysis.decode_graph import INDIRECT_ENDS, shared_decode_graph
from .gen import gen_formula

EmulatorFactory = Callable[..., Emulator]


class Inconclusive(Exception):
    """The two sides did not make a comparable claim; skip the case."""


@dataclass(frozen=True)
class Case:
    """One replayable fuzz case (what the corpus serializes)."""

    oracle: str
    kind: str  # "window" | "image" | "program" | "formula"
    #: Code bytes; for a "formula" case, the indices of the conjuncts of
    #: ``gen_formula(Random(env_seed))`` it keeps, one byte each.
    text: bytes = b""
    offset: int = 0
    env_seed: int = 0
    #: Window length; for a "scan" case, the scan's ``max_scan_steps``.
    max_insns: int = 8
    max_paths: int = 4
    source: str = ""
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


def check_scan(text: bytes, *, max_scan_steps: int) -> List[str]:
    """The table walk agrees with :func:`reference_scan` at every offset,
    under all four walk-rule pairs; reports the first offset that
    differs per pair."""
    graph = shared_decode_graph(text, TEXT_BASE)
    failures: List[str] = []
    for merge, conditional in _SCAN_RULES:
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
                    f"scan: at +{off} (merge={merge}, conditional={conditional}, "
                    f"steps={max_scan_steps}) the table walk says {got}, "
                    f"the decode walk {want}"
                )
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


def check_winnow(text: bytes) -> List[str]:
    """Winnow validity: survivors ⊆ records, and every dropped record
    has a same-fingerprint survivor agreeing under fresh probes."""
    records = extract_gadgets(make_image(text), _POOL_EXTRACTION)
    if not records:
        return []
    survivors = deduplicate_gadgets(records)
    failures: List[str] = []
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
    from ..planner import GadgetPlanner, resolve_goal, standard_goals
    from ..planner.payload import validate_payload
    from ..planner.search import PlannerConfig

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
    if case.oracle == "prefilter":
        return check_prefilter(case.text, max_insns=case.max_insns, max_paths=case.max_paths)
    if case.oracle == "winnow":
        return check_winnow(case.text)
    if case.oracle == "serialize":
        return check_serialize(case.text)
    if case.oracle == "planner":
        return check_planner(case.text)
    if case.oracle == "obfuscation":
        return check_obfuscation(case.source, case.configs or ("none",), seed=case.env_seed)
    if case.oracle == "solver_preprocess":
        return check_solver_preprocess(formula_conjuncts(case))
    if case.oracle == "scan":
        return check_scan(case.text, max_scan_steps=case.max_insns)
    raise ValueError(f"unknown oracle {case.oracle!r}")


def clone_case(case: Case, **changes) -> Case:
    return replace(case, **changes)
