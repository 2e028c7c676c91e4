"""Tests for the differential-fuzzing subsystem (repro.fuzz).

Covers campaign determinism, every oracle's green path, the injected
emulator off-by-one being caught and auto-shrunk to a tiny reproducer,
and the DEC/Jcc carry-flag regression the fuzzer surfaced.
"""

import json
import random

import pytest

from repro.binfmt.image import make_image
from repro.emulator.cpu import Emulator
from repro.emulator.memory import PERM_W
from repro.fuzz import (
    Case,
    case_from_dict,
    case_to_dict,
    check_plan_search,
    check_planner,
    check_prefilter,
    check_roundtrip,
    check_scan,
    check_symex,
    check_window,
    check_winnow,
    gen_bytes,
    gen_chain_tail,
    gen_program,
    gen_threat_tail,
    gen_window,
    load_corpus,
    relayout,
    run_case,
    run_fuzz,
    save_case,
    shrink_case,
    spec_of,
    window_insn_count,
)
from repro.fuzz.campaign import ORACLE_NAMES, ORACLES
from repro.isa import assemble_unit
from repro.isa.encoding import decode_window, encode_program
from repro.isa.instructions import COND_JUMPS, Instruction, Op
from repro.isa.registers import MASK64, Flag, Reg
from repro.isa.semantics import SEMANTICS
from repro.obfuscation.pipeline import CONFIGS, build_program
from repro.staticanalysis import DecodeGraph
from repro.symex.executor import SymbolicExecutor
from repro.symex.expr import free_symbols


class OffByOneEmulator(Emulator):
    """Deliberately broken: pop advances rsp by 16 instead of 8."""

    def pop(self) -> int:
        rsp = self.cpu.get(Reg.RSP)
        value = self.memory.read_u64(rsp)
        self.cpu.set(Reg.RSP, (rsp + 16) & MASK64)
        return value


class CarryFlipEmulator(Emulator):
    """Deliberately broken: ``add`` leaves CF inverted."""

    def step(self) -> None:
        op = self.fetch().op
        super().step()
        if op in (Op.ADD_RR, Op.ADD_RI):
            self.cpu.flags[Flag.CF] = not self.cpu.flags[Flag.CF]


def _window(spec):
    return encode_program(relayout(spec, base=0))


I = Instruction
R = Reg

_DEC_JB = _window(
    [
        (I(op=Op.DEC_R, dst=R.RAX), None),
        (I(op=Op.JB, rel=0), 3),
        (I(op=Op.MOV_RI, dst=R.RAX, imm=7), None),
        (I(op=Op.RET), None),
    ]
)

_POP_RET = _window([(I(op=Op.POP1, dst=R.RAX), None), (I(op=Op.RET), None)])


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_gen_window_is_wellformed_and_seed_stable():
    import random

    for seed in range(30):
        a = gen_window(random.Random(f"s{seed}"))
        b = gen_window(random.Random(f"s{seed}"))
        assert [str(i) for i in a] == [str(i) for i in b]
        assert a[-1].op in (Op.RET, Op.JMP_R, Op.JMP_M, Op.CALL_R, Op.SYSCALL)
        blob = encode_program(a)
        chain = list(decode_window(blob, 0, base_addr=0, max_insns=100))
        assert len(chain) == len(a)  # every generated window decodes fully


def test_gen_window_draws_every_semantics_row():
    import random

    rng = random.Random("rows")
    drawn = {insn.op for _ in range(200) for insn in gen_window(rng)}
    assert set(SEMANTICS) <= drawn


def test_leave_reaches_conclusive_emu_symex_checks():
    """``leave`` makes ``rsp := rbp``, so a window without a frame
    pointer goes wild and proves nothing.  Over a fixed run of emu_symex
    draws, conclusive windows (the emulator side ran) with ``leave`` in
    them must be about as common as those of any other row."""
    from collections import Counter

    draw = ORACLES["emu_symex"][2]
    conclusive = Counter()
    for i in range(1500):
        case = draw(1, i)
        built = []

        def factory(*args, **kwargs):
            built.append(None)
            return Emulator(*args, **kwargs)

        check_window(
            case.text,
            case.offset,
            case.env_seed,
            max_insns=case.max_insns,
            emulator_factory=factory,
        )
        if len(built) == 2:  # the snapshot, then the live run
            window = decode_window(case.text, case.offset, base_addr=0, max_insns=case.max_insns)
            conclusive.update({insn.op for insn in window} & set(SEMANTICS))
    others = [conclusive[op] for op in SEMANTICS if op is not Op.LEAVE]
    assert conclusive[Op.LEAVE] >= min(others) // 2 > 0, (conclusive[Op.LEAVE], sorted(others))


def test_gen_program_compiles_and_runs_everywhere():
    import random

    source = gen_program(random.Random("prog"))
    from repro.emulator.cpu import run_image

    reference = None
    for name in ("none", "substitution", "flattening"):
        program = build_program(source, CONFIGS[name], seed=3)
        result = run_image(program.image, step_limit=2_000_000)
        if reference is None:
            reference = result
        assert result == reference


def test_spec_relayout_roundtrip_preserves_targets():
    spec = [
        (I(op=Op.CMP_RR, dst=R.RAX, src=R.RBX), None),
        (I(op=Op.JNE, rel=0), 3),
        (I(op=Op.INC_R, dst=R.RCX), None),
        (I(op=Op.RET), None),
    ]
    insns = relayout(spec, base=0)
    assert insns[1].target == insns[3].addr
    again = relayout(spec_of(insns), base=0)
    assert [str(i) for i in again] == [str(i) for i in insns]


# ---------------------------------------------------------------------------
# oracles: green paths
# ---------------------------------------------------------------------------


def test_roundtrip_oracle_green_on_generated_inputs():
    import random

    rng = random.Random(0)
    assert check_roundtrip(encode_program(gen_window(rng))) == []
    assert check_roundtrip(gen_bytes(rng, 64)) == []


def test_window_oracle_green_on_fixed_windows():
    for text in (_DEC_JB, _POP_RET):
        for env_seed in range(4):
            assert check_window(text, 0, env_seed) == []


def test_prefilter_oracle_green():
    import random

    rng = random.Random(5)
    text = encode_program(gen_window(rng)) + gen_bytes(rng, 24)
    assert check_prefilter(text, max_insns=6, max_paths=6) == []


def _depth_budget_scan(graph, offset, config):
    """A planted bug: ``max_scan_steps`` read as walk depth (BFS levels)
    instead of distinct offsets in DFS order."""
    succ = graph.successors(config.merge_direct_jumps, config.include_conditional)
    level, seen = {offset}, set()
    for _ in range(config.max_scan_steps):
        nxt = set()
        for cursor in level - seen:
            seen.add(cursor)
            if succ[cursor] is None:
                return True
            nxt.update(succ[cursor])
        level = nxt
    return False


_JE_OVER_HLT = assemble_unit(
    "cmp rax, 0\nje out\nnop\nnop\nnop\nnop\nhlt\nout: ret", base_addr=0
).code


def test_scan_oracle_green():
    for steps in (1, 3, 6, 7, 48):
        assert check_scan(_JE_OVER_HLT, max_scan_steps=steps) == []
    report = run_fuzz(seed=4, iters=30, oracles=["scan"])
    assert report.stats["scan"].runs == 30 and report.total_failures == 0


def test_scan_oracle_flags_depth_budget_scan(monkeypatch):
    import repro.fuzz.oracles as oracles

    monkeypatch.setattr(oracles, "syntactic_scan", _depth_budget_scan)
    failures = check_scan(_JE_OVER_HLT, max_scan_steps=3)
    # From the cmp, depth 3 reaches the ret past the je; the DFS spends
    # its three steps on cmp, je and the first nop.  The two rule pairs
    # that follow the taken side fail, each at its first offset.
    assert failures == [
        "scan: at +0 (merge=True, conditional=True, steps=3) "
        "the table walk says True, the decode walk False",
        "scan: at +0 (merge=False, conditional=True, steps=3) "
        "the table walk says True, the decode walk False",
    ]
    case = Case(oracle="scan", kind="image", text=_JE_OVER_HLT, max_insns=3)
    assert run_case(case) == failures
    report = run_fuzz(seed=4, iters=30, oracles=["scan"], shrink=False)
    assert report.total_failures > 0


def test_fuzz_cli_names_a_failure_before_shrinking_it(monkeypatch, capsys):
    """A campaign killed while it shrinks (as by a CI ``timeout``) has
    already printed the failing draw: oracle, iteration and message."""
    import repro.fuzz.campaign as campaign
    import repro.fuzz.oracles as oracles
    from repro.cli import main

    def killed(case, **_):
        raise KeyboardInterrupt

    monkeypatch.setattr(oracles, "syntactic_scan", _depth_budget_scan)
    monkeypatch.setattr(campaign, "shrink_case", killed)
    with pytest.raises(KeyboardInterrupt):
        main(["fuzz", "--seed", "4", "--iters", "30", "--oracle", "scan", "--no-bank"])
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("  found [scan] iter ")
    assert "the table walk says True, the decode walk False" in line


class _UnsignedRelGraph(DecodeGraph):
    """A planted bug: direct-transfer targets read rel32 unsigned."""

    def __init__(self, code, base_addr):
        super().__init__(code, base_addr)
        for offset in self._targets:
            end = self._ends[offset]
            self._targets[offset] = end + int.from_bytes(code[offset + 1 : end], "little")


_BACK_JE = assemble_unit("top: nop\nje top\nret", base_addr=0).code


def test_scan_oracle_flags_unsigned_rel32_targets(monkeypatch):
    import repro.fuzz.oracles as oracles

    assert check_scan(_BACK_JE, max_scan_steps=48) == []
    monkeypatch.setattr(oracles, "shared_decode_graph", _UnsignedRelGraph)
    failures = check_scan(_BACK_JE, max_scan_steps=48)
    # The je at +1 jumps back to +0; read unsigned, its target leaves
    # the section, so both tables that follow the taken side lose it.
    assert failures[:2] == [
        "scan: at +1 (merge=True, conditional=True) the successor table says (6,), "
        "the instructions (0, 6)",
        "scan: at +1 (merge=False, conditional=True) the successor table says (6,), "
        "the instructions (0, 6)",
    ]


def test_scan_oracle_flags_cfg_walk_without_syscall_fall_through(monkeypatch):
    """A planted bug in CFG recovery over the graph's shapes: only a
    direct call or a conditional jump falls through, so the ``ret``
    after a ``syscall`` is never walked."""
    import repro.analysis.cfg as cfg

    text = assemble_unit("syscall\nret", base_addr=0).code
    assert check_scan(text, max_scan_steps=48) == []
    monkeypatch.setattr(cfg, "_FALLS_THROUGH", frozenset({Op.CALL_REL, *COND_JUMPS}))
    assert check_scan(text, max_scan_steps=48) == [
        "scan: the CFG has block (4194304, [4194304], ()), "
        "the reference (4194304, [4194304], (4194305,))"
    ]
    report = run_fuzz(seed=1, iters=40, oracles=["scan"], shrink=False)
    assert report.total_failures > 0


_POP_RET_POOL = assemble_unit("pop rdi\nret\npop rsi\nret\npop rdi\nret", base_addr=0).code


def test_winnow_oracle_green_on_shared_probe_tables():
    assert check_winnow(_POP_RET_POOL) == []


def test_winnow_oracle_flags_probe_tables_that_ignore_the_trial(monkeypatch):
    """A probe table keyed by symbol name only (every trial reads trial
    0's values) is caught by the fingerprint and refutation checks."""
    from repro.gadgets import subsumption

    table = subsumption._ProbeEnv(0)
    monkeypatch.setattr(subsumption, "_FINGERPRINT_TABLES", (table,) * 4)
    monkeypatch.setattr(subsumption, "_REFUTE_TABLES", (table,) * 12)
    failures = check_winnow(_POP_RET_POOL)
    assert any("fingerprint of #0" in f and "differs from its reference" in f for f in failures)
    assert any("refutation probes of #0" in f for f in failures)


def _serialize_draws(count: int):
    draw = ORACLES["serialize"][2]
    return [draw(1, i) for i in range(count)]


def test_serialize_oracle_green_on_the_pool_writer():
    for case in _serialize_draws(30):
        assert run_case(case) == []


def test_serialize_oracle_flags_a_record_memo_keyed_by_location(monkeypatch):
    """A record memo keyed by location, which several paths from one
    offset share, writes one path's bytes for another and is caught."""
    import repro.fuzz.oracles as oracles
    from repro.pipeline import serialize

    def by_location(records, memo=None):
        memo = memo if memo is not None else serialize.EncodeMemo()
        pieces = [serialize._POOL_HEADER, serialize._varint(len(records))]
        for record in records:
            piece = memo.records.get(record.location)
            if piece is None:
                piece = memo.records[record.location] = serialize._record_bytes(record, memo)
            else:
                memo.reused += 1
            pieces.append(piece)
        return b"".join(pieces)

    monkeypatch.setattr(oracles, "pool_to_bytes", by_location)
    failing = [case for case in _serialize_draws(30) if run_case(case)]
    assert len(failing) >= 10
    assert "than the field-by-field reference" in run_case(failing[0])[0]


def test_planner_oracle_delivers_every_payload():
    text = gen_chain_tail(random.Random(0))
    assert check_planner(text) == []
    # The tail alone gives every standard goal but execve a chain.
    case = Case(oracle="planner", kind="image", text=text)
    assert run_case(case) == []


def test_planner_oracle_flags_enforcement_that_slides_undefended_payloads(monkeypatch):
    import repro.defenses.enforce as enforce
    from repro.defenses import POLICIES

    real = enforce.validate_payload_with_policy

    def always_slid(image, payload, resolved, policy, **kwargs):
        return real(image, payload, resolved, POLICIES["aslr"], **kwargs)

    monkeypatch.setattr(enforce, "validate_payload_with_policy", always_slid)
    failures = check_planner(gen_chain_tail(random.Random(0)))
    assert failures
    assert all("validates True" in f and "False with event None" in f for f in failures)


def test_warm_cache_oracle_agrees_with_a_cacheless_run():
    from repro.fuzz.oracles import check_warm_cache

    for seed, policy in enumerate(("none", "coarse_cfi", "fine_cfi", "shadow_stack")):
        assert check_warm_cache(_plan_search_text(seed), policy) == []
    case = Case(
        oracle="warm_cache", kind="image", text=gen_chain_tail(random.Random(0)), configs=("wx",)
    )
    assert run_case(case) == []


def test_warm_cache_oracle_flags_a_planner_that_changes_shared_records(monkeypatch):
    """A library build that appends to a record's pre-condition changes
    the memoised pool in place, which a fresh decode shows."""
    from repro.fuzz.oracles import check_warm_cache
    from repro.planner.library import GadgetLibrary
    from repro.symex.expr import bv_eq, bv_sym

    real = GadgetLibrary.build.__func__

    def build_and_scribble(cls, records, *args, **kwargs):
        for record in records[:1]:
            record.pre_cond.append(bv_eq(bv_sym("scribble"), bv_sym("scribble")))
        return real(cls, records, *args, **kwargs)

    monkeypatch.setattr(GadgetLibrary, "build", classmethod(build_and_scribble))
    failures = check_warm_cache(gen_chain_tail(random.Random(0)), "none")
    assert "warm_cache: the memoised winnow pool differs from its entry" in failures


def _plan_search_text(seed: int, threats: bool = False) -> bytes:
    """Three random windows and a chain tail: the plain one, or with
    ``threats`` one whose gadgets clobber each other's registers."""
    rng = random.Random(seed)
    text = b"".join(encode_program(gen_window(rng, max_body=3)) for _ in range(3))
    return text + (gen_threat_tail(rng, 2) if threats else gen_chain_tail(rng))


def test_plan_search_oracle_agrees_with_the_recomputing_search():
    for seed in range(6):
        assert check_plan_search(_plan_search_text(seed)) == []
        assert check_plan_search(_plan_search_text(seed, threats=True)) == []
    case = Case(oracle="plan_search", kind="image", text=gen_chain_tail(random.Random(0)))
    assert run_case(case) == []


def test_plan_search_oracle_flags_a_closure_that_forgets_transitivity(monkeypatch):
    from repro.planner.plan import PartialPlan

    def direct_edge_only(self, before, after):
        self.closure.setdefault(after, 0)
        self.closure[before] = self.closure.get(before, 0) | (1 << after)

    monkeypatch.setattr(PartialPlan, "_close", direct_edge_only)
    # A fresh step sets its own closure row; only an ordering a threat
    # or a reused step adds goes through _close, so the images need threats.
    failures = [
        f for seed in range(6) for f in check_plan_search(_plan_search_text(seed, threats=True))
    ]
    assert any("closure says" in f for f in failures)


def _mutant(method: str, old: str, new: str):
    """``PartialPlan.<method>`` with ``old`` in its source replaced by ``new``."""
    import inspect
    import textwrap

    from repro.planner import plan as plan_module

    source = textwrap.dedent(inspect.getsource(getattr(plan_module.PartialPlan, method)))
    assert source.count(old) == 1
    namespace = dict(vars(plan_module))
    exec(source.replace(old, new), namespace)
    return namespace[method]


#: ``_link``'s resolution of one threat as its dedented source has it,
#: and the same with the two orderings tried the other way round.
_DEMOTE_FIRST = (
    "if not closure[s] >> c & 1:\n"
    "            self._order(c, s)\n"
    "        elif not closure[p] >> s & 1:\n"
    "            self._order(s, p)\n"
)
_PROMOTE_FIRST = (
    "if not closure[p] >> s & 1:\n"
    "            self._order(s, p)\n"
    "        elif not closure[s] >> c & 1:\n"
    "            self._order(c, s)\n"
)


@pytest.mark.parametrize(
    "method, old, new, seen",
    [
        # Promote before demoting: other orderings, so other successors.
        (
            "_link",
            _DEMOTE_FIRST,
            _PROMOTE_FIRST,
            "successors differ",
        ),
        # A fresh step left unchecked against the links already there.
        (
            "_link",
            "pairs = [(link, sid) for link in old_links if link.condition.reg in clobbered]",
            "pairs = []",
            "successors differ",
        ),
        # A promoted edge recorded in the orderings but not in the closure.
        (
            "_link",
            "self._order(s, p)",
            "self.orderings = self.orderings | {(s, p)}",
            "closure says",
        ),
        # A fresh step's successor writes into its parent's closure.
        (
            "add_provider_step",
            "closure = dict(self.closure)",
            "closure = self.closure",
            "expanding the plan changed it",
        ),
    ],
    ids=["promote_first", "skip_old_links", "promoted_row_unset", "writes_into_parent"],
)
def test_plan_search_oracle_flags_a_changed_threat_resolution(monkeypatch, method, old, new, seen):
    from repro.planner.plan import PartialPlan

    monkeypatch.setattr(PartialPlan, method, _mutant(method, old, new))
    failures = [
        f for seed in range(6) for f in check_plan_search(_plan_search_text(seed, threats=True))
    ]
    assert any(seen in f for f in failures), failures[:3]


def test_campaign_deterministic_and_green():
    first = run_fuzz(seed=11, iters=12)
    second = run_fuzz(seed=11, iters=12)
    assert first.summary() == second.summary()
    assert first.total_failures == 0
    assert first.stats["roundtrip"].runs == 12
    assert first.stats["emu_symex"].runs == 12


def test_solver_preprocess_oracle_green_and_replayable():
    import random

    from repro.fuzz.gen import gen_formula
    from repro.fuzz.oracles import check_solver_preprocess, formula_conjuncts

    conjuncts = gen_formula(random.Random(7))
    assert len(conjuncts) >= 3
    assert check_solver_preprocess(conjuncts) == []
    case = Case(oracle="solver_preprocess", kind="formula", text=bytes([0, 2]), env_seed=7)
    assert formula_conjuncts(case) == [conjuncts[0], conjuncts[2]]
    assert run_case(case) == []


def test_solver_preprocess_oracle_catches_unsound_refutation(monkeypatch):
    """A pass that refutes everything is caught against plain blasting,
    and the shrinker cuts the case to one (satisfiable) conjunct."""
    from repro.solver.solver import Solver

    monkeypatch.setattr(Solver, "refute", staticmethod(lambda conjuncts: "complement"))
    case = Case(oracle="solver_preprocess", kind="formula", text=bytes([0, 1]), env_seed=7)
    failures = run_case(case)
    assert failures and "rule complement refuted a satisfiable" in failures[0]
    assert len(shrink_case(case).text) == 1


def test_memory_oracle_green_and_replayable():
    from repro.fuzz.gen import gen_memory_ops
    from repro.fuzz.oracles import check_memory, memory_ops

    ops = gen_memory_ops(random.Random(3))
    assert check_memory(ops) == []
    case = Case(oracle="memory", kind="ops", text=bytes([0, 2, 5]), env_seed=3)
    assert memory_ops(case) == [ops[0], ops[2], ops[5]]
    assert run_case(case) == []


def test_memory_oracle_catches_a_memo_that_outlives_protect(monkeypatch):
    """A ``protect`` that keeps the read and write memos lets a later
    access skip the permission check it changed.  A short campaign
    finds that, and the shrinker cuts the case to a few ops."""
    from repro.emulator.memory import Memory
    from repro.fuzz.oracles import memory_ops

    protect = Memory.protect

    def stale_protect(self, start, size, perms):
        memos = (self._read_at, self._read_page, self._write_at, self._write_page)
        try:
            protect(self, start, size, perms)
        finally:
            self._read_at, self._read_page, self._write_at, self._write_page = memos

    monkeypatch.setattr(Memory, "protect", stale_protect)
    report = run_fuzz(seed=0, iters=20, oracles=["memory"])
    assert report.total_failures > 0
    failure = report.failures[0]
    assert len(memory_ops(failure.shrunk)) < len(memory_ops(failure.case))
    assert {op[0] for op in memory_ops(failure.shrunk)} >= {"protect"}
    assert run_case(failure.shrunk)


class LimitBlindEmulator(Emulator):
    """Deliberately broken: a block runs whole even past ``step_limit``."""

    def _run_blocks(self) -> None:
        limit, self.step_limit = self.step_limit, 1 << 62
        try:
            super()._run_blocks()
        finally:
            self.step_limit = limit


class StartRipEmulator(Emulator):
    """Deliberately broken: an exception from a block leaves ``rip`` at
    the block's first instruction."""

    def _build_block(self, rip):
        block = super()._build_block(rip)
        if not block:
            return block
        (insn, handler), *rest = block

        def first(emu):
            emu.block_start = insn.addr
            return handler(emu)

        return ((insn, first), *rest)

    def _run_blocks(self) -> None:
        try:
            super()._run_blocks()
        except BaseException:
            self.cpu.rip = self.block_start
            raise


class WXBlocksEmulator(Emulator):
    """Deliberately broken: blocks are built over W|X pages too."""

    def _build_block(self, rip):
        perms_at = self.memory.perms_at
        self.memory.perms_at = lambda addr: perms_at(addr) & ~PERM_W
        try:
            return super()._build_block(rip)
        finally:
            del self.memory.perms_at


def _blocks_draws(count):
    draw = ORACLES["blocks"][2]
    return [draw(1, i) for i in range(count)]


def test_blocks_oracle_green_and_replayable():
    from repro.fuzz.oracles import check_blocks

    for case in _blocks_draws(24):
        assert check_blocks(case) == [], case
        assert run_case(case_from_dict(case_to_dict(case))) == []


def test_blocks_draws_reach_every_ending():
    """The draws end runs at ``hlt`` and at an exit syscall, trap on a
    zero divisor and fault inside a block, and stop at a step limit
    that falls inside one."""
    from repro.fuzz.oracles import blocks_image, _blocks_run

    endings = set()
    for case in _blocks_draws(120):
        emu = Emulator(blocks_image(case), stop_on_attack=False, step_limit=case.max_insns)
        kind = dict(_blocks_run(emu, case))["outcome"][0]
        if kind == "exit":
            kind = "hlt" if emu.fetch().op is Op.HLT else "exit syscall"
        elif emu.cpu.rip not in emu._block_cache:
            kind += " inside a block"
        endings.add(kind)
    assert endings >= {
        "hlt",
        "exit syscall",
        "DivideError inside a block",
        "MemoryFault inside a block",
        "StepLimitExceeded",
    }


@pytest.mark.parametrize(
    "broken",
    [LimitBlindEmulator, StartRipEmulator, WXBlocksEmulator],
    ids=lambda cls: cls.__name__,
)
def test_blocks_oracle_catches_broken_block_dispatch(broken):
    assert any(run_case(case, emulator_factory=broken) for case in _blocks_draws(40))


def _asm_draws(count: int):
    draw = ORACLES["asm"][2]
    return [draw(1, i) for i in range(count)]


def test_asm_oracle_green_and_replayable():
    for case in _asm_draws(60):
        assert run_case(case_from_dict(case_to_dict(case))) == [], case.source


def test_asm_oracle_catches_a_memo_that_caches_rel32_bytes(monkeypatch):
    """A memo that keeps a rel32 statement's bytes, as if they did not
    depend on its address, is caught, and the shrinker cuts the case to
    a line or two."""
    from repro.isa import assembler

    monkeypatch.setattr(assembler, "_MEMO", {})
    monkeypatch.setattr(assembler, "_REL32_OPS", frozenset())
    failing = [case for case in _asm_draws(40) if run_case(case)]
    assert failing and "the two-pass reference" in run_case(failing[0])[0]
    assert len(shrink_case(failing[0]).source.splitlines()) <= 2


def test_campaign_rejects_unknown_oracle():
    import pytest

    with pytest.raises(ValueError):
        run_fuzz(seed=0, iters=1, oracles=["nope"])
    assert set(ORACLE_NAMES) >= {"roundtrip", "emu_symex", "prefilter", "winnow", "scan"}


def test_campaign_rejects_empty_selection():
    import pytest

    from repro.cli import main

    with pytest.raises(ValueError, match="available: roundtrip"):
        run_fuzz(seed=0, iters=1, oracles=[])
    assert main(["fuzz", "--oracle", ",", "--iters", "1", "--no-bank"]) == 2


def test_every_oracle_runs_every_iteration_when_selected():
    """Explicit mode runs each draw off its scheduled phase too."""
    report = run_fuzz(seed=0, iters=3, oracles=list(ORACLE_NAMES))
    assert {name: stat.runs for name, stat in report.stats.items()} == {
        name: 3 for name in ORACLE_NAMES
    }
    assert report.total_failures == 0


def test_every_draw_names_its_oracle_and_survives_the_corpus():
    for name, (_period, phase, draw) in ORACLES.items():
        case = draw(0, phase)
        assert case.oracle == name
        assert case_from_dict(case_to_dict(case)) == case


# ---------------------------------------------------------------------------
# the injected bug: caught, shrunk, banked, replayable
# ---------------------------------------------------------------------------


def test_injected_off_by_one_is_caught():
    messages = check_window(_POP_RET, 0, env_seed=1, emulator_factory=OffByOneEmulator)
    assert messages, "broken pop must diverge from symex"
    assert any("rsp" in m for m in messages)


def test_injected_carry_flip_is_caught_on_flags_and_jcc():
    window = _window([(I(op=Op.ADD_RR, dst=R.RAX, src=R.RBX), None), (I(op=Op.RET), None)])
    assert check_window(window, 0, env_seed=1) == []
    messages = check_window(window, 0, env_seed=1, emulator_factory=CarryFlipEmulator)
    assert any(m.startswith("post-flag cf") for m in messages)
    assert any(m.startswith("jb:") for m in messages)


def test_injected_off_by_one_shrinks_to_tiny_reproducer(tmp_path):
    # A long window whose failing core is a single trailing ret.
    spec = [
        (I(op=Op.MOV_RI, dst=R.RBX, imm=5), None),
        (I(op=Op.ADD_RR, dst=R.RBX, src=R.RAX), None),
        (I(op=Op.POP1, dst=R.RCX), None),
        (I(op=Op.XOR_RR, dst=R.RDX, src=R.RDX), None),
        (I(op=Op.RET), None),
    ]
    case = Case(oracle="emu_symex", kind="window", text=_window(spec), offset=0, env_seed=2)
    assert run_case(case, emulator_factory=OffByOneEmulator)
    shrunk = shrink_case(case, emulator_factory=OffByOneEmulator)
    assert window_insn_count(shrunk) <= 3  # acceptance: ≤ 3 instructions
    # Still a reproducer under the buggy emulator, green under the real one.
    assert run_case(shrunk, emulator_factory=OffByOneEmulator)
    assert run_case(shrunk) == []
    # Banked and replayable through the corpus JSON round-trip.
    path = save_case(tmp_path, shrunk, description="injected off-by-one")
    [loaded] = load_corpus(tmp_path)
    assert loaded.text == shrunk.text and loaded.offset == shrunk.offset
    assert run_case(loaded, emulator_factory=OffByOneEmulator)


def test_campaign_catches_and_banks_injected_bug(tmp_path):
    report = run_fuzz(
        seed=0,
        iters=6,
        oracles=["emu_symex"],
        emulator_factory=OffByOneEmulator,
        corpus_dir=tmp_path,
    )
    assert report.total_failures > 0
    banked = list(tmp_path.glob("*.json"))
    assert banked, "failures must be banked into the corpus"
    for failure in report.failures:
        assert failure.banked is not None
        assert window_insn_count(failure.shrunk) <= 3
    # Every banked case replays red on the buggy emulator.
    for case in load_corpus(tmp_path):
        assert run_case(case, emulator_factory=OffByOneEmulator)


# ---------------------------------------------------------------------------
# the real bug the fuzzer surfaced: DEC/Jcc carry-flag staleness
# ---------------------------------------------------------------------------


def test_dec_jb_regression_symex_uses_preserved_cf():
    """DEC preserves CF (as on x86); an unsigned Jcc after DEC must
    depend on the *initial* carry, never on the DEC borrow rax < 1."""
    image = make_image(_DEC_JB)
    base = image.text.addr
    executor = SymbolicExecutor(DecodeGraph(_DEC_JB, base), max_insns=8, max_paths=4)
    paths = [p for p in executor.execute_paths(base) if p.is_usable]
    assert len(paths) == 2
    for path in paths:
        syms = set()
        for constraint in path.state.constraints:
            syms |= free_symbols(constraint)
        assert "flag_cf" in syms, "branch must read the preserved initial CF"
        assert "rax0" not in syms, "branch must not read the stale DEC borrow"
    # And the differential oracle agrees with the concrete emulator.
    for env_seed in range(8):
        assert check_window(_DEC_JB, 0, env_seed) == []


def test_window_summary_follows_cf_patch():
    """After a DEC, an unsigned Jcc forks the window's symbolic paths on
    the preserved carry, never resolving from the stale constant DEC
    operands; an equality Jcc still folds."""

    def conditional(jcc):
        text = _window(
            [
                (I(op=Op.MOV_RI, dst=R.RAX, imm=5), None),
                (I(op=Op.DEC_R, dst=R.RAX), None),
                (I(op=jcc, rel=0), 4),
                (I(op=Op.MOV_RI, dst=R.RAX, imm=7), None),
                (I(op=Op.RET), None),
            ]
        )
        base = make_image(text).text.addr
        executor = SymbolicExecutor(DecodeGraph(text, base), max_insns=8, max_paths=4)
        paths = executor.execute_paths(base)
        return any(p.is_usable and p.conditional_jumps > 0 for p in paths)

    assert conditional(Op.JB)
    assert conditional(Op.JAE)
    assert not conditional(Op.JNE)


# ---------------------------------------------------------------------------
# corpus serialization
# ---------------------------------------------------------------------------


def test_case_json_roundtrip():
    case = Case(
        oracle="emu_symex",
        kind="window",
        text=_DEC_JB,
        offset=0,
        env_seed=3,
        note="dec jb",
        configs=("none",),
    )
    data = json.loads(json.dumps(case_to_dict(case, "desc")))
    back = case_from_dict(data)
    assert back.text == case.text
    assert back.oracle == case.oracle
    assert back.configs == case.configs
    assert back.note == "desc"
    # Absent fields take the Case defaults.
    assert case_from_dict({"oracle": "scan", "kind": "image"}) == Case(oracle="scan", kind="image")


def test_symex_oracle_green_and_replayable():
    from repro.fuzz.campaign import _draw_symex

    for i in range(60):
        case = _draw_symex(2, i)
        assert run_case(case_from_dict(case_to_dict(case))) == [], i


def test_symex_oracle_catches_a_hoisted_constant(monkeypatch):
    """A handler factory that builds ``bv_const(imm)`` once per
    instruction gives equal expressions, but shares one object between
    runs; the oracle reports it, and the shrinker keeps it failing."""
    from repro.symex import executor

    real = executor.factory_source

    def hoisted(op):
        source = real(op)
        return source.replace("    imm = insn.imm\n", "    imm = bv_const(insn.imm)\n").replace(
            "bv_const(imm)\n", "imm\n"
        )

    monkeypatch.setattr(executor, "_FACTORIES", {})
    monkeypatch.setattr(executor, "factory_source", hoisted)
    text = assemble_unit("mov rax, 0x1234\nret", base_addr=0).code
    failures = check_symex(text, 0)
    assert failures == [
        "symex: the two runs share 28 objects, the reference's 27 (only here: ['0x1234'])"
    ]
    case = Case(oracle="symex", kind="window", text=text)
    assert run_case(case) == failures
    assert window_insn_count(shrink_case(case)) <= 2
