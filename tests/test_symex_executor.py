"""Tests for the symbolic executor: path endings, conditional forking,
direct-jump merging, memory modelling — plus a differential property
test pitting the symbolic semantics against the concrete emulator."""

import gc
import random

from hypothesis import given, settings, strategies as st

from repro.binfmt import make_image
from repro.emulator import Emulator
from repro.isa import Instruction, Op, Reg, assemble_unit, encode_program
from repro.symex import (
    EndKind,
    bv_add,
    bv_const,
    eval_bv,
    execute_paths,
    reg_sym,
    stack_sym,
)
from repro.isa.semantics import FlagRule, flag_values
from repro.symex import expr
from repro.symex.expr import BVConst, free_symbols
from repro.symex.state import FLAG_SYM_PREFIX, FlagsState, SymState, is_controlled_symbol


def paths_for(source, start_label=None, **kwargs):
    unit = assemble_unit(source, base_addr=0x400000)
    start = unit.labels[start_label] if start_label else 0x400000
    return execute_paths(unit.code, 0x400000, start, **kwargs)


def test_pop_ret_semantics():
    (path,) = paths_for("pop rax\nret")
    assert path.end is EndKind.RET
    assert path.state.get(Reg.RAX) == stack_sym(0)
    assert path.jump_target == stack_sym(8)
    # rsp advanced by 16: one pop, one ret
    assert path.state.get(Reg.RSP) == bv_add(reg_sym(Reg.RSP), bv_const(16))


def test_mov_const_then_jmp_reg():
    (path,) = paths_for("mov rax, 59\nmov rbx, target\njmp rbx\ntarget: ret")
    assert path.end is EndKind.JMP_REG
    assert path.state.get(Reg.RAX) == bv_const(59)
    assert isinstance(path.jump_target, BVConst)


def test_jmp_mem_target_is_wild_load():
    (path,) = paths_for("jmp [rax+8]")
    assert path.end is EndKind.JMP_MEM
    # Target came from uncontrolled memory → a wild symbol.
    syms = free_symbols(path.jump_target)
    assert any(s.startswith("mem") for s in syms)


def test_call_reg_pushes_return_address():
    (path,) = paths_for("call rax")
    assert path.end is EndKind.CALL_REG
    assert path.jump_target == reg_sym(Reg.RAX)
    writes = path.state.stack_writes()
    assert -8 in writes  # return address stored below initial rsp
    assert isinstance(writes[-8], BVConst)


def test_syscall_terminates_path():
    (path,) = paths_for("mov rax, 59\nsyscall")
    assert path.end is EndKind.SYSCALL
    assert path.state.get(Reg.RAX) == bv_const(59)


def test_direct_jump_merging():
    """The paper: gadgets ending in a direct jmp merge with the target."""
    (path,) = paths_for(
        """
        entry:
            pop rdi
            jmp tail
            nop
        tail:
            pop rsi
            ret
        """,
        start_label="entry",
    )
    assert path.end is EndKind.RET
    assert path.merged_direct_jumps == 1
    assert path.state.get(Reg.RDI) == stack_sym(0)
    assert path.state.get(Reg.RSI) == stack_sym(8)
    assert path.jump_target == stack_sym(16)


def test_conditional_jump_forks_two_paths():
    """Fig. 4(b): a conditional jump in the middle produces a
    fall-through path constrained by rdx == rbx and a taken path
    constrained by rdx != rbx."""
    paths = paths_for(
        """
        entry:
            pop rax
            cmp rdx, rbx
            jne out
            pop rbx
            ret
        out:
            ret
        """,
        start_label="entry",
    )
    assert len(paths) == 2
    by_constraints = {str(p.state.constraints[0]): p for p in paths if p.state.constraints}
    assert len(by_constraints) == 2
    keys = set(by_constraints)
    assert any("==" in k for k in keys)
    assert any("!=" in k for k in keys)
    fallthrough = by_constraints[[k for k in keys if "==" in k][0]]
    assert fallthrough.state.get(Reg.RBX) == stack_sym(8)


def test_statically_resolved_condition_no_fork():
    """xor rax, rax ; jz → condition folds to a constant, no fork."""
    paths = paths_for(
        """
        entry:
            xor rax, rax
            test rax, rax
            je taken
            ret
        taken:
            pop rbx
            ret
        """,
        start_label="entry",
    )
    assert len(paths) == 1
    assert paths[0].state.get(Reg.RBX) == stack_sym(0)


def test_conditional_taken_path_via_cmp_immediate():
    """Fig. 4(c): first half ends with a Jcc that must be taken."""
    paths = paths_for(
        """
        entry:
            pop rcx
            cmp rcx, 0
            je second
            hlt
        second:
            pop rdx
            ret
        """,
        start_label="entry",
    )
    usable = [p for p in paths if p.is_usable]
    assert len(usable) == 1
    (p,) = usable
    assert p.end is EndKind.RET
    # Precondition: the popped value must be zero.
    assert any("==" in str(c) for c in p.state.constraints)
    assert p.state.get(Reg.RDX) == stack_sym(8)


def test_dead_path_on_decode_failure():
    code = encode_program([Instruction(op=Op.POP_R, dst=Reg.RAX)]) + b"\xef\xef"
    paths = execute_paths(code, 0x400000, 0x400000)
    assert all(p.end is EndKind.DEAD for p in paths)


def test_max_insns_budget():
    source = "\n".join(["nop"] * 50) + "\nret"
    unit = assemble_unit(source, base_addr=0x400000)
    paths = execute_paths(unit.code, 0x400000, 0x400000, max_insns=10)
    assert all(p.end is EndKind.DEAD for p in paths)


def test_stack_smashed_flag():
    (path,) = paths_for("mov rsp, rax\nret")
    assert path.state.stack_smashed


def test_write_gadget_effect_recorded():
    (path,) = paths_for("mov [rdi+0], rsi\nret")
    writes = [w for w in path.state.mem_writes if w.stack_offset is None]
    assert len(writes) == 1
    assert writes[0].addr == reg_sym(Reg.RDI)
    assert writes[0].value == reg_sym(Reg.RSI)


def test_read_over_write_on_stack():
    (path,) = paths_for("push rax\npop rbx\nret")
    assert path.state.get(Reg.RBX) == reg_sym(Reg.RAX)


def test_leave_semantics():
    (path,) = paths_for("leave\nret")
    # rsp := rbp; rbp := [rbp]; ret target := [rbp+8]
    assert path.end is EndKind.RET
    syms = free_symbols(path.state.get(Reg.RBP))
    assert any(s.startswith("mem") for s in syms)


def test_controlled_symbols_classification():
    assert is_controlled_symbol("stk0")
    assert is_controlled_symbol("stk24")
    assert not is_controlled_symbol("stkm8")
    assert not is_controlled_symbol("rax0")
    assert not is_controlled_symbol("mem3")


def test_max_stack_offset_tracks_payload_length():
    (path,) = paths_for("pop rax\npop rbx\npop rcx\nret")
    assert path.state.max_stack_offset_read == 24  # ret read at offset 24


# ---------------------------------------------------------------------------
# Lazy flags
# ---------------------------------------------------------------------------


def _taken_constraint(paths):
    """The constraint a two-way fork put on its taken side (the path
    that ends at the window's last ``ret``)."""
    assert len(paths) == 2
    taken = max(paths, key=lambda p: p.insns[-1].addr)
    (constraint,) = taken.state.constraints
    return constraint


def test_cmp_dec_jb_keeps_the_cmp_borrow():
    """DEC keeps CF (corpus case emu_symex-0c986a5ead33): after ``cmp;
    dec`` a ``jb`` tests the cmp's borrow, not one phrased over dec's
    operands."""
    paths = paths_for("cmp rax, rbx\ndec rax\njb out\nret\nout: ret")
    assert paths[0].state.flags.cf_patched
    rax0, rbx0 = reg_sym(Reg.RAX), reg_sym(Reg.RBX)
    assert _taken_constraint(paths) == expr.bv_ult(rax0, rbx0)
    # With no cmp before it, dec; jb tests the unknown entry CF.
    (sym,) = free_symbols(_taken_constraint(paths_for("dec rax\njb out\nret\nout: ret")))
    assert sym == FLAG_SYM_PREFIX + "cf"


def test_and_js_uses_logic_flags():
    paths = paths_for("and rax, rbx\njs out\nret\nout: ret")
    flags = paths[0].state.flags
    assert flags.kind is FlagRule.LOGIC and flags.a is None and flags.b is None
    product = expr.bv_and(reg_sym(Reg.RAX), reg_sym(Reg.RBX))
    assert _taken_constraint(paths) == expr.bv_negative(product)
    assert flags.cf == expr.FALSE and flags.of == expr.FALSE


def test_unread_flags_are_never_computed(monkeypatch):
    import repro.symex.state as state_module

    calls = []

    def counting(*args):
        calls.append(args[1])
        return flag_values(*args)

    monkeypatch.setattr(state_module, "flag_values", counting)
    (path,) = paths_for("add rax, rbx\nsub rcx, 4\ninc rdx\nand rsi, rdi\nret")
    # A cmp; jne condition is phrased over the operands.
    assert len(paths_for("cmp rax, rbx\njne out\nret\nout: ret")) == 2
    assert calls == []
    assert path.state.flags.zf == expr.bv_eq(path.state.get(Reg.RSI), bv_const(0))
    assert calls == [FlagRule.LOGIC]


def _reachable_flags(root):
    """Every FlagsState reachable from ``root`` through states,
    containers and expressions."""
    found, seen, work = [], set(), [root]
    while work:
        obj = work.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, FlagsState):
            found.append(obj)
        if isinstance(obj, (SymState, FlagsState, dict, list, tuple, expr.BV, expr.Bool)):
            work.extend(gc.get_referents(obj))
    return found


_FLAGGED = ("cmp rax, rbx", "add rax, 1", "dec rcx", "inc rdx", "and rax, rbx", "sub rsi, 8",
            "dec rdi", "or rbx, rcx", "xor rdx, rax", "test rsi, rsi", "cmp rdi, 3",
            "inc rax", "dec rax", "shl rbx, 2", "neg rcx", "add rdx, rsi")


def test_flagged_window_keeps_no_earlier_flags_alive():
    assert len(_FLAGGED) == 16
    (path,) = paths_for("\n".join(_FLAGGED) + "\nret")
    assert _reachable_flags(path.state) == [path.state.flags]


def test_inc_dec_run_keeps_one_cf_source_until_read():
    """A run of inc/dec points at the flags that compute its CF, not
    at each other; reading the bits drops that link."""
    (path,) = paths_for("cmp rax, rbx\n" + "dec rcx\ninc rdx\n" * 8 + "ret")
    flags = path.state.flags
    reachable = _reachable_flags(path.state)
    assert len(reachable) == 2 and reachable[0] is flags
    source = reachable[1]
    assert source.kind is FlagRule.SUB and not source.cf_patched
    assert flags.cf == expr.bv_ult(reg_sym(Reg.RAX), reg_sym(Reg.RBX))
    assert _reachable_flags(path.state) == [flags]


# ---------------------------------------------------------------------------
# Differential testing: symbolic semantics == concrete semantics
# ---------------------------------------------------------------------------

SAFE_REGS = [r for r in Reg if r not in (Reg.RSP,)]


def _random_straightline(rng, length):
    """A random sequence of straight-line instructions (no control flow,
    no wild memory) suitable for differential testing."""
    insns = []
    stack_depth = 0
    for _ in range(length):
        choice = rng.randrange(12)
        dst = rng.choice(SAFE_REGS)
        src = rng.choice(SAFE_REGS)
        if choice == 0:
            insns.append(Instruction(op=Op.MOV_RI, dst=dst, imm=rng.getrandbits(64)))
        elif choice == 1:
            insns.append(Instruction(op=Op.MOV_RR, dst=dst, src=src))
        elif choice == 2:
            op = rng.choice([Op.ADD_RR, Op.SUB_RR, Op.AND_RR, Op.OR_RR, Op.XOR_RR, Op.MUL_RR])
            insns.append(Instruction(op=op, dst=dst, src=src))
        elif choice == 3:
            op = rng.choice([Op.ADD_RI, Op.SUB_RI, Op.AND_RI, Op.OR_RI, Op.XOR_RI])
            insns.append(Instruction(op=op, dst=dst, imm=rng.randrange(-(1 << 20), 1 << 20)))
        elif choice == 4:
            op = rng.choice([Op.SHL_RI, Op.SHR_RI, Op.SAR_RI])
            insns.append(Instruction(op=op, dst=dst, imm=rng.randrange(64)))
        elif choice == 5:
            insns.append(Instruction(op=rng.choice([Op.NOT_R, Op.NEG_R, Op.INC_R, Op.DEC_R]), dst=dst))
        elif choice == 6:
            insns.append(Instruction(op=Op.XCHG, dst=dst, src=src))
        elif choice == 7:
            insns.append(Instruction(op=Op.PUSH_R, dst=dst))
            stack_depth += 1
        elif choice == 8 and stack_depth > 0:
            insns.append(Instruction(op=Op.POP_R, dst=dst))
            stack_depth -= 1
        elif choice == 9:
            insns.append(Instruction(op=Op.LEA, dst=dst, base=src, disp=rng.randrange(-64, 64)))
        elif choice == 10:
            # Aligned stack load within the pre-initialized window.
            disp = 8 * rng.randrange(8, 16)
            insns.append(Instruction(op=Op.LOAD, dst=dst, base=Reg.RSP, disp=disp))
        else:
            op = rng.choice([Op.CMP_RR, Op.TEST_RR])
            insns.append(Instruction(op=op, dst=dst, src=src))
    # Unwind any outstanding pushes so ret reads the sentinel slot area.
    for _ in range(stack_depth):
        insns.append(Instruction(op=Op.POP_R, dst=rng.choice(SAFE_REGS)))
    insns.append(Instruction(op=Op.RET))
    return insns


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(min_value=0, max_value=10_000), length=st.integers(1, 14))
def test_property_symbolic_matches_concrete(seed, length):
    rng = random.Random(seed)
    insns = _random_straightline(rng, length)
    code = encode_program(insns)
    # hlt lands right after the code; ret jumps to it via the sentinel.
    hlt_addr = 0x400000 + len(code)
    code += bytes([int(Op.HLT)])

    image = make_image(code)
    emu = Emulator(image)
    init_regs = {r: rng.getrandbits(64) for r in SAFE_REGS}
    for r, v in init_regs.items():
        emu.cpu.set(r, v)
    rsp0 = emu.cpu.get(Reg.RSP)
    # Concrete payload on the stack: sentinel return address + random words.
    stack_words = {}
    emu.memory.write_u64(rsp0, hlt_addr)
    stack_words[0] = hlt_addr
    for k in range(1, 20):
        value = rng.getrandbits(64)
        emu.memory.write_u64(rsp0 + 8 * k, value)
        stack_words[8 * k] = value
    assert emu.run() == 0  # hlt exits with status 0

    (path,) = execute_paths(code, 0x400000, 0x400000, max_insns=64)
    assert path.end is EndKind.RET
    env = {f"{r}0": v for r, v in init_regs.items()}
    env["rsp0"] = rsp0
    for off, value in stack_words.items():
        env[f"stk{off}"] = value
    for r in SAFE_REGS:
        sym_val = eval_bv(path.state.get(r), env)
        assert sym_val == emu.cpu.get(r), f"{r} diverged on seed={seed}"
    assert eval_bv(path.state.get(Reg.RSP), env) == emu.cpu.get(Reg.RSP)
    assert eval_bv(path.jump_target, env) == hlt_addr


# ---------------------------------------------------------------------------
# Generated handlers vs the row interpreter
# ---------------------------------------------------------------------------


def test_generated_executor_matches_the_interpreter_on_benchmark_images():
    """On both census images and the four cold images, at the benchmark
    extraction config, the generated executor counts the same
    instructions and paths as the reference interpreter and its
    records encode to the same extract pool."""
    from nflbench.reference import CENSUS_IMAGES, COLD_IMAGES, build
    from repro.bench import BENCH_EXTRACTION
    from repro.fuzz.oracles import ReferenceSymbolicExecutor
    from repro.gadgets.extract import make_executor, plan_candidates, run_candidates
    from repro.pipeline import pool_to_bytes
    from repro.staticanalysis.decode_graph import DecodeGraph
    from repro.symex.executor import SymbolicExecutor

    config = BENCH_EXTRACTION
    for key in CENSUS_IMAGES + COLD_IMAGES:
        image = build(key).image
        graph, candidates = plan_candidates(image, config)
        generated = make_executor(DecodeGraph(image.text.data, image.text.addr), config)
        reference = ReferenceSymbolicExecutor(
            graph, max_insns=generated.max_insns, max_paths=generated.max_paths
        )
        assert type(generated) is SymbolicExecutor
        pools = [
            pool_to_bytes(run_candidates(executor, candidates, config))
            for executor in (generated, reference)
        ]
        assert pools[0] == pools[1], key
        assert generated.insns_executed == reference.insns_executed > 0, key
        assert generated.paths_completed == reference.paths_completed, key


def test_entries_live_on_the_graph_and_run_again():
    """An address keeps one entry, holding the graph's one instruction,
    and a second run over the same windows reuses the entries."""
    from repro.staticanalysis.decode_graph import DecodeGraph
    from repro.symex.executor import SymbolicExecutor

    code = assemble_unit("pop rax\nadd rax, 8\nxchg rax, rbx\nret", base_addr=0x400000).code
    graph = DecodeGraph(code, 0x400000)
    executor = SymbolicExecutor(graph)
    (first,) = executor.execute_paths(0x400000)
    entries = dict(graph.symex_entries)
    assert sorted(entries) == [insn.addr for insn in first.insns]
    assert all(entry[0] is graph.decode_addr(addr) for addr, entry in entries.items())
    (second,) = executor.execute_paths(0x400000)
    assert graph.symex_entries == entries
    assert second.state.regs == first.state.regs
    assert second.state.get(Reg.RBX) == bv_add(stack_sym(0), bv_const(8))
    assert executor.insns_executed == 8 and executor.paths_completed == 2


def test_extraction_drops_the_entries_it_built():
    """The shared decode graph outlives an extraction, its entries do
    not, and a second extraction rebuilds them to the same pool."""
    from repro.bench.harness import build
    from repro.gadgets.extract import ExtractionConfig, extract_gadgets
    from repro.pipeline import pool_to_bytes
    from repro.staticanalysis.decode_graph import shared_decode_graph

    image = build("bubble_sort", "llvm_obf", 7).image
    config = ExtractionConfig(max_insns=5, max_paths=2)
    graph = shared_decode_graph(image.text.data, image.text.addr)
    first = pool_to_bytes(extract_gadgets(image, config))
    assert graph.symex_entries == {}
    assert shared_decode_graph(image.text.data, image.text.addr) is graph
    assert pool_to_bytes(extract_gadgets(image, config)) == first
    assert graph.symex_entries == {}


def test_constants_are_built_on_every_run():
    """No expression object a handler builds is shared between runs:
    each run of ``mov rax, imm`` builds its own constant."""
    code = assemble_unit("mov rax, 0x1234\nlea rbx, [rcx+16]\nret", base_addr=0x400000).code
    from repro.staticanalysis.decode_graph import DecodeGraph
    from repro.symex.executor import SymbolicExecutor

    executor = SymbolicExecutor(DecodeGraph(code, 0x400000))
    (one,), (two,) = executor.execute_paths(0x400000), executor.execute_paths(0x400000)
    for reg in (Reg.RAX, Reg.RBX):
        assert one.state.get(reg) == two.state.get(reg)
        assert one.state.get(reg) is not two.state.get(reg)
