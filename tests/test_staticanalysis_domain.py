"""Unit tests for the static-analysis layer and the window facts it feeds.

Two layers: the symbolic executor's paths over assembled machine code,
read as extraction's records read them, and the shared decode graph's
tables and scan (``decode_graph.py``).
"""


from repro.binfmt.image import TEXT_BASE, make_image
from repro.gadgets import ExtractionConfig, extract_gadgets, record_from_path
from repro.isa import Reg, assemble
from repro.staticanalysis import DecodeGraph
from repro.symex.executor import EndKind, SymbolicExecutor


# ---------------------------------------------------------------------------
# Window paths over machine code
# ---------------------------------------------------------------------------


def _paths(asm: str, *, max_insns: int = 16):
    """The usable symbolic paths of the window at the code's start."""
    code = assemble(asm, base_addr=0x400000)
    executor = SymbolicExecutor(DecodeGraph(code, 0x400000), max_insns=max_insns, max_paths=128)
    return [path for path in executor.execute_paths(0x400000) if path.is_usable]


def _record(asm: str):
    """The record of the window's one usable path."""
    (path,) = _paths(asm)
    return record_from_path(0, path)


def test_stack_delta_plain_ret():
    r = _record("ret")
    assert r.end is EndKind.RET
    assert r.stack_delta == 8
    assert r.conditional_jumps == 0


def test_stack_delta_through_push_pop_and_add_rsp():
    r = _record("push rax\npop rbx\nadd rsp, 24\nret")
    # -8 (push) +8 (pop) +24 (add) +8 (ret)
    assert r.stack_delta == 32
    assert Reg.RBX in r.clob_regs
    assert -8 in {w.stack_offset for w in r.mem_writes}


def test_stack_delta_unknown_after_pop_rsp():
    assert _record("pop rsp\nret").stack_delta is None


def test_const_masking_wraps_to_64_bits():
    # rsp arithmetic wraps at 64 bits and the delta reads as signed.
    wrap = "mov rax, 0xfffffffffffffff0\nadd rsp, rax\nret"
    for asm in ("sub rsp, 16\nret", "add rsp, -16\nret", wrap):
        assert _record(asm).stack_delta == -8, asm


def test_negative_stack_delta_is_not_a_register_load():
    # call pushes its return address: rsp ends 8 below entry, so the
    # window consumes no payload and only moves rax, to a constant.
    r = _record("mov rax, 1\ncall rbx")
    assert r.stack_delta == -8 and Reg.RAX in r.clob_regs
    assert Reg.RAX not in r.ctrl_regs


def test_resolved_branch_does_not_fork():
    # cmp rax, rax folds: je is statically taken by the symbolic
    # executor, so only the taken side is explored.
    paths = _paths(
        """
        cmp rax, rax
        je out
        hlt
        out: ret
        """
    )
    assert [(p.end, p.conditional_jumps) for p in paths] == [(EndKind.RET, 0)]


def test_unknown_branch_forks_both_sides():
    paths = _paths(
        """
        cmp rax, rbx
        je out
        jmp rcx
        out: ret
        """
    )
    assert {p.end for p in paths} == {EndKind.RET, EndKind.JMP_REG}
    assert all(p.conditional_jumps == 1 for p in paths)


def test_taken_branch_to_transfer_is_conditional():
    # Only the taken side reaches a transfer; the path still went
    # through the conditional jump, so the window is a branch gadget.
    asm = """
        cmp rax, rbx
        jne out
        hlt
        out: call r15
        """
    paths = _paths(asm)
    assert [(p.end, p.conditional_jumps) for p in paths] == [(EndKind.CALL_REG, 1)]
    # Extracted: the windows at cmp and at jne (2 bytes on) are branch
    # gadgets.
    image = make_image(assemble(asm, base_addr=TEXT_BASE))
    records = extract_gadgets(image, ExtractionConfig(max_insns=8))
    assert {r.location for r in records if r.conditional_jumps} == {TEXT_BASE, TEXT_BASE + 2}


def test_unreachable_window_is_culled():
    code = assemble("mov rax, 1\nhlt", base_addr=0x400000)
    graph = DecodeGraph(code, 0x400000)
    assert not graph.reaches_transfer_within(0, 8)
    assert _paths("mov rax, 1\nhlt", max_insns=8) == []


def test_budget_bounds_reachability():
    body = "\n".join("mov rax, 1" for _ in range(6)) + "\nret"
    code = assemble(body, base_addr=0x400000)
    graph = DecodeGraph(code, 0x400000)
    assert graph.reaches_transfer_within(0, 7)
    assert not graph.reaches_transfer_within(0, 6)


def test_successor_table_entries():
    code = assemble(
        """
        cmp rax, 0
        je out
        jmp out
        hlt
        out: ret
        """,
        base_addr=0x400000,
    )
    graph = DecodeGraph(code, 0x400000)
    je, jmp, hlt, ret = 6, 11, 16, 17
    both = graph.successors(True, True)
    assert both[je] == (ret, jmp)  # taken side first, popped last
    assert both[jmp] == (ret,)
    assert both[hlt] == ()
    assert both[ret] is None
    plain = graph.successors(False, False)
    assert plain[je] == (jmp,)
    assert plain[jmp] == ()
    assert graph.successors(True, True) is both  # built once per rule pair


def test_graph_insns_equal_a_per_offset_decode():
    from repro.isa.encoding import DecodeError, decode

    code = assemble("mov rax, 0x1122334455667788\nje 0x400000\nret", base_addr=0x400000)
    want = []
    for offset in range(len(code)):
        try:
            want.append(decode(code, offset, addr=0x400000 + offset))
        except DecodeError:
            want.append(None)
    graph = DecodeGraph(code, 0x400000)
    assert graph.insns == want
    assert all(a is b for a, b in zip(graph.insns, graph.insns))  # built once per offset


def test_extraction_builds_instructions_at_few_offsets():
    """The candidate scan walks shapes; instructions are built only
    where CFG recovery and the symbolic executor read them."""
    from repro.bench import BENCH_EXTRACTION, DEFAULT_SEED, netperf_image
    from repro.gadgets import extract_gadgets
    from repro.obfuscation.pipeline import CONFIGS
    from repro.staticanalysis import shared_decode_graph

    image = netperf_image(CONFIGS["llvm_obf"], seed=DEFAULT_SEED).image
    shared_decode_graph.cache_clear()
    extract_gadgets(image, BENCH_EXTRACTION)
    graph = shared_decode_graph(image.text.data, image.text.addr)
    built = sum(insn is not None for insn in graph._insns)
    assert 0 < built < len(graph.code) / 3


def test_dist_to_transfer_unchanged_on_benchmark_images():
    """The distance table against a reverse BFS over the executor's
    rules written out on an instruction decoded at every offset."""
    from nflbench.reference import CENSUS_IMAGES, COLD_IMAGES, build

    from repro.fuzz.oracles import reference_dist, reference_successors

    for key in CENSUS_IMAGES + COLD_IMAGES:
        text = build(key).image.text
        graph = DecodeGraph(text.data, text.addr)
        executor_rules = reference_successors(text.data, text.addr, True, True)
        assert graph.successors(True, True) == executor_rules, key
        assert graph.dist_to_transfer == reference_dist(executor_rules), key
