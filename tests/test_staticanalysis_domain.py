"""Unit tests for the static-analysis layer.

Two layers: window summaries read off the symbolic executor over
assembled machine code (``window.py``), and the shared decode graph's
tables and scan (``decode_graph.py``).
"""


from repro.binfmt.image import TEXT_BASE, make_image
from repro.gadgets import semantic_census
from repro.isa import Reg, assemble
from repro.staticanalysis import DecodeGraph, classify_summary, summarize_window
from repro.symex.executor import EndKind, SymbolicExecutor


# ---------------------------------------------------------------------------
# Window dataflow over machine code
# ---------------------------------------------------------------------------


def _summarize(asm: str, *, max_insns: int = 16):
    code = assemble(asm, base_addr=0x400000)
    executor = SymbolicExecutor(DecodeGraph(code, 0x400000), max_insns=max_insns, max_paths=128)
    return summarize_window(executor, 0x400000)


def test_stack_delta_plain_ret():
    s = _summarize("ret")
    assert s.usable and s.ends == frozenset({EndKind.RET})
    assert s.known_stack_delta == 8
    assert not s.conditional


def test_stack_delta_through_push_pop_and_add_rsp():
    s = _summarize("push rax\npop rbx\nadd rsp, 24\nret")
    # -8 (push) +8 (pop) +24 (add) +8 (ret)
    assert s.known_stack_delta == 32
    assert Reg.RBX in s.clobbered
    assert -8 in s.stack_write_offsets


def test_stack_delta_unknown_after_pop_rsp():
    s = _summarize("pop rsp\nret")
    assert s.stack_deltas == frozenset({None}) and s.known_stack_delta is None
    assert "stack_pivot" in classify_summary(s)


def test_join_lattice_laws():
    """Per-path rsp deltas join like a flat lattice: no usable path is
    bottom, paths that agree keep their constant, anything else is top
    (a stack pivot)."""
    fork = "cmp rax, rbx\nje out\nret\nout: "
    none = _summarize("mov rax, 1\nhlt")
    assert not none.usable and none.stack_deltas == frozenset()
    assert none.known_stack_delta is None and classify_summary(none) == frozenset()
    agree = _summarize(fork + "ret")
    assert agree.stack_deltas == frozenset({8}) and agree.known_stack_delta == 8
    for differ in (_summarize(fork + "pop rcx\nret"), _summarize(fork + "pop rsp\nret")):
        assert len(differ.stack_deltas) == 2 and differ.known_stack_delta is None
        assert "stack_pivot" in classify_summary(differ)
    assert "stack_pivot" not in classify_summary(agree)


def test_const_masking_wraps_to_64_bits():
    # rsp arithmetic wraps at 64 bits and the delta reads as signed.
    wrap = "mov rax, 0xfffffffffffffff0\nadd rsp, rax\nret"
    for asm in ("sub rsp, 16\nret", "add rsp, -16\nret", wrap):
        assert _summarize(asm).known_stack_delta == -8, asm


def test_negative_stack_delta_is_not_a_register_load():
    # call pushes its return address: rsp ends 8 below entry, so the
    # window consumes no payload and only moves rax.
    s = _summarize("mov rax, 1\ncall rbx")
    assert s.known_stack_delta == -8 and Reg.RAX in s.clobbered
    classes = classify_summary(s)
    assert "reg_move" in classes and "reg_load" not in classes


def test_resolved_branch_does_not_fork():
    # cmp rax, rax folds: je is statically taken by the symbolic
    # executor, so only the taken side is explored.
    s = _summarize(
        """
        cmp rax, rax
        je out
        hlt
        out: ret
        """
    )
    assert s.usable and not s.conditional
    assert s.ends == frozenset({EndKind.RET})


def test_unknown_branch_forks_both_sides():
    s = _summarize(
        """
        cmp rax, rbx
        je out
        jmp rcx
        out: ret
        """
    )
    assert s.conditional
    assert s.ends == frozenset({EndKind.RET, EndKind.JMP_REG})


def test_taken_branch_to_transfer_is_conditional():
    # Only the taken side reaches a transfer; the path still went
    # through the conditional jump, so the window is a branch gadget.
    asm = """
        cmp rax, rbx
        jne out
        hlt
        out: call r15
        """
    s = _summarize(asm)
    assert s.ends == frozenset({EndKind.CALL_REG})
    assert s.conditional
    assert "branch" in classify_summary(s)
    # In the census: the windows at cmp and at jne are branch gadgets.
    metrics = semantic_census(make_image(assemble(asm, base_addr=TEXT_BASE)))
    assert metrics.class_counts["branch"] == 2


def test_unreachable_window_is_culled():
    code = assemble("mov rax, 1\nhlt", base_addr=0x400000)
    graph = DecodeGraph(code, 0x400000)
    assert not graph.reaches_transfer_within(0, 8)
    assert not summarize_window(SymbolicExecutor(graph, max_insns=8), 0x400000).usable


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
