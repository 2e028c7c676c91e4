"""Unit tests for the static-analysis layer.

Three layers: intervals (``domain.py``), window summaries read off the
symbolic executor over assembled machine code (``window.py``), and
taint propagation over mini-C IR (``taint.py``).
"""


from repro.binfmt.image import TEXT_BASE, make_image
from repro.gadgets import semantic_census
from repro.isa import Reg, assemble
from repro.lang import parse
from repro.compiler.lowering import lower_program
from repro.staticanalysis import (
    DecodeGraph,
    Interval,
    ModuleChecker,
    classify_summary,
    summarize_window,
)
from repro.staticanalysis.domain import INF
from repro.symex.executor import EndKind, SymbolicExecutor


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


def test_interval_join_and_widen():
    a, b = Interval(0, 3), Interval(2, 9)
    assert a.join(b) == Interval(0, 9)
    # Widening jumps a growing bound straight to its extreme.
    assert a.widen(b) == Interval(0, INF)
    assert b.widen(a) == Interval(0, 9)
    assert Interval.const(5).join(Interval.const(5)) == Interval(5, 5)


def test_interval_arithmetic_and_clamps():
    a = Interval(1, 4)
    assert a.add(Interval(2, 3)) == Interval(3, 7)
    assert a.sub_const(1) == Interval(0, 3)
    assert a.scale(8) == Interval(8, 32)
    assert Interval(0, INF).clamp_below(8) == Interval(0, 7)
    assert Interval(0, INF).clamp_below_eq(8) == Interval(0, 8)
    assert Interval(0, 9).clamp_above_eq(4) == Interval(4, 9)
    assert str(Interval(0, INF)) == "[0, inf]"
    assert not Interval(0, INF).is_bounded and Interval(0, 9).is_bounded


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


def _dist_by_executor_rule(graph):
    """``dist_to_transfer`` as computed before it read the successor
    table: a reverse BFS over the symbolic executor's rules written out
    on each instruction."""
    from collections import deque

    from repro.isa import Op

    ends = {Op.RET, Op.JMP_R, Op.JMP_M, Op.CALL_R, Op.SYSCALL}
    n, base = len(graph.insns), graph.base_addr
    preds = [[] for _ in range(n)]
    dist = [-1] * n
    queue = deque()
    for offset, insn in enumerate(graph.insns):
        if insn is None or insn.op == Op.HLT:
            continue
        if insn.op in ends:
            dist[offset] = 1
            queue.append(offset)
            continue
        if insn.op in (Op.JMP_REL, Op.CALL_REL):
            succs = [insn.target - base]
        elif insn.is_cond_jump():
            succs = [insn.target - base, insn.end - base]
        else:
            succs = [insn.end - base]
        for succ in succs:
            if 0 <= succ < n:
                preds[succ].append(offset)
    while queue:
        offset = queue.popleft()
        for pred in preds[offset]:
            if dist[pred] == -1:
                dist[pred] = dist[offset] + 1
                queue.append(pred)
    return dist


def test_dist_to_transfer_unchanged_on_benchmark_images():
    from nflbench.reference import CENSUS_IMAGES, COLD_IMAGES, build

    for key in CENSUS_IMAGES + COLD_IMAGES:
        text = build(key).image.text
        graph = DecodeGraph(text.data, text.addr)
        assert graph.dist_to_transfer == _dist_by_executor_rule(graph), key


# ---------------------------------------------------------------------------
# Taint over mini-C IR
# ---------------------------------------------------------------------------


def _check(source: str):
    return ModuleChecker(lower_program(parse(source))).check()


def test_taint_propagates_through_copies():
    findings = _check(
        """
        u8 optarg[64];
        u64 main() {
            u8 buf[4];
            u64 x = optarg[0];
            u64 y = x;
            u64 z = y + 1;
            buf[z] = 1;
            return 0;
        }
        """
    )
    assert len(findings) == 1
    f = findings[0]
    assert f.buffer.startswith("buf") and f.buffer_size == 4
    assert "optarg" in f.sources


def test_untainted_unbounded_write_not_flagged():
    # The checker targets *attacker-controlled* overflows: an unbounded
    # write of untainted data is out of scope (and would drown netperf
    # in noise from its protocol scaffolding).
    findings = _check(
        """
        u64 n = 0;
        u64 main() {
            u8 buf[4];
            for (u64 i = 0; i < n; i++) { buf[i] = 0; }
            return 0;
        }
        """
    )
    assert findings == []


def test_bounds_check_suppresses_finding():
    findings = _check(
        """
        u8 optarg[256];
        u64 optarg_len = 0;
        u64 main() {
            u8 buf[8];
            for (u64 i = 0; i < optarg_len; i++) {
                if (i < 8) { buf[i] = optarg[i]; }
            }
            return 0;
        }
        """
    )
    assert findings == []


def test_unchecked_copy_is_flagged():
    findings = _check(
        """
        u8 optarg[256];
        u64 optarg_len = 0;
        u64 main() {
            u8 buf[8];
            for (u64 i = 0; i < optarg_len; i++) { buf[i] = optarg[i]; }
            return 0;
        }
        """
    )
    assert len(findings) == 1 and findings[0].buffer_size == 8


def test_interprocedural_write_through_param():
    findings = _check(
        """
        u8 optarg[256];
        u64 optarg_len = 0;
        u64 fill(u8* dst, u64 n) {
            for (u64 i = 0; i < n; i++) { dst[i] = optarg[i]; }
            return n;
        }
        u64 main() {
            u8 small[16];
            fill(small, optarg_len);
            return 0;
        }
        """
    )
    assert len(findings) == 1
    f = findings[0]
    assert f.callee == "fill" and f.function == "main"
    assert f.buffer.startswith("small")


def test_custom_sources():
    source = """
    u8 network_in[64];
    u64 main() {
        u8 buf[4];
        u64 i = network_in[0];
        buf[i] = 1;
        return 0;
    }
    """
    module = lower_program(parse(source))
    assert ModuleChecker(module).check() == []
    flagged = ModuleChecker(module, sources=("network_",)).check()
    assert len(flagged) == 1


def test_netperf_break_args_found_without_hints():
    from repro.bench.netperf import locate_overflow

    findings = locate_overflow()
    assert len(findings) == 2
    assert all(f.callee == "break_args" for f in findings)
    assert all(f.buffer_size == 16 for f in findings)
    assert all("optarg" in f.sources for f in findings)
    buffers = {f.buffer.split(".")[0] for f in findings}
    assert buffers == {"arg1", "arg2"}
