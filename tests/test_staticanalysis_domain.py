"""Unit tests for the static-analysis abstract domains.

Three layers: the flat constant/init-register domain and intervals
(``domain.py``), window dataflow over assembled machine code
(``window.py``), and taint propagation over mini-C IR (``taint.py``).
"""


from repro.isa import Reg, assemble
from repro.lang import parse
from repro.compiler.lowering import lower_program
from repro.staticanalysis import (
    BOT,
    Const,
    DecodeGraph,
    InitReg,
    Interval,
    ModuleChecker,
    TOP,
    Tribool,
    WindowAnalyzer,
)
from repro.staticanalysis.domain import (
    INF,
    abs_add,
    abs_binop,
    abs_shift,
    abs_sub,
    join,
)
from repro.symex.executor import EndKind


# ---------------------------------------------------------------------------
# Flat domain
# ---------------------------------------------------------------------------


def test_join_lattice_laws():
    a, b = Const(1), Const(2)
    assert join(a, a) == a
    assert join(a, b) is TOP
    assert join(BOT, a) == a
    assert join(a, BOT) == a
    assert join(TOP, a) is TOP
    assert join(BOT, BOT) is BOT


def test_abs_add_sub_init_reg_offsets():
    rsp = InitReg(int(Reg.RSP))
    assert abs_add(rsp, Const(8)) == InitReg(int(Reg.RSP), 8)
    assert abs_sub(InitReg(int(Reg.RSP), 8), Const(8)) == rsp
    assert abs_add(Const(3), Const(4)) == Const(7)
    # x - x folds to zero only for *known-equal* values, never for TOP.
    assert abs_sub(rsp, rsp) == Const(0)
    assert abs_sub(TOP, TOP) is TOP


def test_abs_binop_mirrors_expr_folds():
    rax = InitReg(int(Reg.RAX))
    assert abs_binop("xor", rax, rax) == Const(0)
    assert abs_binop("xor", TOP, TOP) is TOP  # singleton equality is not a fold
    assert abs_binop("and", rax, rax) == rax
    assert abs_binop("or", Const(0xF0), Const(0x0F)) == Const(0xFF)
    assert abs_binop("udiv", Const(5), Const(0)) is TOP
    assert abs_shift("shl", Const(1), 4) == Const(16)
    assert abs_shift("shl", rax, 0) == rax


def test_const_masking_wraps_to_64_bits():
    assert Const(1 << 64) == Const(0)
    assert abs_add(Const((1 << 64) - 1), Const(1)) == Const(0)


# ---------------------------------------------------------------------------
# Tribool
# ---------------------------------------------------------------------------


def test_tribool_kleene_laws():
    t, f, u = Tribool.TRUE, Tribool.FALSE, Tribool.UNKNOWN
    assert (t & u) is u and (f & u) is f
    assert (t | u) is t and (f | u) is u
    assert (~u) is u and (~t) is f
    assert (t ^ f) is t and (t ^ u) is u
    assert t.definite and f.definite and not u.definite
    assert Tribool.of(1 < 2) is t


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
    graph = DecodeGraph(code, 0x400000)
    return WindowAnalyzer(graph, max_insns=max_insns).summarize(0x400000)


def test_stack_delta_plain_ret():
    s = _summarize("ret")
    assert s.reaches_transfer and s.ends == frozenset({EndKind.RET})
    assert s.known_stack_delta == 8
    assert s.min_insns == 1 and not s.conditional


def test_stack_delta_through_push_pop_and_add_rsp():
    s = _summarize("push rax\npop rbx\nadd rsp, 24\nret")
    # -8 (push) +8 (pop) +24 (add) +8 (ret)
    assert s.known_stack_delta == 32
    assert Reg.RBX in s.clobbered
    assert -8 in s.stack_write_offsets


def test_stack_delta_unknown_after_pop_rsp():
    s = _summarize("pop rsp\nret")
    assert s.stack_delta is TOP and s.known_stack_delta is None


def test_resolved_branch_does_not_fork():
    # cmp rax, rax folds: je is statically taken, mirroring the symbolic
    # executor, so only the taken side is explored.
    s = _summarize(
        """
        cmp rax, rax
        je out
        hlt
        out: ret
        """
    )
    assert s.reaches_transfer and not s.conditional
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


def test_unreachable_window_is_culled():
    code = assemble("mov rax, 1\nhlt", base_addr=0x400000)
    graph = DecodeGraph(code, 0x400000)
    analyzer = WindowAnalyzer(graph, max_insns=8)
    assert not analyzer.reaches_transfer(0x400000)
    assert not analyzer.summarize(0x400000).usable


def test_budget_bounds_reachability():
    body = "\n".join("mov rax, 1" for _ in range(6)) + "\nret"
    code = assemble(body, base_addr=0x400000)
    graph = DecodeGraph(code, 0x400000)
    assert WindowAnalyzer(graph, max_insns=7).reaches_transfer(0x400000)
    assert not WindowAnalyzer(graph, max_insns=6).reaches_transfer(0x400000)


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
