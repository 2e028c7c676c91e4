"""Tests for the three baseline tools, including the comparative
behaviours the paper's evaluation depends on."""


from repro.baselines import AngropLike, ROPGadgetLike, SGCLike
from repro.binfmt import make_image
from repro.isa import assemble_unit
from repro.planner import GadgetPlanner, execve_goal, mmap_goal, mprotect_goal


def image_for(source, data=b""):
    unit = assemble_unit(source, base_addr=0x400000)
    return make_image(unit.code, data=data, symbols=dict(unit.labels))


CLEAN_GADGETS = """
    hlt
g1:
    pop rax
    ret
g2:
    pop rdi
    ret
g3:
    pop rsi
    ret
g4:
    pop rdx
    ret
g5:
    mov [rdi+0], rsi
    ret
g6:
    syscall
    ret
"""

# The same functionality with "substituted" pop encodings angrop's
# semantics still match but ROPGadget's syntax patterns do not:
# `pop rdi` is replaced by `pop rcx; mov rdi, rcx` etc.
SUBSTITUTED_GADGETS = """
    hlt
g1:
    pop rcx
    mov rax, rcx
    ret
g2:
    pop rcx
    mov rdi, rcx
    ret
g3:
    pop rcx
    mov rsi, rcx
    ret
g4:
    pop rcx
    mov rdx, rcx
    ret
g6:
    syscall
    ret
"""


def test_ropgadget_finds_chain_on_clean_image():
    report = ROPGadgetLike().run(image_for(CLEAN_GADGETS), goals=[mprotect_goal(0x600000)])
    assert report.per_goal["mprotect"] == 1
    assert report.payloads[0].validated


def test_ropgadget_counts_gadgets():
    report = ROPGadgetLike().run(image_for(CLEAN_GADGETS), goals=[mmap_goal()])
    assert report.gadgets_total > 0


def test_ropgadget_execve_with_write_template():
    report = ROPGadgetLike().run(image_for(CLEAN_GADGETS), goals=[execve_goal()])
    assert report.per_goal["execve"] == 1
    assert report.payloads[0].event.is_shell_spawn()


def test_ropgadget_fails_without_exact_pattern():
    """The paper: "Once a gadget in the pattern is missing, the whole
    search will fail" — semantically equivalent variants don't help."""
    report = ROPGadgetLike().run(
        image_for(SUBSTITUTED_GADGETS), goals=[mprotect_goal(0x600000)]
    )
    assert report.per_goal["mprotect"] == 0


def test_angrop_matches_substituted_semantics():
    """Angrop is semantic: pop rcx; mov rdi, rcx; ret still sets rdi."""
    report = AngropLike().run(image_for(SUBSTITUTED_GADGETS), goals=[mprotect_goal(0x600000)])
    assert report.per_goal["mprotect"] == 1
    assert report.payloads[0].validated


def test_angrop_ignores_conditional_gadgets():
    """rdx only settable through a conditional gadget → angrop fails
    where Gadget-Planner succeeds."""
    source = """
        hlt
    g1:
        pop rax
        ret
    g2:
        pop rdi
        ret
    g3:
        pop rsi
        ret
    g_pop_rcx:
        pop rcx
        ret
    g_cond:
        pop rdx
        cmp rcx, 0
        jne bad
        ret
    bad:
        hlt
    g6:
        syscall
        ret
    """
    image = image_for(source)
    angrop_report = AngropLike().run(image, goals=[mprotect_goal(0x600000)])
    assert angrop_report.per_goal["mprotect"] == 0
    gp_report = GadgetPlanner(image).run(goals=[mprotect_goal(0x600000)])
    assert gp_report.per_goal["mprotect"] >= 1


def test_angrop_writer_signature_skips_payload_word_values():
    """``pop rcx; mov [rax], rcx`` stores the payload word ``stk0``, not
    an entry register, so it is no ``mem[reg1] = reg2`` writer; angrop
    keeps the clean ``mov [rdi+0], rsi`` one."""
    source = CLEAN_GADGETS + """
g_stk_store:
    pop rcx
    mov [rax+0], rcx
    ret
"""
    report = AngropLike().run(image_for(source), goals=[execve_goal()])
    assert report.per_goal["execve"] == 1
    assert report.payloads[0].event.is_shell_spawn()


def test_sgc_solves_arithmetic_setters():
    """rax reachable only via pop rbx' + arithmetic — SGC's solver can
    use `pop rax; add rax, 1; ret`-style value equations."""
    source = """
        hlt
    g1:
        pop rax
        add rax, 1
        ret
    g2:
        pop rdi
        ret
    g3:
        pop rsi
        ret
    g4:
        pop rdx
        ret
    g6:
        syscall
        ret
    """
    report = SGCLike().run(image_for(source), goals=[mprotect_goal(0x600000)])
    assert report.per_goal["mprotect"] >= 1
    assert report.payloads[0].validated


def test_sgc_cannot_regress_through_register_moves():
    """rdx only via rax passthrough (mov rdx, rax) — SGC's selection has
    no regression, Gadget-Planner's does."""
    source = """
        hlt
    g1:
        pop rax
        ret
    g2:
        mov rdx, rax
        ret
    g3:
        pop rdi
        ret
    g4:
        pop rsi
        ret
    g6:
        syscall
        ret
    """
    image = image_for(source)
    sgc_report = SGCLike().run(image, goals=[mprotect_goal(0x600000)])
    assert sgc_report.per_goal["mprotect"] == 0
    gp_report = GadgetPlanner(image).run(goals=[mprotect_goal(0x600000)])
    assert gp_report.per_goal["mprotect"] >= 1


def test_sgc_multiple_chains():
    source = CLEAN_GADGETS + "\ng7:\n    pop rdi\n    nop\n    ret\n"
    report = SGCLike().run(image_for(source), goals=[mprotect_goal(0x600000)])
    assert report.per_goal["mprotect"] >= 2


def test_all_baselines_zero_without_syscall():
    image = image_for("pop rax\nret")
    for tool in (ROPGadgetLike(), AngropLike(), SGCLike()):
        report = tool.run(image, goals=[mmap_goal()])
        assert report.total_payloads == 0, tool.name


def test_baseline_reports_have_timings():
    report = AngropLike().run(image_for(CLEAN_GADGETS), goals=[mmap_goal()])
    assert report.finding_time > 0
    assert report.chaining_time >= 0
