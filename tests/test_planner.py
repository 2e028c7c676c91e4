"""Tests for the partial-order planner on hand-crafted gadget images.

Every successful payload here is *executed in the emulator* and must
raise the goal syscall with the planned arguments — no paper-tiger
chains."""


import functools
from dataclasses import replace

from repro.bench.harness import BENCH_EXTRACTION, BENCH_PLANNER, build
from repro.binfmt import make_image
from repro.emulator import Sys
from repro.isa import assemble_unit
from repro.planner import (
    GadgetPlanner,
    PlannerConfig,
    execve_goal,
    find_bytes_in_image,
    mmap_goal,
    mprotect_goal,
    resolve_goal,
)
from repro.pipeline import run_pipeline
from repro.planner.goals import standard_goals
from repro.planner.library import GadgetLibrary
from repro.planner.search import SearchStats, search_plans


def image_for(source, data=b""):
    unit = assemble_unit(source, base_addr=0x400000)
    return make_image(unit.code, data=data, symbols=dict(unit.labels))


def plan_on(source, goals=None, data=b"", **planner_kwargs):
    image = image_for(source, data=data)
    planner = GadgetPlanner(
        image,
        planner=PlannerConfig(**planner_kwargs) if planner_kwargs else None,
    )
    return planner.run(goals=goals), image


RICH_GADGETS = """
    hlt                 ; padding so gadgets are not at the entry point
g_pop_rax:
    pop rax
    ret
g_pop_rdi:
    pop rdi
    ret
g_pop_rsi:
    pop rsi
    ret
g_pop_rdx:
    pop rdx
    ret
g_write:
    mov [rdi+0], rsi
    ret
g_syscall:
    syscall
    ret
"""

#: rdi is only settable through the connector ``mov rdi, r12; call r15``.
CONNECTOR_GADGETS = """
    hlt
g_pop_r12:
    pop r12
    ret
g_pop_r15:
    pop r15
    ret
g_pop_rax:
    pop rax
    ret
g_pop_rsi:
    pop rsi
    ret
g_pop_rdx:
    pop rdx
    ret
g_connector:
    mov rdi, r12
    call r15
g_syscall:
    syscall
    ret
"""

#: ``pop rsi; pop r15`` also overwrites the connector's call target.
THREATENED_CONNECTOR = CONNECTOR_GADGETS.replace(
    "g_pop_rsi:\n    pop rsi\n", "g_pop_rsi:\n    pop rsi\n    pop r15\n"
)


def test_mprotect_chain_found_and_validated():
    report, image = plan_on(RICH_GADGETS, goals=[mprotect_goal(addr=0x600000)])
    assert report.per_goal["mprotect"] >= 1
    payload = report.payloads[0]
    assert payload.validated
    assert payload.event.number == Sys.MPROTECT
    assert payload.event.addr == 0x600000
    assert payload.event.prot == 7


def test_mmap_chain():
    report, _ = plan_on(RICH_GADGETS, goals=[mmap_goal()])
    assert report.per_goal["mmap"] >= 1
    assert all(p.validated for p in report.payloads)


def test_execve_chain_plants_bin_sh():
    """No "/bin/sh" in the binary: the planner must write it to scratch
    with the write-what-where gadget, then call execve."""
    report, image = plan_on(RICH_GADGETS, goals=[execve_goal()])
    assert report.per_goal["execve"] >= 1
    payload = report.payloads[0]
    assert payload.validated
    assert payload.event.is_shell_spawn()
    # The chain must include the memory-write gadget.
    assert any(g.has_side_memory_writes for g in payload.chain)


def test_execve_uses_existing_string_when_present():
    data = b"/bin/sh\x00"
    report, image = plan_on(RICH_GADGETS, goals=[execve_goal()], data=data)
    assert report.per_goal["execve"] >= 1
    payload = report.payloads[0]
    assert payload.validated
    # No write gadget needed: the string already lives in .data.
    assert not any(g.has_side_memory_writes for g in payload.chain)


def test_no_syscall_gadget_no_payloads():
    report, _ = plan_on("pop rax\nret\npop rdi\nret")
    assert report.total_payloads == 0


def test_search_span_explains_the_search():
    """``plan.search`` carries the search's counters: provide requests
    and memo hits, threat-pair checks, pushes and dead ends by reason;
    each validation run is an ``emulate.run`` span with its steps."""
    from repro.obs import Tracer, tracing

    tracer = Tracer()
    with tracing(tracer):
        report, _ = plan_on(RICH_GADGETS, goals=[execve_goal()])
    spans = [span for root in tracer.roots for span, _ in root.walk()]
    (search,) = [s for s in spans if s.name == "plan.search"]
    stats = report.search_stats["execve"]
    counters = search.counters
    assert counters["provides"] == stats.provides > counters["provide_hits"] > 0
    assert counters["threat_checks"] == stats.threat_checks > 0
    assert counters["pushes"] == stats.pushes >= stats.seeds + stats.plans_emitted
    runs = [s for s in spans if s.name == "emulate.run"]
    assert len(runs) == report.total_payloads > 0
    assert all(run.counters["steps"] > 0 for run in runs)


def test_dead_ends_are_counted_by_reason():
    report, _ = plan_on(RICH_GADGETS, goals=[mprotect_goal(addr=0x600000)], max_steps=4)
    stats = report.search_stats["mprotect"]
    assert stats.dead_step_cap == stats.dead_ends == 1
    # Nothing overwrites rdi, so the only seed is dropped when made.
    report, _ = plan_on("pop rax\nret\nsyscall\nret", goals=[mprotect_goal(addr=0x600000)])
    stats = report.search_stats["mprotect"]
    assert stats.pruned_no_provider == stats.dead_ends == 1
    assert stats.dead_no_provider == stats.nodes_expanded == stats.pushes == 0


def test_a_condition_no_gadget_can_provide_is_dropped_when_made():
    """A plan waiting on a register no gadget overwrites, or on memory
    no gadget writes, is never queued."""
    no_rdx = RICH_GADGETS.replace("g_pop_rdx:\n    pop rdx\n    ret\n", "")
    report, _ = plan_on(no_rdx, goals=[mprotect_goal(addr=0x600000)])
    stats = report.search_stats["mprotect"]
    assert report.per_goal["mprotect"] == 0
    assert stats.pruned_no_provider == stats.seeds == stats.dead_ends == 1
    assert stats.nodes_expanded == 0
    no_writer = RICH_GADGETS.replace("g_write:\n    mov [rdi+0], rsi\n    ret\n", "")
    report, _ = plan_on(no_writer, goals=[execve_goal()])
    stats = report.search_stats["execve"]
    assert report.per_goal["execve"] == 0
    assert stats.pruned_no_provider == stats.seeds == stats.dead_ends == 1


def test_a_connector_ordered_before_another_step_is_dropped_when_made():
    """``pop rsi; pop r15`` threatens the r15 link into the connector,
    and demotion orders the connector before it: those plans could
    never put the connector right before the goal, so they are dropped
    instead of emitted, and the one plan left linearizes."""
    report, _ = plan_on(THREATENED_CONNECTOR, goals=[mprotect_goal(addr=0x600000)])
    stats = report.search_stats["mprotect"]
    assert report.per_goal["mprotect"] == stats.plans_emitted == 1
    assert stats.pruned_connector == stats.dead_ends == 2


def test_nfl_trace_prints_the_prune_and_solver_counters(tmp_path, capsys):
    """``plan.search`` carries both prune counters and ``solver_checks``
    (the solver queries the search asked), and ``nfl trace`` prints them."""
    from repro.cli import main
    from repro.obs import Tracer, tracing

    # rdx only through a gadget guarded by rcx == 0: one solver query.
    source = THREATENED_CONNECTOR.replace(
        "g_pop_rdx:\n    pop rdx\n    ret\n",
        "g_pop_rcx:\n    pop rcx\n    ret\n"
        "g_cond:\n    pop rdx\n    cmp rcx, 0\n    jne bad\n    ret\nbad:\n    hlt\n",
    )
    tracer = Tracer()
    with tracing(tracer):
        report, _ = plan_on(source, goals=[mprotect_goal(addr=0x600000)])
    stats = report.search_stats["mprotect"]
    assert stats.pruned_connector == 2 and stats.solver_checks == 1
    trace = tmp_path / "plan.jsonl"
    trace.write_text("\n".join(tracer.to_lines()) + "\n")
    assert main(["trace", str(trace)]) == 0
    (line,) = [ln for ln in capsys.readouterr().out.splitlines() if "plan.search" in ln]
    for name in ("pruned_connector", "pruned_no_provider", "solver_checks"):
        assert f" {name}={getattr(stats, name)}" in line


#: The cold images of the benchmark's cold-sweep workload.
COLD_IMAGES = ("binary_search/none", "netperf/none", "string_ops/llvm_obf", "bubble_sort/tigress")


@functools.lru_cache(maxsize=None)
def bench_searches(key, max_nodes):
    """Each standard goal's (stats, complete plans) on a benchmark image,
    searched as ``GadgetPlanner.run`` searches them at the benchmark's
    planner budgets, except ``max_nodes``."""
    name, obfuscation = key.split("/")
    image = build(name, obfuscation).image
    planner = GadgetPlanner(image, extraction=BENCH_EXTRACTION)
    _, pool = run_pipeline(image, BENCH_EXTRACTION, solver=planner.solver)
    library = GadgetLibrary.build(pool)
    config = replace(BENCH_PLANNER, max_nodes=max_nodes)
    out = {}
    for goal in standard_goals(image):
        stats = SearchStats()
        plans = search_plans(
            library,
            resolve_goal(image, goal),
            solver=planner.solver,
            config=config,
            stats=stats,
            locator=planner._word_locator,
        )
        out[goal.name] = (stats, plans)
    return out


def test_every_complete_plan_linearizes_on_the_bench_images():
    """A complete plan always has a valid linearization: on the cold
    images at the benchmark budget, and on bubble_sort/tigress with room
    for its mprotect and mmap searches to exhaust their spaces."""
    runs = [(key, BENCH_PLANNER.max_nodes) for key in COLD_IMAGES]
    runs.append(("bubble_sort/tigress", 20_000))
    for key, max_nodes in runs:
        for goal, (stats, plans) in bench_searches(key, max_nodes).items():
            assert stats.plans_emitted == len(plans)
            assert all(plan.linearize() is not None for plan in plans), (key, goal)


def test_searches_with_no_plan_end_early_on_the_bench_images():
    """Searches that no plan can finish run out of queued plans in a few
    dozen nodes instead of spending the benchmark's node budget."""
    for key, goal in (
        ("string_ops/llvm_obf", "execve"),
        ("string_ops/llvm_obf", "mmap"),
        ("bubble_sort/tigress", "execve"),
    ):
        stats, plans = bench_searches(key, BENCH_PLANNER.max_nodes)[goal]
        assert plans == [] and stats.nodes_expanded < BENCH_PLANNER.max_nodes // 20, (key, goal)


def test_missing_register_setter_blocks_goal():
    # No way to set rdx → mprotect (needs rdx=7) must fail...
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
    g4:
        syscall
        ret
    """
    report, _ = plan_on(source, goals=[mprotect_goal(addr=0x600000)])
    assert report.per_goal["mprotect"] == 0


def test_value_through_register_move():
    """rdx can only be set via rax: pop rax; ret + mov rdx, rax; ret —
    the regression machinery must chain them (the paper's Fig. 6 point:
    a missing pop rdx; ret is not fatal)."""
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
    g5:
        syscall
        ret
    """
    report, _ = plan_on(source, goals=[mprotect_goal(addr=0x600000)])
    assert report.per_goal["mprotect"] >= 1
    payload = report.payloads[0]
    assert payload.validated
    mnemonic_chains = ["/".join(i.info.mnemonic for i in g.insns) for g in payload.chain]
    assert any("mov" in c for c in mnemonic_chains)


def test_arithmetic_register_derivation():
    """rax must be derived: pop rbx; ret + mov rax, rbx; add rax, 1; ret."""
    source = """
        hlt
    g1:
        pop rbx
        ret
    g2:
        mov rax, rbx
        add rax, 1
        ret
    g3:
        pop rdi
        ret
    g4:
        pop rsi
        ret
    g5:
        pop rdx
        ret
    g6:
        syscall
        ret
    """
    report, _ = plan_on(source, goals=[mprotect_goal(addr=0x600000)])
    assert report.per_goal["mprotect"] >= 1
    assert report.payloads[0].validated


def test_conditional_gadget_in_chain():
    """The pop rdx path is guarded by a conditional jump that requires
    rcx == 0 — the planner must discharge the precondition (Fig. 4)."""
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
    report, _ = plan_on(source, goals=[mprotect_goal(addr=0x600000)], max_nodes=8000)
    assert report.per_goal["mprotect"] >= 1
    payload = report.payloads[0]
    assert payload.validated
    assert any(g.conditional_jumps > 0 for g in payload.chain)


def test_jmp_reg_gadget_with_controlled_target():
    """A gadget ending `jmp rbx` where rbx was just popped in-gadget:
    the planner must bind the popped word to the next gadget address."""
    source = """
        hlt
    g1:
        pop rdi
        pop rbx
        jmp rbx
    g2:
        pop rax
        ret
    g3:
        pop rsi
        ret
    g4:
        pop rdx
        ret
    g5:
        syscall
        ret
    """
    report, _ = plan_on(source, goals=[mprotect_goal(addr=0x600000)], max_nodes=8000)
    assert report.per_goal["mprotect"] >= 1
    # At least one validated payload; ideally one through the jmp gadget.
    assert any(p.validated for p in report.payloads)


def test_multiple_plans_emitted():
    """Gadget-Planner "keeps searching for more diverse gadget chains":
    with two distinct rdi setters, expect >1 mprotect payload."""
    # A semantically distinct second rdi setter (different clobbers &
    # stack shape) — identical variants are merged by subsumption.
    source = RICH_GADGETS + """
g_pop_rdi_2:
    pop rdi
    pop rcx
    ret
"""
    report, _ = plan_on(source, goals=[mprotect_goal(addr=0x600000)], max_plans=8)
    assert report.per_goal["mprotect"] >= 2


def test_payload_words_contain_goal_values():
    report, _ = plan_on(RICH_GADGETS, goals=[mprotect_goal(addr=0x600000)])
    payload = report.payloads[0]
    assert 0x600000 in payload.words
    assert 10 in payload.words  # SYS_mprotect
    assert 7 in payload.words


def test_report_timings_populated():
    report, _ = plan_on(RICH_GADGETS, goals=[mmap_goal()])
    t = report.timings
    assert t.extraction > 0
    assert t.subsumption > 0
    assert t.planning >= 0
    assert t.total > 0


def test_subsumption_reduces_pool():
    report, _ = plan_on(RICH_GADGETS)
    assert report.gadgets_after_subsumption < report.gadgets_total


def test_resolve_goal_pointer_modes():
    image = image_for(RICH_GADGETS, data=b"/bin/sh\x00")
    resolved = resolve_goal(image, execve_goal())
    assert not resolved.memory_goals  # found in image
    image2 = image_for(RICH_GADGETS)
    resolved2 = resolve_goal(image2, execve_goal())
    assert resolved2.memory_goals
    assert resolved2.memory_goals[0].data == b"/bin/sh\x00"
    words = resolved2.memory_goals[0].words()
    assert words[0][1] == int.from_bytes(b"/bin/sh\x00", "little")


def test_describe_chain_renders():
    report, _ = plan_on(RICH_GADGETS, goals=[mmap_goal()])
    text = report.payloads[0].describe()
    assert "payload[mmap]" in text
    assert "goal:" in text


def test_connector_wires_an_indirect_call_into_the_goal():
    """rdi is only settable through ``mov rdi, r12; call r15``: the
    connector's call target regresses to ``r15 == syscall gadget`` and
    the connector runs immediately before the goal."""
    unit = assemble_unit(CONNECTOR_GADGETS, base_addr=0x400000)
    report, _ = plan_on(CONNECTOR_GADGETS, goals=[mprotect_goal(addr=0x600000)])
    assert report.per_goal["mprotect"] == 1
    payload = report.payloads[0]
    assert payload.validated
    assert [g.location for g in payload.chain[-2:]] == [
        unit.labels["g_connector"],
        unit.labels["g_syscall"],
    ]


def test_find_bytes_in_image_prefers_text():
    """Immutable text wins over writable data even when the section
    list names .data first."""
    needle = b"\x90\xde\xad\xbe\xef\x90\x13\x37"
    unit = assemble_unit("hlt\n", base_addr=0x400000)
    image = make_image(unit.code + needle, data=needle, symbols=dict(unit.labels))
    image.sections.reverse()
    assert image.sections[0].name == ".data"
    assert find_bytes_in_image(image, needle) == image.text.addr + len(unit.code)
