"""Tests for the composable mitigation models (``repro.defenses``).

Three layers under test: policy parsing/registry, the gadget-survival
filter over extracted pools, and concrete enforcement in the emulator
(CFI, shadow stack, W^X vetoes, ASLR knowledge).  The planner
integration tests assert the paper-shaped outcome: a chain that
validates unprotected still validates under coarse CFI but dies under
fine CFI — and disabling every defense reproduces the historical
planner behaviour exactly.
"""

import json
import time

import pytest

from repro.binfmt import make_image
from repro.binfmt.image import STACK_TOP
from repro.defenses import (
    ASLR_SLIDE,
    CFIMode,
    CFITargets,
    DefensePolicy,
    DefenseViolation,
    EnforcedRun,
    KIND_CALL,
    KIND_JUMP,
    KIND_RET,
    POLICIES,
    PolicyEnforcer,
    SurvivalCensus,
    defense_census,
    enforced_emulator,
    filter_pool,
    format_defense_census,
    gadget_survives,
    parse_policy,
    shared_cfi_targets,
    validate_defense_matrix,
    validate_payload_with_policy,
)
from repro.emulator import Emulator, Sys
from repro.gadgets.extract import extract_gadgets
from repro.gadgets.subsumption import deduplicate_gadgets
from repro.isa import Reg, assemble_unit
from repro.obs import Tracer, tracing
from repro.planner import (
    AttackPayload,
    GadgetPlanner,
    PlannerConfig,
    mmap_goal,
    mprotect_goal,
    resolve_goal,
    validate_payload,
)
from repro.symex.executor import EndKind


def image_for(source, data=b""):
    unit = assemble_unit(source, base_addr=0x400000)
    return make_image(unit.code, data=data, symbols=dict(unit.labels))


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


@pytest.fixture(scope="module")
def rich_image():
    return image_for(RICH_GADGETS)


@pytest.fixture(scope="module")
def rich_pool(rich_image):
    return deduplicate_gadgets(extract_gadgets(rich_image))


# -- policies ----------------------------------------------------------------


def test_policy_registry_names_match():
    for name, policy in POLICIES.items():
        assert policy.name == name


def test_parse_policy_known_names_return_registry_objects():
    assert parse_policy("coarse_cfi") is POLICIES["coarse_cfi"]
    assert parse_policy("none") is POLICIES["none"]


def test_parse_policy_combo_merges_strictest():
    combo = parse_policy("coarse_cfi+wx+aslr_leak")
    assert combo.name == "coarse_cfi+wx+aslr_leak"
    assert combo.cfi is CFIMode.COARSE
    assert combo.wx and combo.aslr
    assert combo.leak_budget == 1
    # fine overrides coarse regardless of order
    assert parse_policy("coarse_cfi+fine_cfi").cfi is CFIMode.FINE


def test_parse_policy_rejects_unknown():
    with pytest.raises(ValueError):
        parse_policy("coarse_cfi+bogus")
    with pytest.raises(ValueError):
        parse_policy("")


def test_enabled_property():
    assert not POLICIES["none"].enabled
    assert not DefensePolicy(name="leaky", leak_budget=3).enabled
    for name in ("coarse_cfi", "fine_cfi", "shadow_stack", "wx", "aslr", "full"):
        assert POLICIES[name].enabled, name


def test_describe_mentions_every_knob():
    text = POLICIES["full"].describe()
    assert "cfi=coarse" in text and "shadow-stack" in text
    assert "w^x" in text and "aslr(leaks=1)" in text


# -- CFI target sets ---------------------------------------------------------


CALLER = """
    mov rax, 1
    call fn
after_call:
    hlt
fn:
    ret
"""


def test_cfi_targets_from_cfg():
    image = image_for(CALLER)
    targets = CFITargets.build(image)
    after = image.symbols["after_call"]
    fn = image.symbols["fn"]
    assert after in targets.return_sites
    assert after in targets.aligned
    assert fn in targets.entries or image.entry in targets.entries
    # Fine CFI: rets only to return sites, jumps/calls only to entries.
    assert targets.valid_target(CFIMode.FINE, KIND_RET, after)
    assert not targets.valid_target(CFIMode.FINE, KIND_RET, fn)
    # An aligned boundary with no label is no fine-CFI jump target
    # (in-text symbols count as function entries, so skip those).
    aligned_only = targets.aligned - targets.entries - targets.return_sites
    assert aligned_only, "expected an unlabeled instruction boundary"
    for addr in aligned_only:
        assert not targets.valid_target(CFIMode.FINE, KIND_JUMP, addr)
        assert targets.valid_target(CFIMode.COARSE, KIND_JUMP, addr)
    # Coarse CFI: any recovered boundary, for any kind.
    assert targets.valid_target(CFIMode.COARSE, KIND_RET, fn)
    assert targets.valid_target(CFIMode.COARSE, KIND_CALL, after)
    # Off-image (stack/heap) targets are never valid.
    for mode in (CFIMode.COARSE, CFIMode.FINE):
        assert not targets.valid_target(mode, KIND_JUMP, 0x7FFF0000)
    assert targets.valid_target(CFIMode.OFF, KIND_JUMP, 0x7FFF0000)


def test_shared_cfi_targets_are_built_once_per_image():
    image = image_for(CALLER)
    shared = shared_cfi_targets(image.to_bytes())
    assert shared == CFITargets.build(image)
    assert shared_cfi_targets(image.to_bytes()) is shared
    assert PolicyEnforcer(POLICIES["fine_cfi"], image=image).targets is shared


def test_planner_reads_cfi_targets_from_the_shared_memo(rich_image):
    """Every CFI request after the first on one image is a memo hit,
    which the ``plan.defense_filter`` span counts."""

    def filter_span_counters(policy):
        tracer = Tracer()
        with tracing(tracer):
            run_planner(rich_image, POLICIES[policy])
        (root,) = tracer.roots
        (span,) = [s for s, _ in root.walk() if s.name == "plan.defense_filter"]
        return span.counters

    shared_cfi_targets.cache_clear()
    assert filter_span_counters("coarse_cfi")["cfi_memo_hits"] == 0
    assert filter_span_counters("fine_cfi")["cfi_memo_hits"] == 1
    assert "cfi_memo_hits" not in filter_span_counters("shadow_stack")


# -- survival filtering ------------------------------------------------------


def test_shadow_stack_kills_ret_gadgets(rich_image, rich_pool):
    census = SurvivalCensus(policy="shadow_stack")
    survivors = filter_pool(POLICIES["shadow_stack"], rich_pool, census=census)
    assert all(r.end is not EndKind.RET for r in survivors)
    assert census.killed_shadow_stack == sum(
        1 for r in rich_pool if r.end is EndKind.RET
    )
    assert census.pool_size == len(rich_pool)
    assert census.surviving == len(survivors)
    # The syscall gadget is the JOP/syscall residue that must survive.
    assert any(r.end is EndKind.SYSCALL for r in survivors)


def test_gadget_survives_requires_targets_for_cfi(rich_pool):
    with pytest.raises(ValueError):
        gadget_survives(POLICIES["coarse_cfi"], rich_pool[0])


def test_coarse_cfi_keeps_aligned_gadgets(rich_image, rich_pool):
    targets = CFITargets.build(rich_image)
    survivors = filter_pool(
        POLICIES["coarse_cfi"], rich_pool, targets=targets
    )
    assert survivors, "hand-written aligned gadgets must survive coarse CFI"
    assert all(r.location in targets.aligned for r in survivors)


def test_noop_policies_return_pool_unchanged(rich_pool):
    for name in ("none", "wx", "aslr", "aslr_leak"):
        out = filter_pool(POLICIES[name], rich_pool)
        assert out == rich_pool
    # Disabled policy: literally the same list object (pure fast path).
    assert filter_pool(POLICIES["none"], rich_pool) is rich_pool


# -- enforcement: shadow stack and CFI ---------------------------------------


def test_shadow_stack_allows_matched_call_ret():
    image = image_for(CALLER)
    emu, enforcer = enforced_emulator(image, POLICIES["shadow_stack"])
    emu.run()
    assert enforcer.shadow == []


DIVERTED_RET = """
    mov rax, target
    push rax
    ret
target:
    hlt
"""


def test_shadow_stack_kills_pushed_ret():
    image = image_for(DIVERTED_RET)
    emu, _ = enforced_emulator(image, POLICIES["shadow_stack"])
    with pytest.raises(DefenseViolation) as excinfo:
        emu.run()
    assert excinfo.value.kind == "shadow_stack"


def test_fine_cfi_kills_ret_to_non_return_site():
    image = image_for(DIVERTED_RET)
    emu, _ = enforced_emulator(image, POLICIES["fine_cfi"])
    with pytest.raises(DefenseViolation) as excinfo:
        emu.run()
    assert excinfo.value.kind == "cfi"


def test_coarse_cfi_allows_aligned_pushed_ret():
    # target is a recovered boundary: coarse CFI accepts what fine kills.
    image = image_for(DIVERTED_RET)
    emu, enforcer = enforced_emulator(image, POLICIES["coarse_cfi"])
    emu.run()
    assert enforcer.checks >= 1


JMP_OFF_IMAGE = """
    mov rax, 0x7ffe0000
    jmp rax
"""


def test_cfi_kills_indirect_jump_off_image():
    image = image_for(JMP_OFF_IMAGE)
    for policy in (POLICIES["coarse_cfi"], POLICIES["fine_cfi"]):
        emu, _ = enforced_emulator(image, policy)
        with pytest.raises(DefenseViolation):
            emu.run()


def test_cfi_checks_call_rsp_where_the_emulator_lands():
    """``call rsp`` pushes first and then reads rsp, so it lands at
    ``rsp - 8``; the enforcer must check that address, not the old rsp."""
    emu = Emulator(image_for("call rsp\nhlt"))
    rsp0 = emu.cpu.get(Reg.RSP)
    targets = CFITargets(
        aligned=frozenset({rsp0 - 8}), return_sites=frozenset(), entries=frozenset()
    )
    enforcer = PolicyEnforcer(POLICIES["coarse_cfi"], targets)
    enforcer.step_hook(emu, emu.fetch())
    assert enforcer.checks == 1


# -- enforcement: W^X --------------------------------------------------------


WX_MPROTECT = """
    mov rax, 10         ; mprotect(.data, 0x1000, R|W|X)
    mov rdi, 0x600000
    mov rsi, 0x1000
    mov rdx, 7
    syscall
    hlt
"""


def test_wx_vetoes_mprotect_exec_on_writable_pages():
    image = image_for(WX_MPROTECT, data=b"\x00" * 16)
    emu, enforcer = enforced_emulator(image, POLICIES["wx"], stop_on_attack=False)
    emu.run()
    assert len(enforcer.denied_syscalls) == 1
    assert enforcer.denied_syscalls[0][0] is Sys.MPROTECT
    assert emu.cpu.get(Reg.RAX) == (-13) & ((1 << 64) - 1)  # -EACCES
    assert emu.syscalls.events == [], "vetoed call never becomes an event"


def test_wx_allows_read_exec_mprotect_on_text():
    source = """
        mov rax, 10     ; mprotect(.text, 0x1000, R|X) — no W anywhere
        mov rdi, 0x400000
        mov rsi, 0x1000
        mov rdx, 5
        syscall
        hlt
    """
    image = image_for(source)
    emu, enforcer = enforced_emulator(image, POLICIES["wx"], stop_on_attack=False)
    emu.run()
    assert enforcer.denied_syscalls == []
    assert len(emu.syscalls.events) == 1


WX_MMAP = """
    mov rax, 9          ; mmap(0, 0x1000, R|W|X, ...)
    mov rdi, 0
    mov rsi, 0x1000
    mov rdx, 7
    syscall
    hlt
"""


def _mprotect_program(addr, length, prot=5):
    return image_for(
        f"""
        mov rax, 10
        mov rdi, {addr:#x}
        mov rsi, {length:#x}
        mov rdx, {prot}
        syscall
        hlt
        """,
        data=b"\x00" * 16,
    )


def test_wx_check_on_huge_unmapped_range_returns_promptly():
    # The range starts just above the stack and holds no mapped page:
    # nothing to deny, and the check must not walk 2**48 pages.
    image = _mprotect_program(STACK_TOP, 1 << 60)
    emu, enforcer = enforced_emulator(image, POLICIES["wx"], stop_on_attack=False)
    started = time.perf_counter()
    emu.run()
    assert time.perf_counter() - started < 5.0
    assert enforcer.denied_syscalls == []
    assert len(emu.syscalls.events) == 1


def test_wx_denies_huge_range_covering_a_writable_page():
    # From .text over the unmapped gap into writable .data and the stack.
    image = _mprotect_program(0x400000, 1 << 60)
    emu, enforcer = enforced_emulator(image, POLICIES["wx"], stop_on_attack=False)
    emu.run()
    assert len(enforcer.denied_syscalls) == 1
    assert emu.syscalls.events == []


def test_wx_mmap_bypass_allowed_unless_strict():
    image = image_for(WX_MMAP)
    emu, enforcer = enforced_emulator(image, POLICIES["wx"], stop_on_attack=False)
    emu.run()
    assert enforcer.denied_syscalls == [], "plain wx lets fresh W|X mmap through"
    from repro.emulator.syscalls import MMAP_BASE

    assert emu.cpu.get(Reg.RAX) == MMAP_BASE


def test_wx_strict_mmap_denies_wx_mapping():
    image = image_for(WX_MMAP)
    emu, enforcer = enforced_emulator(
        image, POLICIES["wx_strict"], stop_on_attack=False
    )
    emu.run()
    assert len(enforcer.denied_syscalls) == 1
    assert emu.cpu.get(Reg.RAX) == (-13) & ((1 << 64) - 1)


# -- planner integration ------------------------------------------------------


def run_planner(image, policy):
    planner = GadgetPlanner(
        image,
        planner=PlannerConfig(max_plans=4),
        defense=policy,
    )
    return planner.run(goals=[mprotect_goal(addr=0x600000)])


def test_planner_unprotected_baseline(rich_image):
    report = run_planner(rich_image, None)
    assert report.per_goal["mprotect"] >= 1
    assert report.defense_policy is None
    assert report.gadgets_surviving is None


def test_planner_coarse_cfi_still_succeeds(rich_image):
    report = run_planner(rich_image, POLICIES["coarse_cfi"])
    assert report.defense_policy == "coarse_cfi"
    assert report.per_goal["mprotect"] >= 1
    assert report.gadgets_surviving and report.gadgets_surviving > 0
    assert all(p.validated for p in report.payloads)


def test_planner_fine_cfi_blocks_the_chain(rich_image):
    report = run_planner(rich_image, POLICIES["fine_cfi"])
    assert report.per_goal["mprotect"] == 0
    assert report.blocked_by_defense >= 1


def test_planner_aslr_without_leak_blocks(rich_image):
    report = run_planner(rich_image, POLICIES["aslr"])
    assert report.per_goal["mprotect"] == 0
    assert report.blocked_by_defense >= 1


def test_planner_aslr_with_leak_budget_succeeds(rich_image):
    report = run_planner(rich_image, POLICIES["aslr_leak"])
    assert report.per_goal["mprotect"] >= 1
    assert report.leaks_used >= 1
    payload = report.payloads[0]
    assert payload.leak_steps == 1
    assert "leak" in payload.describe()


def test_planner_disabled_defense_is_byte_identical(rich_image):
    baseline = run_planner(rich_image, None)
    disabled = run_planner(rich_image, POLICIES["none"])
    assert disabled.defense_policy is None
    assert disabled.per_goal == baseline.per_goal
    assert [p.words for p in disabled.payloads] == [
        p.words for p in baseline.payloads
    ]
    assert [p.entry_address for p in disabled.payloads] == [
        p.entry_address for p in baseline.payloads
    ]


def test_enforced_validation_matches_unprotected_run(rich_image):
    """Enforcement with no defense delivers exactly like the
    unprotected validator — same threat model, same verdict, same
    syscall — on every planner payload, on one whose entry is unmapped
    and on one aimed at the wrong goal."""
    report = run_planner(rich_image, None)
    assert report.payloads
    resolved = resolve_goal(rich_image, mprotect_goal(addr=0x600000))
    wrong_goal = resolve_goal(rich_image, mmap_goal(length=7))
    first = report.payloads[0]
    cases = [(p, resolved, "attack") for p in report.payloads] + [
        (
            AttackPayload("mprotect", list(first.words), [], entry_address=0x10),
            resolved,
            "crash",
        ),
        (first, wrong_goal, "no_attack"),
    ]
    for payload, goal, outcome in cases:
        run = validate_payload_with_policy(
            rich_image, payload, goal, POLICIES["none"]
        )
        assert run.outcome == outcome
        payload.event = None
        assert validate_payload(rich_image, payload, goal) is run.ok
        assert payload.event == run.event
        assert (run.event is None) == (outcome == "crash")
    run_wx = validate_payload_with_policy(
        rich_image, first, resolved, POLICIES["wx"]
    )
    assert not run_wx.ok
    assert run_wx.denied_syscalls >= 1


def _enforce_counters(image, payload, resolved, policy):
    tracer = Tracer()
    with tracing(tracer):
        run = validate_payload_with_policy(image, payload, resolved, policy)
    (enforce,) = [sp for sp, _ in tracer.iter_spans() if sp.name == "defense.enforce"]
    return run, enforce.counters


def test_crashes_before_diversion_apply_no_slide_and_count_no_crash(rich_image):
    report = run_planner(rich_image, None)
    payload = report.payloads[0]
    resolved = resolve_goal(rich_image, mprotect_goal(addr=0x600000))
    # Words past the stack headroom never get planted.
    oversized = AttackPayload(
        "mprotect", [payload.entry_address] * 0x4001, [], payload.entry_address
    )
    # A self-modifying decoder stub that faults never reaches the payload.
    crashing_stub = image_for(RICH_GADGETS + "__sm_start:\n    mov rax, 0x10\n    jmp rax\n")
    for image, candidate in ((rich_image, oversized), (crashing_stub, payload)):
        run, counters = _enforce_counters(image, candidate, resolved, POLICIES["aslr"])
        assert run == EnforcedRun(ok=False, outcome="crash")
        assert counters == {}
    # Once diverted, a crash carries the slide and is counted.
    stray = AttackPayload("mprotect", list(payload.words), [], entry_address=0x10)
    run, counters = _enforce_counters(rich_image, stray, resolved, POLICIES["aslr"])
    assert run == EnforcedRun(ok=False, outcome="crash", slide_applied=ASLR_SLIDE)
    assert counters == {"crashes": 1}


# -- census + schema ----------------------------------------------------------


def test_defense_census_counts_and_format(rich_image):
    doc = defense_census(rich_image, ["none", "coarse_cfi", "shadow_stack"])
    assert doc["pool_size"] > 0
    rows = {row["policy"]: row for row in doc["policies"]}
    assert rows["none"]["surviving"] == doc["pool_size"]
    assert rows["shadow_stack"]["surviving"] < doc["pool_size"]
    assert rows["shadow_stack"]["killed_shadow_stack"] > 0
    table = format_defense_census(doc, title="rich")
    assert "policy" in table and "shadow_stack" in table


def test_defense_census_counts_the_extracted_pool_when_warm(tmp_path, rich_image):
    """A warm census is answered by the winnow entry alone and still
    reports the extracted count."""
    from repro.pipeline import ResultCache

    cache = ResultCache(root=tmp_path)
    cold = defense_census(rich_image, ["none", "coarse_cfi"], cache=cache)
    warm = defense_census(rich_image, ["none", "coarse_cfi"], cache=cache)
    assert warm == cold
    assert cold["gadgets_total"] == len(extract_gadgets(rich_image))


def test_validate_defense_matrix_schema():
    entry = {
        "program": "p",
        "config": "none",
        "policy": "coarse_cfi",
        "pool_size": 10,
        "surviving": 8,
        "survival_ratio": 0.8,
        "payloads": 1,
        "goals_attempted": 1,
        "goals_succeeded": 1,
        "success_rate": 1.0,
        "blocked_by_defense": 0,
        "per_goal": {"mprotect": 1},
    }
    doc = {
        "schema": "nfl-bench-defenses-v1",
        "programs": ["p"],
        "configs": ["none"],
        "policies": ["coarse_cfi"],
        "entries": [entry],
    }
    validate_defense_matrix(doc)  # no raise
    with pytest.raises(ValueError):
        validate_defense_matrix({**doc, "schema": "bogus"})
    with pytest.raises(ValueError):
        validate_defense_matrix({**doc, "entries": [{**entry, "surviving": 11}]})
    with pytest.raises(ValueError):
        validate_defense_matrix(
            {**doc, "entries": [{**entry, "policy": "unknown_thing"}]}
        )
    bad = dict(entry)
    del bad["per_goal"]
    with pytest.raises(ValueError):
        validate_defense_matrix({**doc, "entries": [bad]})


# -- CLI ----------------------------------------------------------------------


def test_cli_census_defenses(tmp_path, capsys, rich_image):
    from repro.cli import main

    binary = tmp_path / "rich.nflf"
    binary.write_bytes(rich_image.to_bytes())
    assert (
        main(
            ["census", str(binary), "--max-insns", "12",
             "--policies", "none,coarse_cfi,shadow_stack", "--no-cache"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "coarse_cfi" in out and "shadow_stack" in out and "surviving" in out


def test_cli_plan_with_defense(tmp_path, capsys, rich_image):
    from repro.cli import main

    binary = tmp_path / "rich.nflf"
    binary.write_bytes(rich_image.to_bytes())
    assert (
        main(["plan", str(binary), "--goal", "mprotect", "--defense", "coarse_cfi"])
        == 0
    )
    out = capsys.readouterr().out
    assert "defense: coarse_cfi" in out
    assert "gadgets survive" in out
    # An unparseable policy is a usage error, not a crash.
    with pytest.raises(ValueError):
        main(["plan", str(binary), "--goal", "mprotect", "--defense", "bogus"])


def test_census_json_roundtrip(rich_image):
    doc = defense_census(rich_image, ["none", "shadow_stack"])
    assert json.loads(json.dumps(doc)) == doc
