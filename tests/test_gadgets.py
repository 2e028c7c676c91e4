"""Tests for gadget extraction, classification, and subsumption."""

from dataclasses import FrozenInstanceError

import pytest

from repro.binfmt import make_image
from repro.gadgets import (
    ExtractionConfig,
    JmpType,
    count_by_type,
    deduplicate_gadgets,
    extract_gadgets,
    scan_syntactic_gadgets,
    subsumes,
    total_gadgets,
)
from repro.gadgets.extract import candidate_offsets, syntactic_scan
from repro.gadgets.subsumption import SubsumptionStats
from repro.isa import Op, Reg, assemble_unit
from repro.obs import Tracer, tracing
from repro.staticanalysis import DecodeGraph
from repro.symex import bv_const, stack_sym


def image_for(source):
    unit = assemble_unit(source, base_addr=0x400000)
    return make_image(unit.code, symbols=dict(unit.labels, fn_entry=0x400000))


def extract(source, **cfg):
    image = image_for(source)
    return extract_gadgets(image, ExtractionConfig(**cfg))


def find_gadget(records, mnemonic_seq):
    """Find a record whose instruction mnemonics start with the given seq."""
    for r in records:
        names = [i.info.mnemonic for i in r.insns]
        if names[: len(mnemonic_seq)] == list(mnemonic_seq):
            return r
    return None


def test_extracts_pop_ret():
    records = extract("pop rdi\nret")
    g = find_gadget(records, ["pop", "ret"])
    assert g is not None
    assert g.jmp_type == JmpType.RET
    assert Reg.RDI in g.ctrl_regs
    assert g.post_regs[Reg.RDI] == stack_sym(0)
    assert g.stack_delta == 16


def test_records_are_frozen():
    (g,) = [r for r in extract("pop rdi\nret") if r.location == 0x400000]
    for name, value in (("gadget_id", 7), ("stack_delta", 0), ("pre_cond", [])):
        with pytest.raises(FrozenInstanceError):
            setattr(g, name, value)
    assert g.gadget_id == 0 and g.stack_delta == 16


def test_extracts_suffixes_too():
    records = extract("pop rdi\npop rsi\nret")
    assert find_gadget(records, ["pop", "pop", "ret"]) is not None
    # The bare `pop rsi; ret` suffix is its own gadget.
    two = [r for r in records if [i.info.mnemonic for i in r.insns] == ["pop", "ret"]]
    assert two


def test_conditional_gadget_produces_constrained_records():
    records = extract(
        """
        entry:
            pop rax
            cmp rdx, rbx
            jne out
            pop rbx
            ret
        out:
            ret
        """
    )
    conditional = [r for r in records if r.conditional_jumps > 0]
    assert conditional
    assert any(r.pre_cond for r in conditional)
    assert all(r.jmp_type == JmpType.CIJ for r in conditional if r.end.value == "ret")


def test_direct_jump_merging_in_extraction():
    records = extract(
        """
        entry:
            pop rdi
            jmp tail
        tail:
            ret
        """
    )
    merged = [r for r in records if r.merged_direct_jumps > 0]
    assert merged
    assert any(r.jmp_type == JmpType.UDJ for r in merged)


def test_merge_disabled_by_config():
    records = extract(
        """
        entry:
            pop rdi
            jmp tail
        tail:
            ret
        """,
        merge_direct_jumps=False,
    )
    assert all(r.merged_direct_jumps == 0 for r in records)


def test_conditional_disabled_by_config():
    records = extract(
        """
        entry:
            cmp rdx, rbx
            jne out
            ret
        out:
            ret
        """,
        include_conditional=False,
    )
    assert all(r.conditional_jumps == 0 for r in records)


def test_unaligned_gadgets_found():
    # Hide `pop rdi; ret` inside a mov imm64.
    from repro.isa import Instruction, encode

    hidden = encode(Instruction(op=Op.POP_R, dst=Reg.RDI)) + encode(Instruction(op=Op.RET))
    imm = int.from_bytes(hidden + b"\x00" * (8 - len(hidden)), "little")
    source = f"mov rax, {imm}\nret"
    records = extract(source)
    g = find_gadget(records, ["pop", "ret"])
    assert g is not None, "unaligned gadget missed"


def test_unaligned_disabled():
    from repro.isa import Instruction, encode

    hidden = encode(Instruction(op=Op.POP_R, dst=Reg.RDI)) + encode(Instruction(op=Op.RET))
    imm = int.from_bytes(hidden + b"\x00" * (8 - len(hidden)), "little")
    records = extract(f"mov rax, {imm}\nret", probe_unaligned=False)
    assert find_gadget(records, ["pop", "ret"]) is None


def test_syscall_gadget():
    records = extract("mov rax, 59\nsyscall")
    g = find_gadget(records, ["mov", "syscall"])
    assert g is not None
    assert g.jmp_type == JmpType.SYSCALL
    assert g.post_regs[Reg.RAX] == bv_const(59)


def test_clobbered_vs_controlled():
    records = extract("mov rax, 5\npop rbx\nret")
    g = find_gadget(records, ["mov", "pop", "ret"])
    assert Reg.RAX in g.clob_regs
    assert Reg.RAX not in g.ctrl_regs  # constant, not controlled
    assert Reg.RBX in g.ctrl_regs


def test_max_candidates_cap():
    source = "\n".join("pop rax\nret" for _ in range(20))
    image = image_for(source)
    few = extract_gadgets(image, ExtractionConfig(max_candidates=3))
    many = extract_gadgets(image, ExtractionConfig())
    assert len(few) <= len(many)
    assert len(few) <= 3 * 6  # ≤ candidates × fork budget


def test_scan_budget_counts_dfs_steps_not_walk_depth():
    """``max_scan_steps`` caps distinct offsets in DFS order.  From the
    ``je`` the shortest walk to ``ret`` is 2 instructions, but the DFS
    pops the fall-through first and spends five steps on ``nop``s and
    the ``hlt`` before it reaches the taken side.  Redefining the budget
    as depth changes which offsets are candidates, so it must come with
    a ``PIPELINE_VERSION`` bump and regenerated references."""
    image = image_for("cmp rax, 0\nje out\nnop\nnop\nnop\nnop\nhlt\nout: ret")
    graph = DecodeGraph(image.text.data, image.text.addr)
    je = 6
    assert graph.decode_at(je).op == Op.JE
    assert graph.dist_to_transfer[je] == 2
    for steps in range(1, 7):
        assert not syntactic_scan(graph, je, ExtractionConfig(max_scan_steps=steps))
    for steps in (7, 8, 48):
        assert syntactic_scan(graph, je, ExtractionConfig(max_scan_steps=steps))


def _memo_decode():
    """A decode memoised per offset, for the references to call on one
    image; decoding is pure, so its answers are the same."""
    from repro.isa.encoding import DecodeError, decode

    decoded = {}

    def memo_decode(code, offset, addr=0):
        if offset not in decoded:
            try:
                decoded[offset] = decode(code, offset, addr=addr)
            except DecodeError as exc:
                decoded[offset] = exc
        insn = decoded[offset]
        if isinstance(insn, DecodeError):
            raise insn
        return insn

    return memo_decode


def test_scan_distance_bound_matches_reference_on_cold_images(monkeypatch):
    """The distance table decides most offsets without a walk; at every
    offset of the four cold-sweep images, under every pair of walk
    rules, the bounded scan still answers as the decode-at-every-step
    reference does.  The reference's decoder is memoised per image to
    keep this test fast."""
    import repro.fuzz.oracles as oracles
    from nflbench.reference import COLD_IMAGES, build

    for key in COLD_IMAGES:
        text = build(key).image.text
        graph = DecodeGraph(text.data, text.addr)
        monkeypatch.setattr(oracles, "decode", _memo_decode())
        offsets = range(len(text.data))
        assert graph.scan_table(True, True, 48).bounded > 0
        for merge in (True, False):
            for conditional in (True, False):
                config = ExtractionConfig(merge_direct_jumps=merge, include_conditional=conditional)
                for off in offsets:
                    want = oracles.reference_scan(text.data, text.addr, off, config)
                    assert syntactic_scan(graph, off, config) == want, (key, off, merge, conditional)


def test_candidates_and_cfi_targets_match_references_on_nflbench_images(monkeypatch):
    """On the six nflbench extraction images and the two warm ones, the
    candidate list (CFG recovery over the graph's shapes, then the scan
    table) equals the per-offset decode walk over the reference CFG's
    probes, in order, under both scan budgets below; and the CFI target
    sets equal those read off the reference CFG's instructions."""
    import repro.fuzz.oracles as oracles
    from nflbench.reference import CENSUS_IMAGES, COLD_IMAGES, WARM_IMAGES, build
    from repro.defenses.cfi import CFITargets

    for key in COLD_IMAGES + CENSUS_IMAGES + WARM_IMAGES:
        image = build(key).image
        monkeypatch.setattr(oracles, "decode", _memo_decode())
        graph = DecodeGraph(image.text.data, image.text.addr)
        for steps in (8, 48):
            config = ExtractionConfig(max_scan_steps=steps)
            want = oracles.reference_candidates(image, config)
            assert candidate_offsets(image, config, graph) == want, (key, steps)
        entries, blocks = oracles.reference_cfg(image)
        insns = [insn for block, _ in blocks.values() for insn in block]
        return_sites = {i.end for i in insns if i.op in (Op.CALL_REL, Op.CALL_R)}
        assert CFITargets.build(image) == CFITargets(
            aligned=frozenset({i.addr for i in insns} | return_sites | entries),
            return_sites=frozenset(return_sites),
            entries=frozenset(entries),
        ), key


def test_zero_candidate_cap_yields_no_candidates():
    image = image_for("pop rdi\nret\npop rsi\nret")
    assert candidate_offsets(image, ExtractionConfig()) != []
    assert candidate_offsets(image, ExtractionConfig(max_candidates=0)) == []
    assert extract_gadgets(image, ExtractionConfig(max_candidates=0)) == []


def test_candidates_span_counts_bounded_probes():
    image = image_for("pop rdi\nret\nnop\nhlt")
    tracer = Tracer()
    with tracing(tracer):
        candidates = candidate_offsets(image, ExtractionConfig())
    (sp,) = tracer.roots
    assert sp.name == "extract.candidates"
    assert sp.counters["candidates"] == len(candidates)
    # The distance table decides the ret (a transfer) and the nop and
    # hlt (no transfer reachable); the pop, whose one successor is the
    # ret, is derived from it, so nothing needs a walk.
    assert sp.counters["bounded"] == len(image.text.data) - 1 == 3
    assert sp.counters["walked"] == 0


# ---------------------------------------------------------------------------
# Syntactic classification (Fig. 1 / Table I machinery)
# ---------------------------------------------------------------------------


def test_syntactic_scan_counts_types():
    image = image_for(
        """
        entry:
            pop rax
            ret
            pop rbx
            jmp entry
            pop rcx
            jmp rax
            cmp rax, 0
            je entry
            test rax, rax
            jg somewhere
            jmp rdx
        somewhere:
            ret
        """
    )
    gadgets = scan_syntactic_gadgets(image)
    counts = count_by_type(gadgets)
    assert counts[JmpType.RET] > 0
    assert counts[JmpType.UDJ] > 0
    assert counts[JmpType.UIJ] > 0
    assert counts[JmpType.CDJ] > 0
    assert counts[JmpType.CIJ] > 0


def test_total_gadgets_monotone_in_code_size():
    small = image_for("pop rax\nret")
    big = image_for("\n".join(f"pop {r}\nret" for r in ["rax", "rbx", "rcx", "rdx"]))
    assert total_gadgets(big) > total_gadgets(small)


# ---------------------------------------------------------------------------
# Subsumption
# ---------------------------------------------------------------------------


def test_identical_gadgets_deduplicate():
    # Two copies of `pop rdi; ret` at different addresses: keep one.
    records = extract("pop rdi\nret\npop rdi\nret")
    full_copies = [
        r for r in records if [i.info.mnemonic for i in r.insns] == ["pop", "ret"]
        and r.post_regs[Reg.RDI] == stack_sym(0)
    ]
    assert len(full_copies) >= 2
    stats = SubsumptionStats()
    kept = deduplicate_gadgets(full_copies, stats=stats)
    assert len(kept) == 1
    assert stats.reduction_factor >= 2


def test_semantically_equal_but_syntactically_different():
    # `mov rax, 0` vs `xor rax, rax` (as a gadget: both end rax=0).
    records = extract("mov rax, 0\nret\nxor rax, rax\nret")
    zeroers = [
        r
        for r in records
        if r.post_regs[Reg.RAX] == bv_const(0) and r.end.value == "ret" and not r.pre_cond
        and r.stack_delta == 8
    ]
    assert len(zeroers) >= 2
    kept = deduplicate_gadgets(zeroers)
    assert len(kept) == 1


def test_different_semantics_not_merged():
    records = extract("pop rdi\nret\npop rsi\nret")
    a = find_gadget(records, ["pop", "ret"])
    pool = [
        r for r in records if [i.info.mnemonic for i in r.insns] == ["pop", "ret"]
    ]
    # pop rdi vs pop rsi must both survive.
    kept = deduplicate_gadgets(pool)
    controlled = {tuple(sorted(r.ctrl_regs)) for r in kept}
    assert (Reg.RDI,) in controlled
    assert (Reg.RSI,) in controlled


def test_subsumption_prefers_weaker_precondition():
    records = extract(
        """
        a:
            pop rdi
            ret
        b:
            pop rdi
            cmp rbx, rbx
            je done
            hlt
        done:
            ret
        """
    )
    # Both set rdi from the stack and return; the `cmp rbx, rbx; je` one
    # has a statically-true condition so its record carries no constraint
    # — after folding they're equal; dedup keeps one of them.
    pool = [
        r
        for r in records
        if Reg.RDI in r.ctrl_regs and r.end.value == "ret" and r.post_regs[Reg.RDI] == stack_sym(0)
        and r.stack_delta == 16
    ]
    if len(pool) >= 2:
        kept = deduplicate_gadgets(pool)
        assert len(kept) < len(pool)


def test_subsumes_api_direction():
    records = extract("pop rdi\nret\npop rdi\nret")
    pool = [
        r for r in records if [i.info.mnemonic for i in r.insns] == ["pop", "ret"]
        and r.post_regs[Reg.RDI] == stack_sym(0)
    ]
    a, b = pool[0], pool[1]
    assert subsumes(a, b)
    assert subsumes(b, a)  # equivalence: mutual subsumption


def test_dedup_preserves_memory_write_gadgets():
    records = extract("mov [rdi+0], rsi\nret\npop rax\nret")
    writers = [r for r in records if r.has_side_memory_writes]
    poppers = [r for r in records if r.ctrl_regs]
    kept = deduplicate_gadgets(records)
    assert any(r.has_side_memory_writes for r in kept)
    assert any(r.ctrl_regs for r in kept)


# -- sampled equality against its fresh-env reference -------------------------


def _sampled_pairs():
    """Syntactically different posts: equal ones, and for each probe
    trial a pair that differs on that trial alone (``x`` against ``x``
    plus one exactly where ``x`` takes that trial's probe value)."""
    from repro.gadgets.subsumption import _probe_value
    from repro.symex.expr import CmpOp, bv_add, bv_ite, bv_mul, bv_shl, bv_sub, bv_sym, cmp

    x, y = bv_sym("x"), bv_sym("y")
    equal = [
        (bv_add(x, x), bv_shl(x, 1)),
        (bv_mul(x, bv_const(3)), bv_add(bv_add(x, x), x)),
        (bv_sub(bv_add(x, y), y), bv_add(bv_sub(x, y), y)),
    ]
    one, zero = bv_const(1), bv_const(0)
    single = {
        trial: (x, bv_add(x, bv_ite(cmp(CmpOp.EQ, x, _probe_value("x", trial)), one, zero)))
        for trial in range(16)
    }
    return equal, single


def test_sampled_equal_matches_the_fresh_env_reference():
    """``_sampled_equal`` reads the shared probe tables of the twelve
    refutation trials (4-15): equal posts agree on all of them, a post
    that differs on one of those trials is refuted, and one that
    differs only on a fingerprint trial (0-3) is not."""
    from repro.fuzz.oracles import reference_sampled_equal
    from repro.gadgets.subsumption import _sampled_equal

    equal, single = _sampled_pairs()
    for ea, eb in equal:
        assert ea != eb
        assert _sampled_equal(ea, eb) and reference_sampled_equal(ea, eb)
    for trial, (ea, eb) in single.items():
        assert ea != eb
        want = trial < 4
        assert reference_sampled_equal(ea, eb) is want, trial
        assert _sampled_equal(ea, eb) is want, trial
