"""Tests for the one semantics table (repro.isa.semantics).

Every data op has exactly one row; the int and expr domains agree on
every row, flags and Jcc predicates included; the emulator's handlers,
generated from the rows over the source domain, agree with the rows
run over the int domain; and the translated handlers follow a
rewritten instruction.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.binfmt.image import (
    DATA_BASE,
    STACK_TOP,
    TEXT_BASE,
    BinaryImage,
    Section,
    make_image,
)
from repro.emulator.cpu import Emulator, _translate
from repro.emulator.memory import PAGE_SIZE
from repro.fuzz.oracles import reference_handler
from repro.isa.encoding import encode
from repro.isa.instructions import COND_JUMPS, Instruction, Op
from repro.isa.registers import ALL_REGS, Flag, Reg
from repro.isa.semantics import (
    CONSTANTS,
    CONTROL_OPS,
    JCC,
    SEMANTICS,
    IntDomain,
    Loc,
    SourceDomain,
    flag_values,
)
from repro.symex import expr
from repro.symex.expr import bv_sym, eval_bool, eval_bv

DATA_OPS = sorted(SEMANTICS, key=lambda op: op.value)
U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


def test_every_op_is_a_row_or_an_engine_control_op():
    for op in Op:
        assert (op in SEMANTICS) != (op in CONTROL_OPS), op
    assert COND_JUMPS <= CONTROL_OPS
    assert set(JCC) == COND_JUMPS


def test_every_row_names_operations_of_both_domains():
    for op, steps in SEMANTICS.items():
        for step in steps:
            if step.fn is not None:
                assert callable(getattr(IntDomain, step.fn)), (op, step.fn)
                assert callable(getattr(SourceDomain, step.fn)), (op, step.fn)
                assert callable(getattr(expr, step.fn)), (op, step.fn)
                assert len(step.writes) <= 1, op
            else:
                assert len(step.reads) == len(step.writes), op
            if step.flags is not None or step.traps:
                assert step.fn is not None, op


@pytest.mark.parametrize("op", DATA_OPS, ids=lambda op: op.name)
@given(data=st.data(), imm=st.integers(min_value=-(1 << 63), max_value=(1 << 64) - 1))
def test_int_and_expr_domains_agree(op, data, imm):
    """Each row over random ints equals its expression tree evaluated
    with the symbols bound to those ints: results, the four flags and
    all twelve Jcc predicates on them."""
    insn = Instruction(op=op, dst=Reg.RAX, src=Reg.RBX, base=Reg.RCX, imm=imm)
    for step in SEMANTICS[op]:
        ints, exprs, env = [], [], {}
        for k, loc in enumerate(step.reads):
            if loc in CONSTANTS:
                ints.append(CONSTANTS[loc](IntDomain, insn))
                exprs.append(CONSTANTS[loc](expr, insn))
                continue
            width = st.integers(0, 0xFF) if loc is Loc.MEMB else U64
            value = data.draw(width, label=f"{loc.value}{k}")
            ints.append(value)
            exprs.append(bv_sym(f"v{k}"))
            env[f"v{k}"] = value
        if step.traps:
            assume(ints[1] != 0)  # traps on the int side
        if step.fn is None:
            int_results, expr_results = ints, exprs
        else:
            int_results = [getattr(IntDomain, step.fn)(*ints)]
            expr_results = [getattr(expr, step.fn)(*exprs)]
        for got, tree in zip(int_results, expr_results):
            assert 0 <= got < 1 << 64
            assert got == eval_bv(tree, env)
        if step.flags is None:
            continue
        int_flags = flag_values(IntDomain, step.flags, int_results[0], *ints)
        expr_flags = flag_values(expr, step.flags, expr_results[0], *exprs)
        assert all(isinstance(f, bool) for f in int_flags)
        assert int_flags == tuple(eval_bool(f, env) for f in expr_flags)
        for jcc, taken in JCC.items():
            assert taken(IntDomain, *int_flags) == eval_bool(taken(expr, *expr_flags), env), jcc


def test_rewritten_instruction_runs_its_new_semantics():
    """Overwriting an executed instruction in a writable, executable
    page drops its translated handler: the next visit runs the new op."""
    add = encode(Instruction(op=Op.ADD_RI, dst=Reg.RAX, imm=1))
    sub = encode(Instruction(op=Op.SUB_RI, dst=Reg.RAX, imm=1))
    assert len(add) == len(sub)
    code = add + encode(Instruction(op=Op.HLT))
    text = Section(".text", TEXT_BASE, code, writable=True, executable=True)
    emu = Emulator(BinaryImage(sections=[text], entry=TEXT_BASE))
    emu.step()
    assert emu.cpu.get(Reg.RAX) == 1
    emu.memory.write(TEXT_BASE, sub)
    emu.cpu.rip = TEXT_BASE
    emu.step()
    assert emu.cpu.get(Reg.RAX) == 0
    assert emu.fetch().op is Op.HLT


# -- generated handlers against the int domain -------------------------------

#: Register values: often small (zero divisors, zero results) or at a sign edge.
WORDS = st.one_of(
    st.integers(0, 3), st.sampled_from([1 << 63, (1 << 63) - 1, (1 << 64) - 1]), U64
)
#: Where a memory operand points: into .data's one page, at its last
#: word, across its end, across two stack pages, or anywhere (None).
BASES = st.sampled_from(
    [
        DATA_BASE + 8,
        DATA_BASE + PAGE_SIZE - 8,
        DATA_BASE + PAGE_SIZE - 4,
        STACK_TOP - 0x20000 - 4,
        None,
    ]
)


def _outcome(emu, handler):
    try:
        result = ("rip", handler(emu))
    except Exception as exc:  # the exception is the outcome
        result = (type(exc).__name__, str(exc))
    pages = {addr: bytes(page) for addr, page in emu.memory._pages.items()}
    return result, dict(emu.cpu.regs), dict(emu.cpu.flags), pages


@pytest.mark.parametrize(
    "op", DATA_OPS + sorted(JCC, key=lambda op: op.value), ids=lambda op: op.name
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_handler_agrees_with_the_int_domain(op, data):
    """On random registers, flags and memory, an op's generated handler
    returns the same next rip, or raises the same exception, and leaves
    the same registers, flags and memory as its row stepped over
    :class:`IntDomain`: inc/dec keep CF, a zero divisor traps, every Jcc
    predicate holds."""
    regs = st.sampled_from(ALL_REGS)
    insn = Instruction(
        op=op,
        dst=data.draw(regs, label="dst"),
        src=data.draw(regs, label="src"),
        base=data.draw(regs, label="base"),
        disp=data.draw(st.integers(-16, 16), label="disp"),
        imm=data.draw(st.one_of(WORDS, st.integers(-(1 << 31), 0)), label="imm"),
        rel=data.draw(st.integers(-64, 64), label="rel"),
        addr=TEXT_BASE,
    )
    values = {reg: data.draw(WORDS, label=str(reg)) for reg in ALL_REGS}
    flags = {flag: data.draw(st.booleans(), label=str(flag)) for flag in Flag}
    base = data.draw(BASES, label="base points at")
    words = data.draw(st.lists(U64, min_size=4, max_size=4), label="memory")
    primed = data.draw(st.booleans(), label="memos primed")
    runs = []
    for handler in (_translate(insn), reference_handler(insn)):
        emu = Emulator(make_image(b"\0"))
        rsp = emu.cpu.get(Reg.RSP)
        emu.cpu.regs.update(values)
        emu.cpu.flags.update(flags)
        if insn.base is not Reg.RSP:
            emu.cpu.set(Reg.RSP, rsp)
        for k, word in enumerate(words):
            emu.memory.write_u64(DATA_BASE + 8 * k, word)
            emu.memory.write_u64(rsp + 8 * k - 16, word)
        if base is not None:
            emu.cpu.set(insn.base, base - insn.disp)
        if primed:  # the inline memo paths: both memos on the operand's page
            target = emu.cpu.get(insn.base) + insn.disp
            if emu.memory.is_mapped(target):
                emu.memory.write(target & ~(PAGE_SIZE - 1), b"\0")
                emu.memory.read(target & ~(PAGE_SIZE - 1), 1)
        runs.append(_outcome(emu, handler))
    generated, reference = runs
    assert generated == reference
