"""Tests for the one semantics table (repro.isa.semantics).

Every data op has exactly one row; the int and expr domains agree on
every row, flags and Jcc predicates included; and the emulator's
translated handlers follow a rewritten instruction.
"""

import pytest
from hypothesis import assume, given, strategies as st

from repro.binfmt.image import TEXT_BASE, BinaryImage, Section
from repro.emulator.cpu import Emulator
from repro.isa.encoding import encode
from repro.isa.instructions import COND_JUMPS, Instruction, Op
from repro.isa.registers import Reg
from repro.isa.semantics import (
    CONSTANTS,
    CONTROL_OPS,
    JCC,
    SEMANTICS,
    IntDomain,
    Loc,
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
