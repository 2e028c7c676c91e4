"""Unit tests for condition regression (Sec. IV-D): how one equation or
a gadget's path constraints become payload bindings plus register
conditions at the gadget's entry, and how symbol names are read."""

from types import SimpleNamespace

from repro.isa import ALL_REGS, Reg
from repro.planner.conditions import (
    RegCondition,
    discharge_preconditions,
    regress_equation,
)
from repro.solver import Solver
from repro.symex.expr import CmpOp, bv_add, bv_and, bv_const, bv_eq, bv_sym, bv_xor, cmp, eval_bool
from repro.symex.state import reg_of_symbol, reg_sym, stack_sym

STK8 = stack_sym(8)
STK16 = stack_sym(16)
RAX0 = reg_sym(Reg.RAX)
RBX0 = reg_sym(Reg.RBX)
RCX0 = reg_sym(Reg.RCX)
RDX0 = reg_sym(Reg.RDX)


def test_constant_needs_nothing_or_fails():
    solver = Solver()
    provision = regress_equation(bv_const(5), 5, solver)
    assert provision is not None
    assert provision.bindings == () and provision.regressed == ()
    assert regress_equation(bv_const((1 << 64) - 1), -1, solver) is not None
    assert regress_equation(bv_const(5), 6, solver) is None
    assert solver.queries == 0


def test_provisions_are_immutable():
    """The planner's search shares one memoised provision among every
    plan that uses it, so no caller may change one in place."""
    import dataclasses

    import pytest

    provision = regress_equation(bv_add(STK8, bv_const(5)), 12, Solver())
    with pytest.raises(dataclasses.FrozenInstanceError):
        provision.bindings = ()
    merged = provision.merged_with(provision)
    assert merged.bindings == provision.bindings * 2
    assert provision.bindings == (bv_eq(STK8, bv_const(7)),)


def test_single_payload_word_inverts_to_a_binding():
    solver = Solver()
    provision = regress_equation(bv_add(STK8, bv_const(5)), 12, solver)
    assert provision.bindings == (bv_eq(STK8, bv_const(7)),)
    assert provision.regressed == ()
    assert solver.queries == 0  # solve_for, not the solver


def test_single_register_inverts_to_a_regressed_condition():
    solver = Solver()
    provision = regress_equation(bv_xor(RAX0, bv_const(0xFF)), 0, solver)
    assert provision.bindings == ()
    assert provision.regressed == (RegCondition(reg=Reg.RAX, value=0xFF),)
    assert solver.queries == 0


def test_payload_only_equation_keeps_the_equation_as_binding():
    solver = Solver()
    expr = bv_add(STK8, STK16)
    provision = regress_equation(expr, 10, solver)
    assert provision.bindings == (bv_eq(expr, bv_const(10)),)
    assert provision.regressed == ()
    assert solver.queries == 1


def test_mixed_equation_fixes_register_witness_and_keeps_payload_residual():
    solver = Solver()
    expr = bv_add(RAX0, STK8)
    provision = regress_equation(expr, 10, solver)
    assert len(provision.regressed) == 1
    witness = provision.regressed[0]
    assert witness.reg is Reg.RAX
    assert provision.bindings == (bv_eq(bv_add(bv_const(witness.value), STK8), bv_const(10)),)
    # The residual pins the payload word to the value that, together
    # with the witness, satisfies the original equation.
    stk = (10 - witness.value) & ((1 << 64) - 1)
    assert eval_bool(provision.bindings[0], {"stk8": stk})
    assert eval_bool(bv_eq(expr, bv_const(10)), {"rax0": witness.value, "stk8": stk})


def test_unsatisfiable_equation_fails():
    solver = Solver()
    assert regress_equation(bv_and(STK8, bv_const(0xF0)), 0x3, solver) is None
    mixed = bv_add(bv_and(RAX0, bv_const(0xF0)), bv_and(STK8, bv_const(0xF00)))
    assert regress_equation(mixed, 0x3, solver) is None


def test_register_count_is_capped():
    solver = Solver()
    three = bv_add(bv_add(RAX0, RBX0), RCX0)
    assert regress_equation(three, 1, solver) is None
    two = bv_add(RAX0, RBX0)
    provision = regress_equation(two, 1, solver)
    assert [rc.reg for rc in provision.regressed] == [Reg.RAX, Reg.RBX]
    assert (provision.regressed[0].value + provision.regressed[1].value) & ((1 << 64) - 1) == 1
    # A caller that may regress no register cannot invert through one.
    assert regress_equation(RAX0, 1, solver, max_regressed_regs=0) is None
    assert regress_equation(STK8, 1, solver, max_regressed_regs=0) is not None


def test_wild_flag_and_negative_stack_symbols_are_rejected():
    solver = Solver()
    for sym in ("mem0", "mem10", "flag_zf", "stkm8"):
        assert regress_equation(bv_sym(sym), 1, solver) is None
        assert regress_equation(bv_add(bv_sym(sym), STK8), 1, solver) is None
    assert solver.queries == 0


def test_discharge_without_preconditions_is_free():
    solver = Solver()
    provision = discharge_preconditions(SimpleNamespace(pre_cond=()), solver)
    assert provision.bindings == () and provision.regressed == ()
    assert solver.queries == 0


def test_discharge_takes_register_witnesses_and_keeps_residuals():
    """Fig. 4's ``cmp rdx, rbx; jne``: the equality regresses onto both
    registers; the payload residual of the second constraint stays."""
    solver = Solver()
    gadget = SimpleNamespace(
        pre_cond=(
            bv_eq(RDX0, RBX0),
            bv_eq(bv_add(RDX0, STK8), bv_const(7)),
        )
    )
    provision = discharge_preconditions(gadget, solver)
    assert [rc.reg for rc in provision.regressed] == [Reg.RBX, Reg.RDX]
    rbx, rdx = (rc.value for rc in provision.regressed)
    assert rbx == rdx
    assert provision.bindings == (bv_eq(bv_add(bv_const(rdx), STK8), bv_const(7)),)
    assert solver.queries == 1


def test_discharge_payload_only_preconditions_bind_as_is():
    solver = Solver()
    pre = (cmp(CmpOp.ULT, STK8, bv_const(100)), cmp(CmpOp.NE, STK16, bv_const(0)))
    provision = discharge_preconditions(SimpleNamespace(pre_cond=pre), solver)
    assert provision.bindings == tuple(pre)
    assert provision.regressed == ()


def test_discharge_rejects_unsat_too_many_registers_and_wild_inputs():
    solver = Solver()
    unsat = SimpleNamespace(pre_cond=(bv_eq(RAX0, bv_const(1)), bv_eq(RAX0, bv_const(2))))
    assert discharge_preconditions(unsat, solver) is None
    three = SimpleNamespace(pre_cond=(bv_eq(RAX0, RBX0), bv_eq(RCX0, bv_const(0))))
    assert discharge_preconditions(three, solver) is None
    wild = SimpleNamespace(pre_cond=(bv_eq(bv_sym("mem0"), STK8),))
    assert discharge_preconditions(wild, solver) is None



def test_reg_of_symbol_reads_only_entry_register_symbols():
    for reg in ALL_REGS:
        assert reg_of_symbol(reg_sym(reg).name) is reg
    # Payload words, wild reads and flags are not registers, even when
    # their names end in "0" like a register symbol's.
    for name in ("stk0", "mem10", "flag_zf", "x0"):
        assert reg_of_symbol(name) is None
