"""Condition regression: how a gadget can *provide* a needed condition.

The planner works backward from the goal (Sec. IV-D): it picks an open
condition — "register R must hold value V at this step's entry" or
"address A must hold value V in memory" — and asks, for each gadget,
whether executing that gadget can establish it.  The answer has three
ingredients:

* **bindings**: constraints over the gadget's *payload words* (its
  local ``stk<k>`` symbols), solved when the payload is assembled;
* **regressed conditions**: values that *other registers* must hold at
  the gadget's entry (e.g. ``mov rdi, rax`` provides ``rdi == V``
  but regresses the need to ``rax == V``);
* the gadget's own **pre-conditions** (its path constraints), which are
  discharged the same way.

Gadgets whose relevant expressions depend on wild memory or unknown
initial flags cannot provide conditions reliably and are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..isa.registers import Reg
from ..solver.solver import Solver
from ..symex.expr import (
    BV,
    BVConst,
    BVSym,
    Bool,
    BoolConst,
    bv_const,
    bv_eq,
    bv_sym,
    free_symbols,
    substitute,
)
from ..symex.invert import solve_for
from ..symex.state import is_controlled_symbol, reg_of_symbol
from ..gadgets.record import GadgetRecord

#: Entry registers one regression may pin to witness values.
MAX_REGRESSED_REGS = 2


@dataclass(frozen=True)
class RegCondition:
    """Register ``reg`` must hold ``value`` at the consumer's entry."""

    reg: Reg
    value: int

    def __str__(self) -> str:
        return f"{self.reg} == {self.value:#x}"


@dataclass(frozen=True)
class MemCondition:
    """The 64-bit word at ``addr`` must hold ``value`` before the goal."""

    addr: int
    value: int

    def __str__(self) -> str:
        return f"[{self.addr:#x}] == {self.value:#x}"


Condition = object  # RegCondition | MemCondition


@dataclass(frozen=True)
class Provision:
    """The result of successfully regressing a condition through a gadget.

    Immutable: the planner's search memoises provisions, so one
    provision is shared by every plan that uses it.
    """

    bindings: Tuple[Bool, ...] = ()  # over local stk syms
    regressed: Tuple[RegCondition, ...] = ()

    def merged_with(self, other: "Provision") -> "Provision":
        return Provision(
            bindings=self.bindings + other.bindings,
            regressed=self.regressed + other.regressed,
        )


def _register_symbols(syms) -> Optional[List[str]]:
    """The entry-register symbols among ``syms``, or None when any other
    symbol is not a controlled payload word (wild memory, flags, the
    stack below the entry ``rsp``)."""
    regs: List[str] = []
    for s in syms:
        if reg_of_symbol(s) is not None:
            regs.append(s)
        elif not is_controlled_symbol(s):
            return None
    return regs


def _regress(constraints: List[Bool], reg_syms: List[str], solver: Solver) -> Optional[Provision]:
    """The one regression rule: check ``constraints``, fix every register
    in ``reg_syms`` to its value in the model, and keep the non-trivial
    residuals as payload bindings."""
    result = solver.check(constraints)
    if not result.is_sat:
        return None
    if not reg_syms:  # nothing to fix: the constraints bind as they stand
        return Provision(bindings=tuple(constraints))
    reg_subst: Dict[str, BV] = {}
    regressed: List[RegCondition] = []
    for name in sorted(reg_syms):
        value = result.model.get(name, 0)
        reg_subst[name] = bv_const(value)
        regressed.append(RegCondition(reg=reg_of_symbol(name), value=value))
    bindings: List[Bool] = []
    for c in constraints:
        residual = substitute(c, reg_subst)
        if isinstance(residual, BoolConst):
            if not residual.value:
                return None
        else:
            bindings.append(residual)
    return Provision(bindings=tuple(bindings), regressed=tuple(regressed))


def regress_equation(
    expr: BV,
    target: int,
    solver: Solver,
    *,
    max_regressed_regs: int = MAX_REGRESSED_REGS,
) -> Optional[Provision]:
    """Make ``expr == target`` achievable: bind payload words, regress regs.

    Returns None when the equation is unachievable or depends on
    uncontrollable inputs.
    """
    if isinstance(expr, BVConst):
        return Provision() if expr.value == target & ((1 << 64) - 1) else None
    syms = free_symbols(expr)
    reg_syms = _register_symbols(syms)
    if reg_syms is None or len(reg_syms) > max_regressed_regs:
        return None
    # Fast path: a single-variable invertible chain needs no solver.
    if len(syms) == 1:
        inverted = solve_for(expr, target)
        if inverted is not None:
            name, value = inverted
            if reg_syms:
                return Provision(regressed=(RegCondition(reg=reg_of_symbol(name), value=value),))
            return Provision(bindings=(bv_eq(bv_sym(name), bv_const(value)),))
    return _regress([bv_eq(expr, bv_const(target))], reg_syms, solver)


def discharge_preconditions(gadget: GadgetRecord, solver: Solver) -> Optional[Provision]:
    """Turn a gadget's path constraints into bindings + entry conditions."""
    if not gadget.pre_cond:
        return Provision()
    all_syms = set()
    for c in gadget.pre_cond:
        all_syms |= free_symbols(c)
    reg_syms = _register_symbols(all_syms)
    if reg_syms is None or len(reg_syms) > MAX_REGRESSED_REGS:
        return None
    return _regress(list(gadget.pre_cond), reg_syms, solver)


def provide_reg_condition(
    gadget: GadgetRecord,
    cond: RegCondition,
    solver: Solver,
    locator=None,
) -> Optional[Provision]:
    """Can executing ``gadget`` establish ``cond`` at its exit?

    ``locator`` (value → static address holding that 64-bit word, or
    None) enables the classic *data-reuse* technique: a gadget whose
    post-value is a memory load through a controllable pointer (e.g.
    ``mov rax, [rbp-16]; ... ret`` with rbp settable via ``pop rbp``)
    provides any value that exists somewhere in the binary image —
    point the pointer at the known bytes.
    """
    post = gadget.post_regs.get(cond.reg)
    if post is None:
        return None
    provision = regress_equation(post, cond.value, solver)
    if provision is None and locator is not None:
        provision = _provide_via_known_bytes(gadget, post, cond.value, solver, locator)
    if provision is None:
        return None
    pre = discharge_preconditions(gadget, solver)
    if pre is None:
        return None
    return provision.merged_with(pre)


def _provide_via_known_bytes(
    gadget: GadgetRecord,
    post,
    target: int,
    solver: Solver,
    locator,
) -> Optional[Provision]:
    """Data-reuse: make a wild-load post-value equal ``target`` by
    steering the load address at known image bytes."""
    if not isinstance(post, BVSym):
        return None
    read = next(
        (
            r
            for r in gadget.mem_reads
            if isinstance(r.value_sym, BVSym)
            and r.value_sym.name == post.name
            and r.width == 8
        ),
        None,
    )
    if read is None:
        return None
    address = locator(target)
    if address is None:
        return None
    return regress_equation(read.addr, address, solver)


def provide_mem_condition(
    gadget: GadgetRecord,
    cond: MemCondition,
    solver: Solver,
) -> Optional[Provision]:
    """Can this gadget write ``value`` to ``addr``? (write-what-where)."""
    for write in gadget.mem_writes:
        if write.stack_offset is not None or write.width != 8:
            continue
        addr_prov = regress_equation(write.addr, cond.addr, solver)
        if addr_prov is None:
            continue
        value_prov = regress_equation(write.value, cond.value, solver)
        if value_prov is None:
            continue
        pre = discharge_preconditions(gadget, solver)
        if pre is None:
            continue
        merged = addr_prov.merged_with(value_prov).merged_with(pre)
        # Conflicting regressed values for one register → impossible.
        values: Dict[Reg, int] = {}
        consistent = True
        for rc in merged.regressed:
            if values.setdefault(rc.reg, rc.value) != rc.value:
                consistent = False
                break
        if consistent:
            return merged
    return None


def target_provision(
    gadget: GadgetRecord,
    next_addr: int,
    solver: Solver,
) -> Optional[Provision]:
    """Constrain an indirect gadget's jump target to ``next_addr``."""
    return regress_equation(gadget.jump_target, next_addr, solver)
