"""Seeded input generators for the differential fuzzer.

Four families:

* :func:`gen_program` — well-formed mini-C programs whose only output
  is a self-checksum ``print``, suitable for cross-config equivalence;
* :func:`gen_bytes` — raw byte images (unaligned-decode stress);
* :func:`gen_window` — laid-out instruction windows ending in an
  indirect transfer (the gadget-chain shape extraction consumes), and
  :func:`gen_chain_tail`, the gadgets a planner case chains;
* :func:`gen_formula` — small bit-vector conjunctions shaped to meet
  the solver's word-level refutation rules.

Everything is driven by an explicit ``random.Random`` so a campaign
iteration is reproducible from ``(seed, iteration, oracle)`` alone.

Windows round-trip through :func:`spec_of` / :func:`relayout` so the
shrinker can drop instructions and re-target conditional jumps without
leaving the well-formed subset.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List, Optional, Tuple

from ..binfmt.image import DATA_BASE, TEXT_BASE
from ..isa.encoding import encode_program
from ..isa.instructions import COND_JUMPS, OP_TABLE, Instruction, Op, OperandLayout
from ..isa.registers import MASK64, Reg
from ..isa.semantics import SEMANTICS
from ..symex.expr import (
    BV,
    Bool,
    CmpOp,
    bool_not,
    bv_add,
    bv_and,
    bv_const,
    bv_ite,
    bv_mul,
    bv_sub,
    bv_sym,
    bv_udiv,
    bv_umod,
    bv_xor,
    cmp,
)

#: (instruction, jcc-target-item-index-or-None) — the editable form.
WindowSpec = List[Tuple[Instruction, Optional[int]]]

#: Registers the generator prefers as operands (RSP only via memory
#: forms, so most windows keep a constant-offset stack pointer).
_GP_REGS = [Reg.RAX, Reg.RBX, Reg.RCX, Reg.RDX, Reg.RSI, Reg.RDI, Reg.R8, Reg.R9]

_COND_OPS = sorted(COND_JUMPS)

#: The ops a window body draws from: every row of the semantics table.
_BODY_OPS = sorted(SEMANTICS)

_TERMINATORS = [Op.RET, Op.RET, Op.RET, Op.RET, Op.JMP_R, Op.JMP_M, Op.CALL_R, Op.SYSCALL]


def spec_of(insns: List[Instruction]) -> WindowSpec:
    """Recover the editable spec from laid-out instructions.

    Direct-jump targets that land on an instruction in the list become
    item indices (len(insns) = "just past the end"); targets outside
    the window stay encoded in ``rel`` untouched (target index None).
    """
    addr_to_idx = {i.addr: k for k, i in enumerate(insns)}
    end = insns[-1].end if insns else 0
    spec: WindowSpec = []
    for insn in insns:
        target: Optional[int] = None
        if insn.is_cond_jump() or insn.op in (Op.JMP_REL, Op.CALL_REL):
            if insn.target in addr_to_idx:
                target = addr_to_idx[insn.target]
            elif insn.target == end:
                target = len(insns)
        spec.append((insn, target))
    return spec


def relayout(spec: WindowSpec, base: int = TEXT_BASE) -> List[Instruction]:
    """Assign addresses from ``base`` and recompute indexed jump rels."""
    sizes = [item[0].size for item in spec]
    addrs: List[int] = []
    cursor = base
    for size in sizes:
        addrs.append(cursor)
        cursor += size
    out: List[Instruction] = []
    for k, (insn, target) in enumerate(spec):
        new = replace(insn, addr=addrs[k])
        if target is not None:
            target_addr = addrs[target] if target < len(spec) else cursor
            new = replace(new, rel=target_addr - (addrs[k] + sizes[k]))
        out.append(new)
    return out


def _gen_body_insn(rng: random.Random) -> Instruction:
    """One non-branch body instruction: any row of the semantics table,
    with operands in the forms gadget windows meet."""
    op = rng.choice(_BODY_OPS)
    layout = OP_TABLE[op].layout
    r, s = rng.choice(_GP_REGS), rng.choice(_GP_REGS)
    if layout is OperandLayout.REG_IMM64:
        # Often a pointer into mapped .data, for a wild load off it.
        pointer = DATA_BASE + rng.randrange(0, 64) * 8
        imm = rng.choice([0, 1, 7, rng.getrandbits(16), rng.getrandbits(63), pointer])
        return Instruction(op=op, dst=r, imm=imm)
    if layout is OperandLayout.REG_IMM32:
        return Instruction(op=op, dst=r, imm=rng.randrange(-(1 << 31), 1 << 31))
    if layout is OperandLayout.REG_IMM8:
        return Instruction(op=op, dst=r, imm=rng.randrange(0, 64))
    if layout is OperandLayout.IMM64:
        return Instruction(op=op, imm=rng.getrandbits(64))
    if op is Op.LEA:
        return Instruction(op=op, dst=r, base=s, disp=rng.randrange(-64, 64))
    # Other memory operands are payload slots, which symex tracks.
    disp = rng.randrange(0, 64) if op in (Op.LOADB, Op.STOREB) else rng.randrange(0, 8) * 8
    if layout is OperandLayout.REG_MEM:
        return Instruction(op=op, dst=r, base=Reg.RSP, disp=disp)
    if layout is OperandLayout.MEM_REG:
        return Instruction(op=op, base=Reg.RSP, disp=disp, src=r)
    if layout is OperandLayout.REG_REG:
        return Instruction(op=op, dst=r, src=s)
    if layout is OperandLayout.NONE:
        return Instruction(op=op)
    return Instruction(op=op, dst=r)


#: How often a drawn ``leave`` gets a frame pointer right before it.
#: ``leave`` sets ``rsp := rbp``; with rbp off the stack the window's
#: stack goes wild and the emu_symex check is inconclusive.
_LEAVE_FRAME_ODDS = 0.9


def _frame_pointer(rng: random.Random) -> Instruction:
    """``lea rbp, [rsp + 8k]``: rbp on a payload slot."""
    return Instruction(op=Op.LEA, dst=Reg.RBP, base=Reg.RSP, disp=rng.randrange(0, 8) * 8)


def gen_window(rng: random.Random, max_body: int = 6) -> List[Instruction]:
    """A laid-out instruction window ending in an indirect transfer."""
    n = rng.randrange(0, max_body + 1)
    spec: WindowSpec = []
    for _ in range(n):
        insn = _gen_body_insn(rng)
        if insn.op is Op.LEAVE and rng.random() < _LEAVE_FRAME_ODDS:
            spec.append((_frame_pointer(rng), None))
        spec.append((insn, None))
    n = len(spec)
    if n >= 1 and rng.random() < 0.45:
        # Insert one forward conditional jump over 0..2 later insns.
        pos = rng.randrange(0, n)
        skip = rng.randrange(0, min(3, n - pos) + 1)
        jcc = Instruction(op=rng.choice(_COND_OPS), rel=0)
        spec.insert(pos, (jcc, pos + 1 + skip))
    term_op = rng.choice(_TERMINATORS)
    if term_op in (Op.JMP_R, Op.CALL_R):
        term = Instruction(op=term_op, dst=rng.choice(_GP_REGS))
    elif term_op == Op.JMP_M:
        term = Instruction(op=Op.JMP_M, base=rng.choice(_GP_REGS), disp=rng.randrange(0, 8) * 8)
    else:
        term = Instruction(op=term_op)
    spec.append((term, None))
    return relayout(spec, TEXT_BASE)


def gen_chain_tail(rng: random.Random) -> bytes:
    """``pop r; ret`` for each syscall-argument register plus
    ``syscall; ret``, in random order.  Appended to a planner case's
    windows so the standard goals have chains to assemble and deliver."""
    heads = [Instruction(op=Op.POP1, dst=r) for r in (Reg.RAX, Reg.RDI, Reg.RSI, Reg.RDX)]
    heads.append(Instruction(op=Op.SYSCALL))
    rng.shuffle(heads)
    return encode_program([insn for head in heads for insn in (head, Instruction(op=Op.RET))])


def gen_bytes(rng: random.Random, size: int = 48) -> bytes:
    """A raw byte image: random bytes salted with real opcodes so the
    decoder sees plenty of near-valid encodings and alias opcodes."""
    out = bytearray(rng.getrandbits(8) for _ in range(size))
    ops = [int(op) for op in Op]
    for _ in range(size // 4):
        pos = rng.randrange(size)
        opcode = rng.choice(ops)
        if rng.random() < 0.3:
            opcode |= 0x80  # alias encoding
        out[pos] = opcode
    return bytes(out)


_SAFE_BINOPS = ["+", "-", "*", "^", "&", "|"]


def gen_program(rng: random.Random) -> str:
    """A well-formed mini-C program printing one self-checksum.

    The program fills an array from a seeded recurrence, folds it with
    randomly chosen (but always well-defined) operators, and prints the
    fold mod a large prime — any cross-config behavioral divergence
    shows up as a different single output line.
    """
    n = rng.randrange(4, 9)
    c0 = rng.randrange(1, 1 << 16)
    c1 = rng.randrange(3, 1 << 8) | 1
    c2 = rng.randrange(1, 1 << 12)
    shift = rng.randrange(1, 16)
    fold_op = rng.choice(_SAFE_BINOPS)
    mix_op = rng.choice(_SAFE_BINOPS)
    branch_div = rng.randrange(2, 7)
    lines = [
        f"u64 a[{n}];",
        "",
        "u64 main() {",
        "    u64 i = 0;",
        f"    u64 acc = {c0};",
        f"    while (i < {n}) {{",
        f"        a[i] = (i * {c1} + {c2}) % 65521;",
        "        i = i + 1;",
        "    }",
        "    i = 0;",
        f"    while (i < {n}) {{",
        f"        if (a[i] % {branch_div} == 0) {{",
        f"            acc = (acc {fold_op} a[i]) + (a[i] << {shift});",
        "        } else {",
        f"            acc = acc {mix_op} (a[i] * {c1});",
        "        }",
        "        i = i + 1;",
        "    }",
        "    print(acc % 1000000007);",
        "    return 0;",
        "}",
    ]
    return "\n".join(lines) + "\n"


#: Masks on leaves, as on byte loads.  Few free bits keep a multiplier
#: to a few thousand clauses and the reference CDCL search short.
_OPERAND_MASKS = (0xF, 0xFF)
_FORMULA_CONSTS = (0, 1, 2, 3, 5, 7, 0xFF, 1 << 63, MASK64)
_ORDER_FAMILIES = ((CmpOp.ULT, CmpOp.ULE), (CmpOp.SLT, CmpOp.SLE))


def gen_formula(rng: random.Random) -> List[Bool]:
    """A conjunction over 2–3 symbols with ``mul``/``udiv``/``umod``/``ite``
    terms, biased toward what the solver's word-level pass looks for: a
    conjunct's negation, an order cycle (strict or not, sometimes mixing
    the unsigned and signed families), and non-linear terms shared
    between conjuncts, as in the winnow's divider queries.

    A 64-bit divider costs most of a second to encode, so only about
    one formula in eight may use ``udiv``/``umod``.
    """
    syms = [bv_sym(name) for name in ("x", "y", "z")[: rng.choice((2, 3))]]
    nonlinear_ops = (bv_mul, bv_udiv, bv_umod) if rng.random() < 0.125 else (bv_mul,)
    shared: List[BV] = []

    def leaf() -> BV:
        roll = rng.random()
        if roll < 0.2:
            return bv_const(rng.choice(_FORMULA_CONSTS))
        sym = rng.choice(syms)
        return bv_and(sym, bv_const(rng.choice(_OPERAND_MASKS))) if roll < 0.85 else sym

    def nonlinear() -> BV:
        if shared and rng.random() < 0.5:
            return rng.choice(shared)
        term = rng.choice(nonlinear_ops)(leaf(), leaf())
        shared.append(term)
        return term

    def term(depth: int) -> BV:
        roll = rng.random()
        if depth == 0 or roll < 0.3:
            return leaf()
        if roll < 0.6:
            return nonlinear()
        if roll < 0.7:
            return bv_ite(atom(depth - 1), term(depth - 1), term(depth - 1))
        op = rng.choice((bv_add, bv_sub, bv_and, bv_xor))
        return op(term(depth - 1), term(depth - 1))

    def atom(depth: int) -> Bool:
        return cmp(rng.choice(list(CmpOp)), term(depth), term(depth))

    conjuncts = [atom(2) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.35:
        conjuncts.append(bool_not(rng.choice(conjuncts)))
    if rng.random() < 0.35:
        ring = [term(1) for _ in range(rng.choice((2, 3)))]
        strict, loose = rng.choice(_ORDER_FAMILIES)
        for k, (low, high) in enumerate(zip(ring, ring[1:] + ring[:1])):
            op = strict if k == 0 and rng.random() < 0.7 else loose
            if rng.random() < 0.15:
                op = rng.choice(rng.choice(_ORDER_FAMILIES))
            conjuncts.append(cmp(op, low, high))
    rng.shuffle(conjuncts)
    return conjuncts
