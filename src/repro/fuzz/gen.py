"""Seeded input generators for the differential fuzzer.

Six families:

* :func:`gen_program` — well-formed mini-C programs whose only output
  is a self-checksum ``print``, suitable for cross-config equivalence;
* :func:`gen_bytes` — raw byte images (unaligned-decode stress);
* :func:`gen_window` — laid-out instruction windows ending in an
  indirect transfer (the gadget-chain shape extraction consumes),
  :func:`gen_straight_code`, window bodies run together up to a
  ``hlt``, and :func:`gen_chain_tail`, the gadgets a planner case
  chains;
* :func:`gen_formula` — small bit-vector conjunctions shaped to meet
  the solver's word-level refutation rules;
* :func:`gen_memory_ops` — ``Memory`` call sequences biased to page
  edges and permission changes;
* :func:`gen_asm` — assembly source over every op and directive, with
  labels, comments, repeated statements and malformed lines.

Everything is driven by an explicit ``random.Random`` so a campaign
iteration is reproducible from ``(seed, iteration, oracle)`` alone.

Windows round-trip through :func:`spec_of` / :func:`relayout` so the
shrinker can drop instructions and re-target conditional jumps without
leaving the well-formed subset.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..binfmt.image import DATA_BASE, TEXT_BASE
from ..emulator.memory import PAGE_SIZE
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


def _gen_body_insn(rng: random.Random, ops: List[Op] = _BODY_OPS) -> Instruction:
    """One non-branch body instruction: a row of the semantics table
    (any, by default), with operands in the forms gadget windows meet."""
    op = rng.choice(ops)
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


def gen_window(
    rng: random.Random, max_body: int = 6, ops: List[Op] = _BODY_OPS
) -> List[Instruction]:
    """A laid-out instruction window ending in an indirect transfer,
    its body drawn from ``ops``."""
    n = rng.randrange(0, max_body + 1)
    spec: WindowSpec = []
    for _ in range(n):
        insn = _gen_body_insn(rng, ops)
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


def gen_straight_code(
    rng: random.Random, *, windows: int = 4, self_patch: bool = False
) -> List[Instruction]:
    """Straight-line code laid out at ``TEXT_BASE``: the bodies of a few
    windows, their forward conditional jumps kept, run into each other
    and end in ``hlt``.

    With ``self_patch``, a ``mov r, addr; mov [r], s`` pair (or its
    byte store) writes over a later instruction of the same run, so
    mapped writable the code changes under its own straight line.
    """
    spec: WindowSpec = []
    for _ in range(windows):
        body = spec_of(gen_window(rng))[:-1]
        shift = len(spec)
        spec += [(insn, None if target is None else target + shift) for insn, target in body]
    if self_patch and spec:
        pos = rng.randrange(0, len(spec))
        later = rng.randrange(pos, len(spec))
        r, s = rng.sample(_GP_REGS, 2)
        store = Op.STORE if rng.random() < 0.5 else Op.STOREB
        patch = [
            (Instruction(op=Op.MOV_RI, dst=r, imm=0), None),
            (Instruction(op=store, base=r, disp=0, src=s), None),
        ]
        spec = [
            (insn, None if target is None or target < pos else target + 2)
            for insn, target in spec[:pos] + patch + spec[pos:]
        ]
        victim = relayout(spec + [(Instruction(op=Op.HLT), None)], TEXT_BASE)[later + 2]
        spec[pos] = (replace(spec[pos][0], imm=victim.addr + rng.randrange(victim.size)), None)
    spec.append((Instruction(op=Op.HLT), None))
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


#: Where the memory ops draw addresses: pages -1 .. _MEM_PAGES from
#: this base, around the two pages the opening ``map`` covers.
_MEM_BASE = 0x10000
_MEM_PAGES = 3
#: Page offsets an address favours: either side of a page's edges and
#: of an 8-byte word there.
_MEM_EDGES = (0, 1, 7, 8, 9, PAGE_SIZE - 9, PAGE_SIZE - 8, PAGE_SIZE - 7, PAGE_SIZE - 1)
_MEM_SIZES = (0, 1, 3, 7, 8, 9, 16, PAGE_SIZE - 1, PAGE_SIZE + 9)
_MEM_CALLS = ("read", "write", "read_u64", "write_u64", "read_u8", "map", "protect")
_MEM_WEIGHTS = (4, 4, 6, 6, 2, 1, 2)

#: One ``Memory`` call: its method name and arguments.  ``read`` takes
#: ``(addr, size, execute)``, ``map``/``protect`` ``(addr, size, perms)``.
MemoryOp = Tuple


def gen_memory_ops(rng: random.Random, count: int = 48) -> List[MemoryOp]:
    """A ``Memory`` call sequence after an opening read-write ``map`` of
    two pages: reads and writes of every width, biased to page edges so
    accesses straddle pages and fall outside the mapping, mixed with
    ``map``/``protect`` calls that change what an earlier access
    memoised."""

    def addr() -> int:
        page = rng.randrange(-1, _MEM_PAGES + 1)
        off = rng.choice(_MEM_EDGES) if rng.random() < 0.8 else rng.randrange(PAGE_SIZE)
        return _MEM_BASE + page * PAGE_SIZE + off

    ops: List[MemoryOp] = [("map", _MEM_BASE, 2 * PAGE_SIZE, 3)]
    for _ in range(count):
        call = rng.choices(_MEM_CALLS, _MEM_WEIGHTS)[0]
        if call == "read":
            ops.append((call, addr(), rng.choice(_MEM_SIZES), rng.random() < 0.2))
        elif call == "write":
            ops.append((call, addr(), rng.randbytes(rng.choice(_MEM_SIZES))))
        elif call == "write_u64":
            ops.append((call, addr(), rng.getrandbits(64)))
        elif call in ("map", "protect"):
            size = rng.choice((0, 1, PAGE_SIZE, 2 * PAGE_SIZE))
            ops.append((call, addr(), size, rng.randrange(8)))
        else:
            ops.append((call, addr()))
    return ops


#: Labels an assembly draw may define and reference (every label
#: character class), and the ones it pre-defines, as a linker passes
#: data symbols.
_ASM_LABELS = ("start", "loop", ".L1", "$tail", "fn_x2", "_data")
_ASM_EXTERN = ("ext_buf", "ext_data")
_ASM_BASES = (0, 0x1000, TEXT_BASE)
#: Every op's operand shapes, under its mnemonic: ``pop`` is POP1's
#: (no statement assembles to the legacy two-byte POP_R).
_ASM_OPS = [op for op in OP_TABLE if op is not Op.POP_R]
_ASM_MNEMONICS = {Op.MOV_RI32: "mov32"}
#: Statements that cannot assemble: a missing or extra operand, a bad
#: register, literal, directive or string, a value out of its field's
#: range, a register or immediate where memory belongs, a register
#: where an immediate belongs and a number where a register does, and
#: an undefined label.
_ASM_MALFORMED = (
    "pop",
    "push",
    "mov rax",
    "jmp rax, rbx",
    "pop rax, rbx",
    "ret rax",
    "nop 0",
    "shl rax, rcx",
    "mov32 rax, rbx",
    "push 1, 2",
    "jne rax",
    "inc 5",
    "xchg rax, 3",
    "mov [rax], 5",
    "frob rax",
    "mov rax, [rzz+8]",
    "mov rax, [rbx+zz]",
    "mov32 rax, 0x80000000",
    "shl rax, 300",
    "add rax, -0x80000001",
    "lea rax, rbx",
    "add rax, [rbx]",
    "jmp [rax+0x100000000]",
    "inc ext_buf",
    "jmp nowhere",
    ".asciz abc",
    '.asciz "\\u0100"',
    ".quad zz",
    ".bogus 1",
)
#: Pieces of an ``.asciz`` body: comment characters and escapes too.
_ASM_STRING_PIECES = ("a", "Z", " ", ";", "#", ":", ",", "\\n", '\\"', "\\\\", "\\x41", "'")
_ASM_DISPS = (0, 1, 8, 0x7F, 0x7FFFFFFF)


def _asm_int(rng: random.Random, value: int) -> str:
    sign = "-" if value < 0 else ""
    return f"{sign}{abs(value):#x}" if rng.random() < 0.5 else str(value)


def _asm_reg(rng: random.Random) -> str:
    name = rng.choice(list(Reg)).name.lower()
    return name.upper() if rng.random() < 0.1 else name


def _asm_mem(rng: random.Random) -> str:
    base = rng.choice(list(Reg)).name.lower()
    if rng.random() < 0.25:
        return f"[{base}]"
    disp = rng.choice(_ASM_DISPS) if rng.random() < 0.5 else rng.randrange(1 << 12)
    sign = rng.choice("+-")
    gap = " " if rng.random() < 0.3 else ""
    return f"[{base}{gap}{sign}{gap}{_asm_int(rng, disp)}]"


def _asm_statement(rng: random.Random, labels: List[str], base: int) -> str:
    """One well-formed instruction or directive."""
    if rng.random() < 0.15:
        kind = rng.choice((".quad", ".byte", ".zero", ".asciz"))
        count = rng.randrange(1, 4)
        if kind == ".quad":
            wide = (rng.getrandbits(64), -rng.randrange(1 << 40), 0)
            values = [rng.choice(wide) for _ in range(count)]
            return ".quad " + ", ".join(_asm_int(rng, v) for v in values)
        if kind == ".byte":
            values = [rng.randrange(-128, 256) for _ in range(count)]
            return ".byte " + ", ".join(_asm_int(rng, v) for v in values)
        if kind == ".zero":
            return f".zero {rng.randrange(0, 12)}"
        body = "".join(rng.choice(_ASM_STRING_PIECES) for _ in range(rng.randrange(0, 8)))
        return f'.asciz "{body}"'
    op = rng.choice(_ASM_OPS)
    info = OP_TABLE[op]
    mnemonic = _ASM_MNEMONICS.get(op, info.mnemonic)
    layout = info.layout

    def imm(bits: int) -> str:
        if bits >= 32 and rng.random() < 0.3:
            return rng.choice(labels)
        if bits == 8:
            return _asm_int(rng, rng.randrange(256))
        if bits == 32:
            return _asm_int(rng, rng.choice((-(1 << 31), (1 << 31) - 1, rng.randrange(-999, 999))))
        return _asm_int(rng, rng.choice((rng.getrandbits(64), -rng.randrange(1 << 20), 7)))

    if layout is OperandLayout.NONE:
        return mnemonic
    if layout in (OperandLayout.REG, OperandLayout.REG_IN_OPCODE):
        return f"{mnemonic} {_asm_reg(rng)}"
    if layout is OperandLayout.REG_REG:
        return f"{mnemonic} {_asm_reg(rng)}, {_asm_reg(rng)}"
    if layout is OperandLayout.REG_IMM64:
        return f"{mnemonic} {_asm_reg(rng)}, {imm(64)}"
    if layout is OperandLayout.REG_IMM32:
        return f"{mnemonic} {_asm_reg(rng)}, {imm(32)}"
    if layout is OperandLayout.REG_IMM8:
        return f"{mnemonic} {_asm_reg(rng)}, {imm(8)}"
    if layout is OperandLayout.REG_MEM:
        return f"{mnemonic} {_asm_reg(rng)}, {_asm_mem(rng)}"
    if layout is OperandLayout.MEM_REG:
        return f"{mnemonic} {_asm_mem(rng)}, {_asm_reg(rng)}"
    if layout is OperandLayout.IMM64:
        return f"{mnemonic} {imm(64)}"
    if layout is OperandLayout.MEM:
        return f"{mnemonic} {_asm_mem(rng)}"
    # REL32: a label, or an absolute target near the draw's code.
    if rng.random() < 0.6:
        return f"{mnemonic} {rng.choice(labels)}"
    return f"{mnemonic} {_asm_int(rng, base + rng.randrange(-64, 256))}"


def gen_asm(rng: random.Random) -> Tuple[str, int, Dict[str, int]]:
    """Assembly source with its base address and pre-defined labels.

    Labels are defined on their own line or before a statement (two at
    a time, too) and referenced before and after their definition;
    statements cover every op's operand shapes and every directive,
    with comments, blank lines and mixed indentation.  About one
    statement in seven repeats an earlier one's text at a new address,
    and a draw makes malformed statements at a rate of 0, 0.1 or 0.2
    (0.1 on average)."""
    base = rng.choice(_ASM_BASES)
    extern = {name: DATA_BASE + rng.randrange(0, 1 << 12, 8) for name in _ASM_EXTERN}
    defined = rng.sample(_ASM_LABELS, rng.randrange(1, len(_ASM_LABELS) + 1))
    referable = defined + list(extern)
    bad_rate = rng.choice((0.0, 0.1, 0.2))
    count = rng.randrange(6, 24)
    sites: Dict[int, List[str]] = {}
    for name in defined:
        sites.setdefault(rng.randrange(count), []).append(name)
    statements: List[str] = []
    lines: List[str] = []
    for k in range(count):
        if rng.random() < bad_rate:
            text = rng.choice(_ASM_MALFORMED + (f"{defined[0]}: nop", f"jne {defined[0]}, 8"))
        elif statements and rng.random() < 0.15:
            text = rng.choice(statements)
        else:
            text = _asm_statement(rng, referable, base)
        statements.append(text)
        heads = [f"{name}:" for name in sites.get(k, ())]
        if heads and rng.random() < 0.5:
            lines.append(" ".join(heads))
            heads = []
        if rng.random() < 0.1:
            lines.append(rng.choice(("", "; a comment line", "   # another")))
        indent = rng.choice(("", "    ", "\t"))
        comment = rng.choice(("", "", "", "  ; note: x, [y]", " # n#2"))
        lines.append(indent + " ".join(heads + [text]) + comment)
    return "\n".join(lines) + "\n", base, extern
