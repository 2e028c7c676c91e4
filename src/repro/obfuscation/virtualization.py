"""Virtualization obfuscation (Tigress's ``Virtualize``).

Each selected function is translated into bytecode for a custom
register-based virtual machine, and its body is replaced with an
interpreter: a fetch–decode–dispatch loop whose handler chain is built
from ordinary IR blocks.  The bytecode lives in the data section; the
interpreter's dispatch chain floods the binary with conditional jumps —
the structural reason Fig. 5 ranks virtualization among the obfuscations
that introduce the most code-reuse risk.

VM design (one instruction = four little-endian u64 words
``[opcode, a, b, c]``):

===========  ==================================================
opcode        semantics
===========  ==================================================
CONST         slots[a] = b
COPY          slots[a] = slots[b]
ADD..SAR      slots[a] = slots[b] <op> slots[c]
NOT/NEG       slots[a] = op slots[b]
EQ..SGE       slots[a] = (slots[b] cmp slots[c]) ? 1 : 0
LOAD8/LOAD1   slots[a] = mem[slots[b]]
STORE8/1      mem[slots[a]] = slots[b]
LEA_LOCAL     slots[a] = vmem_base + b
ADDR_GLOBAL   slots[a] = address of global #b (table-dispatched)
JMP           pc = a
BRNZ          pc = (slots[a] != 0) ? b : pc + 1
CALL          slots[a] = call callee #b with args slots[c..c+arity)
RETV          return slots[a]
===========  ==================================================
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..compiler.ir import (
    AddrOfGlobal,
    AddrOfLocal,
    BinOp,
    Block,
    Branch,
    CallInstr,
    CmpSet,
    Const,
    Copy,
    IRFunction,
    IRInstr,
    IRModule,
    Jump,
    Load,
    Ret,
    Store,
    Temp,
    UnOp,
    Value,
)
from .base import ObfuscationPass

# -- opcode numbering --------------------------------------------------------

OP_CONST = 1
OP_COPY = 2
_BIN_BASE = 3
BIN_OPS_ORDER = ("add", "sub", "mul", "udiv", "umod", "and", "or", "xor", "shl", "shr", "sar")
OP_BIN = {op: _BIN_BASE + i for i, op in enumerate(BIN_OPS_ORDER)}  # 3..13
OP_NOT = 14
OP_NEG = 15
_CMP_BASE = 16
CMP_OPS_ORDER = ("eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge")
OP_CMP = {op: _CMP_BASE + i for i, op in enumerate(CMP_OPS_ORDER)}  # 16..25
OP_LOAD8 = 26
OP_LOAD1 = 27
OP_STORE8 = 28
OP_STORE1 = 29
OP_LEA_LOCAL = 30
OP_ADDR_GLOBAL = 31
OP_JMP = 32
OP_BRNZ = 33
OP_CALL = 34
OP_RETV = 35

WORDS_PER_INSTR = 4


@dataclass
class VMCode:
    """The result of translating one function to bytecode."""

    instrs: List[List[int]] = field(default_factory=list)  # [op, a, b, c]
    n_slots: int = 0
    vmem_size: int = 0
    globals_table: List[str] = field(default_factory=list)  # index → symbol
    call_table: List[Tuple[str, int]] = field(default_factory=list)  # index → (name, arity)

    def to_bytes(self) -> bytes:
        out = bytearray()
        for instr in self.instrs:
            padded = (instr + [0, 0, 0])[:4]
            out += struct.pack("<4Q", *(v & ((1 << 64) - 1) for v in padded))
        return bytes(out)


class _Translator:
    """IRFunction → VMCode."""

    def __init__(self, fn: IRFunction):
        self.fn = fn
        self.code = VMCode()
        self._slots: Dict[str, int] = {}
        self._global_index: Dict[str, int] = {}
        self._call_index: Dict[Tuple[str, int], int] = {}
        self._vmem_offsets: Dict[str, int] = {}
        self._block_pc: Dict[str, int] = {}
        self._fixups: List[Tuple[int, int, str]] = []  # (instr idx, word idx, label)

    def slot(self, temp: Temp) -> int:
        if temp.name not in self._slots:
            self._slots[temp.name] = len(self._slots)
        return self._slots[temp.name]

    def fresh_slot(self) -> int:
        index = len(self._slots)
        self._slots[f"__scratch{index}"] = index
        return index

    def value_slot(self, value: Value) -> int:
        """Slot holding ``value`` — consts are materialized via CONST."""
        if isinstance(value, Temp):
            return self.slot(value)
        scratch = self.fresh_slot()
        self.emit(OP_CONST, scratch, value.value)
        return scratch

    def global_ref(self, symbol: str) -> int:
        if symbol not in self._global_index:
            self._global_index[symbol] = len(self.code.globals_table)
            self.code.globals_table.append(symbol)
        return self._global_index[symbol]

    def call_ref(self, name: str, arity: int) -> int:
        key = (name, arity)
        if key not in self._call_index:
            self._call_index[key] = len(self.code.call_table)
            self.code.call_table.append(key)
        return self._call_index[key]

    def emit(self, op: int, a: int = 0, b: int = 0, c: int = 0) -> int:
        self.code.instrs.append([op, a, b, c])
        return len(self.code.instrs) - 1

    def translate(self) -> VMCode:
        # vmem layout for the function's local arrays.
        offset = 0
        for name, size in self.fn.local_arrays.items():
            self._vmem_offsets[name] = offset
            offset += (size + 7) & ~7
        self.code.vmem_size = offset
        # Reserve parameter slots first (calling convention: params are
        # slots 0..n-1 in declaration order).
        for p in self.fn.params:
            self.slot(Temp(p))
        for block in self.fn.block_order():
            self._block_pc[block.label] = len(self.code.instrs)
            for instr in block.instrs:
                self._translate_instr(instr)
            self._translate_terminator(block)
        for instr_index, word_index, label in self._fixups:
            self.code.instrs[instr_index][word_index] = self._block_pc[label]
        self.code.n_slots = len(self._slots)
        return self.code

    # -- instruction translation ----------------------------------------------

    def _translate_instr(self, instr: IRInstr) -> None:
        if isinstance(instr, Copy):
            if isinstance(instr.src, Const):
                self.emit(OP_CONST, self.slot(instr.dst), instr.src.value)
            else:
                self.emit(OP_COPY, self.slot(instr.dst), self.slot(instr.src))
        elif isinstance(instr, BinOp):
            b = self.value_slot(instr.lhs)
            c = self.value_slot(instr.rhs)
            self.emit(OP_BIN[instr.op], self.slot(instr.dst), b, c)
        elif isinstance(instr, UnOp):
            b = self.value_slot(instr.src)
            self.emit(OP_NOT if instr.op == "not" else OP_NEG, self.slot(instr.dst), b)
        elif isinstance(instr, CmpSet):
            b = self.value_slot(instr.lhs)
            c = self.value_slot(instr.rhs)
            self.emit(OP_CMP[instr.op], self.slot(instr.dst), b, c)
        elif isinstance(instr, Load):
            b = self.value_slot(instr.addr)
            self.emit(OP_LOAD8 if instr.width == 8 else OP_LOAD1, self.slot(instr.dst), b)
        elif isinstance(instr, Store):
            a = self.value_slot(instr.addr)
            b = self.value_slot(instr.src)
            self.emit(OP_STORE8 if instr.width == 8 else OP_STORE1, a, b)
        elif isinstance(instr, AddrOfLocal):
            self.emit(OP_LEA_LOCAL, self.slot(instr.dst), self._vmem_offsets[instr.local])
        elif isinstance(instr, AddrOfGlobal):
            self.emit(OP_ADDR_GLOBAL, self.slot(instr.dst), self.global_ref(instr.symbol))
        elif isinstance(instr, CallInstr):
            arg_base = len(self._slots)
            arg_slots = [self.fresh_slot() for _ in instr.args]
            for arg_slot, arg in zip(arg_slots, instr.args):
                if isinstance(arg, Const):
                    self.emit(OP_CONST, arg_slot, arg.value)
                else:
                    self.emit(OP_COPY, arg_slot, self.slot(arg))
            index = self.call_ref(instr.func, len(instr.args))
            dst = self.slot(instr.dst) if instr.dst is not None else self.fresh_slot()
            self.emit(OP_CALL, dst, index, arg_base)
        else:  # pragma: no cover - exhaustive
            raise AssertionError(f"unhandled IR instr {instr!r}")

    def _translate_terminator(self, block: Block) -> None:
        t = block.terminator
        if isinstance(t, Jump):
            index = self.emit(OP_JMP, 0)
            self._fixups.append((index, 1, t.target))
        elif isinstance(t, Branch):
            b = self.value_slot(t.lhs)
            c = self.value_slot(t.rhs)
            cond = self.fresh_slot()
            self.emit(OP_CMP[t.op], cond, b, c)
            br = self.emit(OP_BRNZ, cond, 0)
            self._fixups.append((br, 2, t.then))
            jmp = self.emit(OP_JMP, 0)
            self._fixups.append((jmp, 1, t.els))
        elif isinstance(t, Ret):
            value = t.value if t.value is not None else Const(0)
            self.emit(OP_RETV, self.value_slot(value))
        else:  # pragma: no cover
            raise AssertionError(f"unhandled terminator {t!r}")


def _build_interpreter(
    fn_name: str,
    params: List[str],
    code: VMCode,
    bytecode_symbol: str,
    rng: random.Random,
) -> IRFunction:
    """Generate the interpreter IRFunction that replaces the original."""
    fn = IRFunction(name=fn_name, params=list(params))
    slots_bytes = max(code.n_slots, 1) * 8
    fn.local_arrays["__vm_slots"] = slots_bytes
    if code.vmem_size:
        fn.local_arrays["__vm_mem"] = code.vmem_size

    slots_base = fn.new_temp("vm_slots")
    vmem_base = fn.new_temp("vm_vmem")
    bc_base = fn.new_temp("vm_bc")
    pc = fn.new_temp("vm_pc")
    op_t = fn.new_temp("vm_op")
    a_t = fn.new_temp("vm_a")
    b_t = fn.new_temp("vm_b")
    c_t = fn.new_temp("vm_c")

    entry = fn.add_block("entry")
    entry.instrs.append(AddrOfLocal(slots_base, "__vm_slots"))
    if code.vmem_size:
        entry.instrs.append(AddrOfLocal(vmem_base, "__vm_mem"))
    else:
        entry.instrs.append(Copy(vmem_base, Const(0)))
    entry.instrs.append(AddrOfGlobal(bc_base, bytecode_symbol))
    # Spill native params into their slots (slots 0..n-1 by convention).
    for i, p in enumerate(params):
        addr = fn.new_temp("vm_pa")
        entry.instrs.append(BinOp(addr, "add", slots_base, Const(8 * i)))
        entry.instrs.append(Store(addr, Temp(p), width=8))
    entry.instrs.append(Copy(pc, Const(0)))
    entry.terminator = Jump("vm_fetch")

    def slot_addr(block: Block, index_temp: Temp) -> Temp:
        scaled = fn.new_temp("vm_sc")
        block.instrs.append(BinOp(scaled, "shl", index_temp, Const(3)))
        addr = fn.new_temp("vm_ad")
        block.instrs.append(BinOp(addr, "add", slots_base, scaled))
        return addr

    def read_slot(block: Block, index_temp: Temp) -> Temp:
        value = fn.new_temp("vm_v")
        block.instrs.append(Load(value, slot_addr(block, index_temp), width=8))
        return value

    def write_slot(block: Block, index_temp: Temp, value: Value) -> None:
        block.instrs.append(Store(slot_addr(block, index_temp), value, width=8))

    # Fetch block: decode [op, a, b, c] at pc.
    fetch = fn.add_block("vm_fetch")
    byte_off = fn.new_temp("vm_bo")
    fetch.instrs.append(BinOp(byte_off, "shl", pc, Const(5)))  # pc * 32
    iaddr = fn.new_temp("vm_ia")
    fetch.instrs.append(BinOp(iaddr, "add", bc_base, byte_off))
    for word, dst in enumerate((op_t, a_t, b_t, c_t)):
        waddr = fn.new_temp("vm_wa")
        fetch.instrs.append(BinOp(waddr, "add", iaddr, Const(8 * word)))
        fetch.instrs.append(Load(dst, waddr, width=8))
    # Dispatch chain (built below): fall into the first check.
    # The "next" block advances pc and loops.
    nxt = fn.add_block("vm_next")
    nxt.instrs.append(BinOp(pc, "add", pc, Const(1)))
    nxt.terminator = Jump("vm_fetch")

    handlers: List[Tuple[int, str]] = []

    def handler(name: str) -> Block:
        block = fn.add_block(f"vm_h_{name}")
        return block

    # CONST
    h = handler("const")
    write_slot(h, a_t, b_t)
    h.terminator = Jump("vm_next")
    handlers.append((OP_CONST, h.label))
    # COPY
    h = handler("copy")
    write_slot(h, a_t, read_slot(h, b_t))
    h.terminator = Jump("vm_next")
    handlers.append((OP_COPY, h.label))
    # Binary ops
    for op_name, op_code in OP_BIN.items():
        h = handler(f"bin_{op_name}")
        lhs = read_slot(h, b_t)
        rhs = read_slot(h, c_t)
        result = fn.new_temp("vm_r")
        h.instrs.append(BinOp(result, op_name, lhs, rhs))
        write_slot(h, a_t, result)
        h.terminator = Jump("vm_next")
        handlers.append((op_code, h.label))
    # Unary
    for op_name, op_code in (("not", OP_NOT), ("neg", OP_NEG)):
        h = handler(f"un_{op_name}")
        src = read_slot(h, b_t)
        result = fn.new_temp("vm_r")
        h.instrs.append(UnOp(result, op_name, src))
        write_slot(h, a_t, result)
        h.terminator = Jump("vm_next")
        handlers.append((op_code, h.label))
    # Comparisons
    for op_name, op_code in OP_CMP.items():
        h = handler(f"cmp_{op_name}")
        lhs = read_slot(h, b_t)
        rhs = read_slot(h, c_t)
        result = fn.new_temp("vm_r")
        h.instrs.append(CmpSet(result, op_name, lhs, rhs))
        write_slot(h, a_t, result)
        h.terminator = Jump("vm_next")
        handlers.append((op_code, h.label))
    # Memory
    for op_code, width, is_load in (
        (OP_LOAD8, 8, True),
        (OP_LOAD1, 1, True),
        (OP_STORE8, 8, False),
        (OP_STORE1, 1, False),
    ):
        h = handler(f"mem_{op_code}")
        if is_load:
            addr = read_slot(h, b_t)
            value = fn.new_temp("vm_r")
            h.instrs.append(Load(value, addr, width=width))
            write_slot(h, a_t, value)
        else:
            addr = read_slot(h, a_t)
            value = read_slot(h, b_t)
            h.instrs.append(Store(addr, value, width=width))
        h.terminator = Jump("vm_next")
        handlers.append((op_code, h.label))
    # LEA_LOCAL
    h = handler("lea_local")
    result = fn.new_temp("vm_r")
    h.instrs.append(BinOp(result, "add", vmem_base, b_t))
    write_slot(h, a_t, result)
    h.terminator = Jump("vm_next")
    handlers.append((OP_LEA_LOCAL, h.label))
    # ADDR_GLOBAL: chain over the globals table.
    if code.globals_table:
        first_label = _build_addr_global_chain(fn, code, a_t, b_t, write_slot)
        handlers.append((OP_ADDR_GLOBAL, first_label))
    # JMP
    h = handler("jmp")
    h.instrs.append(Copy(pc, a_t))
    h.terminator = Jump("vm_fetch")
    handlers.append((OP_JMP, h.label))
    # BRNZ
    h = handler("brnz")
    cond = read_slot(h, a_t)
    taken = fn.add_block("vm_brnz_taken")
    taken.instrs.append(Copy(pc, b_t))
    taken.terminator = Jump("vm_fetch")
    h.terminator = Branch("ne", cond, Const(0), taken.label, "vm_next")
    handlers.append((OP_BRNZ, h.label))
    # CALL: chain over the call table.
    if code.call_table:
        first_label = _build_call_chain(fn, code, slots_base, a_t, b_t, c_t, write_slot)
        handlers.append((OP_CALL, first_label))
    # RETV
    h = handler("retv")
    result = read_slot(h, a_t)
    h.terminator = Ret(result)
    handlers.append((OP_RETV, h.label))

    # Dispatch chain from the fetch block, in shuffled order.
    rng.shuffle(handlers)
    chain_target = "vm_trap"
    trap = fn.add_block("vm_trap")
    trap.terminator = Ret(Const(0))  # undefined opcode: bail out
    current_tail = trap.label
    for op_code, label in handlers:
        chk = fn.add_block(fn.new_label("vm_dispatch"))
        chk.terminator = Branch("eq", op_t, Const(op_code), label, current_tail)
        current_tail = chk.label
    fetch.terminator = Jump(current_tail)
    return fn


def _build_addr_global_chain(fn, code, a_t, b_t, write_slot):
    next_label = None
    first_label = None
    for index in reversed(range(len(code.globals_table))):
        symbol = code.globals_table[index]
        h = fn.add_block(fn.new_label(f"vm_g{index}"))
        addr = fn.new_temp("vm_ga")
        h.instrs.append(AddrOfGlobal(addr, symbol))
        write_slot(h, a_t, addr)
        h.terminator = Jump("vm_next")
        chk = fn.add_block(fn.new_label(f"vm_gchk{index}"))
        fallthrough = next_label if next_label is not None else "vm_next"
        chk.terminator = Branch("eq", b_t, Const(index), h.label, fallthrough)
        next_label = chk.label
        first_label = chk.label
    return first_label


def _build_call_chain(fn, code, slots_base, a_t, b_t, c_t, write_slot):
    next_label = None
    first_label = None
    for index in reversed(range(len(code.call_table))):
        name, arity = code.call_table[index]
        h = fn.add_block(fn.new_label(f"vm_call{index}"))
        args = []
        for i in range(arity):
            idx = fn.new_temp("vm_ci")
            h.instrs.append(BinOp(idx, "add", c_t, Const(i)))
            scaled = fn.new_temp("vm_cs")
            h.instrs.append(BinOp(scaled, "shl", idx, Const(3)))
            addr = fn.new_temp("vm_ca")
            h.instrs.append(BinOp(addr, "add", slots_base, scaled))
            value = fn.new_temp("vm_cv")
            h.instrs.append(Load(value, addr, width=8))
            args.append(value)
        result = fn.new_temp("vm_cr")
        h.instrs.append(CallInstr(result, name, tuple(args)))
        write_slot(h, a_t, result)
        h.terminator = Jump("vm_next")
        chk = fn.add_block(fn.new_label(f"vm_callchk{index}"))
        fallthrough = next_label if next_label is not None else "vm_next"
        chk.terminator = Branch("eq", b_t, Const(index), h.label, fallthrough)
        next_label = chk.label
        first_label = chk.label
    return first_label


class Virtualization(ObfuscationPass):
    """Tigress-style per-function virtualization."""

    name = "virtualization"

    def __init__(self, seed: int = 0, encode_bytecode: bool = False):
        super().__init__(seed)
        #: When set, the bytecode is stored XOR-encoded and the
        #: interpreter decodes it on first entry — the JIT-dynamic
        #: approximation (see DESIGN.md).
        self.encode_bytecode = encode_bytecode

    def run_function(self, module: IRModule, fn: IRFunction) -> None:
        rng = self._rng_for(fn)
        code = _Translator(fn).translate()
        bytecode_symbol = f"__bc_{fn.name}"
        blob = code.to_bytes()
        interp = _build_interpreter(fn.name, list(fn.params), code, bytecode_symbol, rng)
        if self.encode_bytecode:
            key = rng.getrandbits(8) or 0xA5
            blob = bytes(b ^ key for b in blob)
            _add_decoder_preamble(module, interp, bytecode_symbol, len(blob), key)
        module.global_data[bytecode_symbol] = blob
        module.functions[fn.name] = interp


def _add_decoder_preamble(
    module: IRModule, interp: IRFunction, bytecode_symbol: str, size: int, key: int
) -> None:
    """Prepend a run-once XOR decoder loop to the interpreter entry.

    A per-function "decoded" flag in .data guards the loop, so repeated
    and recursive calls skip decoding.
    """
    flag_symbol = f"__bc_flag_{interp.name}"
    module.global_vars[flag_symbol] = 8

    old_entry = interp.entry
    check = interp.add_block(interp.new_label("jit_check"))
    decode_head = interp.add_block(interp.new_label("jit_head"))
    decode_body = interp.add_block(interp.new_label("jit_body"))
    done = interp.add_block(interp.new_label("jit_done"))

    flag_addr = interp.new_temp("jit_fa")
    flag_val = interp.new_temp("jit_fv")
    check.instrs = [
        AddrOfGlobal(flag_addr, flag_symbol),
        Load(flag_val, flag_addr, width=8),
    ]
    check.terminator = Branch("eq", flag_val, Const(0), decode_head.label, old_entry)

    base = interp.new_temp("jit_base")
    index = interp.new_temp("jit_i")
    decode_head.instrs = [
        AddrOfGlobal(base, bytecode_symbol),
        Copy(index, Const(0)),
        Store(flag_addr, Const(1), width=8),
    ]
    decode_head.terminator = Jump(decode_body.label)

    addr = interp.new_temp("jit_a")
    byte = interp.new_temp("jit_b")
    dec = interp.new_temp("jit_d")
    decode_body.instrs = [
        BinOp(addr, "add", base, index),
        Load(byte, addr, width=1),
        BinOp(dec, "xor", byte, Const(key)),
        Store(addr, dec, width=1),
        BinOp(index, "add", index, Const(1)),
    ]
    decode_body.terminator = Branch("ult", index, Const(size), decode_body.label, done.label)
    done.terminator = Jump(old_entry)
    interp.entry = check.label
