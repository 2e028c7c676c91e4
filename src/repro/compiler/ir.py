"""Three-address intermediate representation.

The IR is a control-flow graph of basic blocks over virtual temporaries.
It is the layer every obfuscation pass transforms: instruction
substitution rewrites :class:`BinOp` instructions, bogus control flow
and flattening rewrite the block graph, encode-data rewrites constants,
and virtualization replaces a function's body wholesale with an
interpreter loop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Temp:
    """A virtual register."""

    name: str

    def __str__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class Const:
    """A 64-bit constant."""

    value: int

    def __str__(self) -> str:
        return f"{self.value:#x}" if abs(self.value) > 9 else str(self.value)


Value = Union[Temp, Const]


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IRInstr:
    pass


@dataclass(frozen=True)
class BinOp(IRInstr):
    dst: Temp
    op: str
    lhs: Value
    rhs: Value

    def __str__(self) -> str:
        return f"{self.dst} = {self.op} {self.lhs}, {self.rhs}"


@dataclass(frozen=True)
class UnOp(IRInstr):
    dst: Temp
    op: str
    src: Value

    def __str__(self) -> str:
        return f"{self.dst} = {self.op} {self.src}"


@dataclass(frozen=True)
class Copy(IRInstr):
    dst: Temp
    src: Value

    def __str__(self) -> str:
        return f"{self.dst} = {self.src}"


@dataclass(frozen=True)
class CmpSet(IRInstr):
    """dst = (lhs <op> rhs) ? 1 : 0."""

    dst: Temp
    op: str
    lhs: Value
    rhs: Value

    def __str__(self) -> str:
        return f"{self.dst} = {self.op} {self.lhs}, {self.rhs}"


@dataclass(frozen=True)
class Load(IRInstr):
    dst: Temp
    addr: Value
    width: int = 8  # 8 or 1

    def __str__(self) -> str:
        return f"{self.dst} = load{self.width} [{self.addr}]"


@dataclass(frozen=True)
class Store(IRInstr):
    addr: Value
    src: Value
    width: int = 8

    def __str__(self) -> str:
        return f"store{self.width} [{self.addr}], {self.src}"


@dataclass(frozen=True)
class AddrOfLocal(IRInstr):
    """dst = address of a stack-allocated array/buffer."""

    dst: Temp
    local: str

    def __str__(self) -> str:
        return f"{self.dst} = &local {self.local}"


@dataclass(frozen=True)
class AddrOfGlobal(IRInstr):
    dst: Temp
    symbol: str

    def __str__(self) -> str:
        return f"{self.dst} = &global {self.symbol}"


@dataclass(frozen=True)
class CallInstr(IRInstr):
    dst: Optional[Temp]
    func: str
    args: Tuple[Value, ...]

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        prefix = f"{self.dst} = " if self.dst else ""
        return f"{prefix}call {self.func}({args})"


def instr_defs(instr: IRInstr) -> Tuple[Temp, ...]:
    """Temporaries written by ``instr`` (0 or 1 in the current IR)."""
    dst = getattr(instr, "dst", None)
    return (dst,) if isinstance(dst, Temp) else ()


def instr_uses(instr: IRInstr) -> Tuple[Value, ...]:
    """Values read by ``instr``, in field order."""
    out: List[Value] = []
    for name, f in vars(instr).items():
        if name == "dst":
            continue
        if isinstance(f, tuple):
            out.extend(x for x in f if isinstance(x, (Temp, Const)))
        elif isinstance(f, (Temp, Const)):
            out.append(f)
    return tuple(out)


# ---------------------------------------------------------------------------
# Terminators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Terminator:
    pass


@dataclass(frozen=True)
class Jump(Terminator):
    target: str

    def __str__(self) -> str:
        return f"jump {self.target}"


@dataclass(frozen=True)
class Branch(Terminator):
    """Fused compare-and-branch: if (lhs <op> rhs) goto then else goto els."""

    op: str
    lhs: Value
    rhs: Value
    then: str
    els: str

    def __str__(self) -> str:
        return f"br {self.op} {self.lhs}, {self.rhs} ? {self.then} : {self.els}"


@dataclass(frozen=True)
class Ret(Terminator):
    value: Optional[Value] = None

    def __str__(self) -> str:
        return f"ret {self.value}" if self.value is not None else "ret"


def terminator_uses(term: Optional[Terminator]) -> Tuple[Value, ...]:
    """Values read by a terminator."""
    if isinstance(term, Branch):
        return (term.lhs, term.rhs)
    if isinstance(term, Ret) and term.value is not None:
        return (term.value,)
    return ()


# ---------------------------------------------------------------------------
# Blocks and functions
# ---------------------------------------------------------------------------


@dataclass
class Block:
    label: str
    instrs: List[IRInstr] = field(default_factory=list)
    terminator: Optional[Terminator] = None

    def __str__(self) -> str:
        lines = [f"{self.label}:"]
        lines += [f"  {i}" for i in self.instrs]
        lines.append(f"  {self.terminator}")
        return "\n".join(lines)


@dataclass
class IRFunction:
    name: str
    params: List[str]
    blocks: Dict[str, Block] = field(default_factory=dict)
    entry: str = "entry"
    #: Stack-allocated arrays: name → size in bytes.
    local_arrays: Dict[str, int] = field(default_factory=dict)
    _counter: itertools.count = field(default_factory=itertools.count, repr=False)

    def new_temp(self, hint: str = "t") -> Temp:
        return Temp(f"{hint}{next(self._counter)}")

    def new_label(self, hint: str = "bb") -> str:
        return f"{hint}{next(self._counter)}"

    def add_block(self, label: str) -> Block:
        if label in self.blocks:
            raise ValueError(f"duplicate block label {label!r}")
        block = Block(label)
        self.blocks[label] = block
        return block

    def block_order(self) -> List[Block]:
        """Blocks in a stable order: entry first, then insertion order."""
        ordered = [self.blocks[self.entry]]
        ordered += [b for label, b in self.blocks.items() if label != self.entry]
        return ordered

    def temps(self) -> List[Temp]:
        """All temporaries referenced anywhere in the function."""
        seen: Dict[str, Temp] = {}

        def visit(v) -> None:
            if isinstance(v, Temp):
                seen.setdefault(v.name, v)

        for block in self.blocks.values():
            for instr in block.instrs:
                for v in instr_defs(instr):
                    visit(v)
                for v in instr_uses(instr):
                    visit(v)
            for v in terminator_uses(block.terminator):
                visit(v)
        for p in self.params:
            seen.setdefault(p, Temp(p))
        return list(seen.values())

    def __str__(self) -> str:
        header = f"func {self.name}({', '.join(self.params)})"
        return header + "\n" + "\n".join(str(b) for b in self.block_order())


@dataclass
class IRModule:
    """A compilation unit: functions plus global data layout."""

    functions: Dict[str, IRFunction] = field(default_factory=dict)
    #: Global scalars/arrays: name → size in bytes.
    global_vars: Dict[str, int] = field(default_factory=dict)
    #: Initial values for global words: name → value (scalars only).
    global_inits: Dict[str, int] = field(default_factory=dict)
    #: Raw initialized global blobs (e.g. VM bytecode): name → bytes.
    global_data: Dict[str, bytes] = field(default_factory=dict)
    #: Interned byte strings: label → bytes (with NUL terminator).
    string_pool: Dict[str, bytes] = field(default_factory=dict)

    def intern_string(self, data: bytes) -> str:
        for label, existing in self.string_pool.items():
            if existing == data:
                return label
        label = f"__str{len(self.string_pool)}"
        self.string_pool[label] = data
        return label

    def function(self, name: str) -> IRFunction:
        return self.functions[name]

    def __str__(self) -> str:
        return "\n\n".join(str(f) for f in self.functions.values())


_CMP_NEGATIONS = {
    "eq": "ne",
    "ne": "eq",
    "ult": "uge",
    "ule": "ugt",
    "ugt": "ule",
    "uge": "ult",
    "slt": "sge",
    "sle": "sgt",
    "sgt": "sle",
    "sge": "slt",
}


def negate_cmp(op: str) -> str:
    return _CMP_NEGATIONS[op]

