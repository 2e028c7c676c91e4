"""A small two-pass text assembler for the NFL machine.

The assembler exists so that tests, examples and hand-written gadget
snippets can be expressed readably::

    from repro.isa.assembler import assemble

    code = assemble('''
        start:
            mov rax, 59
            pop rdi
            cmp rdi, 0
            jne start
            syscall
            ret
    ''')

Supported syntax (one statement per line, ``;`` or ``#`` comments
outside double-quoted strings):

* ``label:`` definitions; labels may be used as jump/call targets and
  as 64-bit immediates (``mov rax, label``).
* every mnemonic in :mod:`repro.isa.instructions`; ``mov`` picks the
  encoding from its operand shapes, ``mov32`` forces the 5-byte
  sign-extended-immediate form.
* memory operands ``[reg]``, ``[reg+imm]``, ``[reg-imm]``.
* data directives: ``.quad v``, ``.byte v``, ``.asciz "s"``, ``.zero n``.

Assembling one statement text is a pure step, so a process-wide memo
keeps its result: the encoded bytes when neither a label nor the
statement's own address enters them, else ``(op, size, operands)``,
which the second pass resolves.  The memo keeps successes only, and the
caller names the line, so a bad statement reports its own line on every
call.  Every build of a process shares the memo; it holds at most
:data:`MEMO_LIMIT` texts and is emptied when full.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .encoding import encode
from .instructions import Instruction, Op, OperandLayout, OP_TABLE
from .registers import Reg

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):$")
_MEM_RE = re.compile(r"^\[\s*([a-z0-9]+)\s*(?:([+-])\s*(\w+))?\s*\]$")
#: A line's text before its comment: a ``;`` or ``#`` inside a
#: double-quoted string (escapes included, an unclosed one running to
#: the line's end) belongs to the string.
_CODE_RE = re.compile(r'(?:[^;#"]|"(?:[^"\\]|\\.)*"?)*')

#: Most statement texts the memo keeps (about 10,000 are distinct over
#: every benchmark build together).
MEMO_LIMIT = 1 << 14


class AssemblyError(ValueError):
    """Raised on malformed assembly input."""

    def __init__(self, message: str, line_no: Optional[int] = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class _Mem(NamedTuple):
    base: Reg
    disp: int


Operand = Union[Reg, int, str, _Mem]
#: A statement the second pass resolves: ``(op, size, operands)``.
Pending = Tuple[Op, int, Tuple[Operand, ...]]

#: Statement text → encoded bytes or :data:`Pending`.
_MEMO: Dict[str, Union[bytes, Pending]] = {}


@dataclass
class AssembledUnit:
    """The output of :func:`assemble_unit`: bytes plus symbol table."""

    code: bytes
    labels: Dict[str, int]
    #: ``(address, text)`` of every statement, in source order.
    statements: Sequence[Tuple[int, str]] = ()

    @cached_property
    def instructions(self) -> List[Instruction]:
        """Each instruction statement's :class:`Instruction`, built on
        first access (directives have none)."""
        insns = []
        for addr, text in self.statements:
            parsed = _parse(text)
            if parsed.__class__ is not bytes:
                op, _size, operands = parsed
                insns.append(_build(op, operands, self.labels, addr))
        return insns


_REG_NAMES: Dict[str, Reg] = {r.name.lower(): r for r in Reg}


def _parse_int(token: str) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblyError(f"bad integer literal {token!r}") from None


def _parse_operand(token: str) -> Operand:
    reg = _REG_NAMES.get(token.lower())
    if reg is not None:
        return reg
    mem = _MEM_RE.match(token)
    if mem:
        base = _REG_NAMES.get(mem.group(1))
        if base is None:
            raise AssemblyError(f"unknown register name: {mem.group(1)!r}")
        disp = 0
        if mem.group(2):
            disp = _parse_int(mem.group(3))
            if mem.group(2) == "-":
                disp = -disp
        return _Mem(base, disp)
    try:
        return int(token, 0)
    except ValueError:
        return token  # a label reference


# Op selection reads the operand shapes: register "r", memory "m", and
# immediate or label "i".
_SHAPES = {Reg: "r", _Mem: "m", int: "i", str: "i"}
_SHAPED: Dict[str, Dict[str, Op]] = {
    "mov": {"rr": Op.MOV_RR, "ri": Op.MOV_RI, "rm": Op.LOAD, "mr": Op.STORE},
    "jmp": {"r": Op.JMP_R, "m": Op.JMP_M, "i": Op.JMP_REL},
    "call": {"r": Op.CALL_R, "m": Op.CALL_REL, "i": Op.CALL_REL},
    "push": {"r": Op.PUSH_R, "m": Op.PUSH_I, "i": Op.PUSH_I},
}
for _mnemonic, (_rr, _ri) in {
    "add": (Op.ADD_RR, Op.ADD_RI),
    "sub": (Op.SUB_RR, Op.SUB_RI),
    "and": (Op.AND_RR, Op.AND_RI),
    "or": (Op.OR_RR, Op.OR_RI),
    "xor": (Op.XOR_RR, Op.XOR_RI),
    "cmp": (Op.CMP_RR, Op.CMP_RI),
    "test": (Op.TEST_RR, Op.TEST_RI),
}.items():
    _SHAPED[_mnemonic] = {a + b: _rr if b == "r" else _ri for a in "rmi" for b in "rmi"}

# Mnemonics that map to a single opcode whatever their operands.
_SIMPLE: Dict[str, Op] = {}
for _op, _inf in OP_TABLE.items():
    if _inf.mnemonic not in _SHAPED:
        _SIMPLE.setdefault(_inf.mnemonic, _op)
# The canonical pop encoding is the one-byte form.
_SIMPLE["pop"] = Op.POP1
_SIMPLE["mov32"] = Op.MOV_RI32
_COUNTS = ("no operands", "one operand", "two operands")


def _select_op(mnemonic: str, operands: Tuple[Operand, ...]) -> Op:
    table = _SHAPED.get(mnemonic)
    if table is None:
        op = _SIMPLE.get(mnemonic)
        if op is None:
            raise AssemblyError(f"unknown mnemonic {mnemonic!r}")
        return op
    shapes = "".join(_SHAPES[o.__class__] for o in operands)
    op = table.get(shapes)
    if op is None:
        arity = len(next(iter(table)))
        if mnemonic == "mov" and len(shapes) == arity:
            raise AssemblyError("unsupported mov operand combination")
        raise AssemblyError(f"{mnemonic} takes {_COUNTS[arity]}")
    return op


#: The Instruction field each operand position fills, per layout; "mem"
#: fills ``base`` and ``disp``.
_SLOTS: Dict[OperandLayout, Tuple[str, ...]] = {
    OperandLayout.NONE: (),
    OperandLayout.REG: ("dst",),
    OperandLayout.REG_IN_OPCODE: ("dst",),
    OperandLayout.REG_REG: ("dst", "src"),
    OperandLayout.REG_IMM64: ("dst", "imm"),
    OperandLayout.REG_IMM32: ("dst", "imm"),
    OperandLayout.REG_IMM8: ("dst", "imm"),
    OperandLayout.REG_MEM: ("dst", "mem"),
    OperandLayout.MEM_REG: ("mem", "src"),
    OperandLayout.IMM64: ("imm",),
    OperandLayout.REL32: ("rel",),
    OperandLayout.MEM: ("mem",),
}
_OP_SLOTS = {op: _SLOTS[info.layout] for op, info in OP_TABLE.items()}
#: Ops whose encoding depends on the statement's own address, and
#: their encoding: the opcode byte, then the target's offset from the
#: instruction's end.
_REL32_OPS = frozenset(op for op, info in OP_TABLE.items() if info.layout is OperandLayout.REL32)
_REL32_FORM = struct.Struct("<Bi")


def _build(
    op: Op, operands: Sequence[Operand], labels: Dict[str, int], addr: int
) -> Instruction:
    """The Instruction a statement assembles to at ``addr``; extra
    operands are ignored."""
    slots = _OP_SLOTS[op]
    mnemonic = OP_TABLE[op].mnemonic
    if len(operands) < len(slots):
        raise AssemblyError(f"{mnemonic} takes {_COUNTS[len(slots)]}")
    fields: dict = {"addr": addr}
    for slot, value in zip(slots, operands):
        if slot == "mem":
            if value.__class__ is not _Mem:
                raise AssemblyError(f"{mnemonic} expects a memory operand, got {value!r}")
            if not -(1 << 31) <= value.disp < (1 << 31):
                raise AssemblyError(f"displacement out of range: {value.disp:#x}")
            fields["base"], fields["disp"] = value
        elif slot == "imm" or slot == "rel":
            if value.__class__ is str:
                if value not in labels:
                    raise AssemblyError(f"undefined label {value!r}")
                value = labels[value]
            elif not isinstance(value, int):
                raise AssemblyError(f"expected immediate or label, got {value!r}")
            if slot == "rel":
                value -= addr + OP_TABLE[op].size
            fields[slot] = value
        elif isinstance(value, int):
            fields[slot] = value
        else:
            raise AssemblyError(f"{mnemonic} expects a register, got {value!r}")
    return Instruction(op=op, **fields)


def _parse_directive(mnemonic: str, rest: str) -> bytes:
    if mnemonic == ".quad":
        values = [_parse_int(v.strip()) for v in rest.split(",")]
        return b"".join(struct.pack("<Q", v & ((1 << 64) - 1)) for v in values)
    if mnemonic == ".byte":
        values = [_parse_int(v.strip()) for v in rest.split(",")]
        return bytes(v & 0xFF for v in values)
    if mnemonic == ".zero":
        return b"\x00" * _parse_int(rest.strip())
    if mnemonic == ".asciz":
        text = rest.strip()
        if not (text.startswith('"') and text.endswith('"')):
            raise AssemblyError(".asciz expects a double-quoted string")
        try:
            body = text[1:-1].encode().decode("unicode_escape").encode("latin-1")
        except UnicodeError as exc:
            raise AssemblyError(f".asciz string {text}: {exc.reason}") from None
        return body + b"\x00"
    raise AssemblyError(f"unknown directive {mnemonic!r}")


def _parse(text: str) -> Union[bytes, Pending]:
    """A directive's bytes, or an instruction's ``(op, size, operands)``."""
    parts = text.split(None, 1)
    mnemonic = parts[0].lower()
    rest = parts[1] if len(parts) > 1 else ""
    if mnemonic.startswith("."):
        return _parse_directive(mnemonic, rest)
    operands = tuple(_parse_operand(t.strip()) for t in rest.split(",")) if rest else ()
    op = _select_op(mnemonic, operands)
    return op, OP_TABLE[op].size, operands


def _entry(text: str) -> Union[bytes, Pending]:
    """What the memo keeps for ``text``, stored there on success."""
    parsed = _parse(text)
    if parsed.__class__ is not bytes:
        op, _size, operands = parsed
        if op not in _REL32_OPS and str not in map(type, operands):
            try:
                parsed = encode(_build(op, operands, {}, 0))
            except ValueError:
                # Fails again, naming its line, where the second pass
                # resolves it; the memo keeps successes only.
                return parsed
    if len(_MEMO) >= MEMO_LIMIT:
        _MEMO.clear()
    _MEMO[text] = parsed
    return parsed


def _take_labels(line: str, labels: Dict[str, int], addr: int, line_no: int) -> str:
    """Define the labels that open ``line``; returns the rest."""
    while True:
        parts = line.split(None, 1)
        match = _LABEL_RE.match(parts[0])
        if match is None:
            return line
        name = match.group(1)
        if name in labels:
            raise AssemblyError(f"duplicate label {name!r}", line_no)
        labels[name] = addr
        if len(parts) == 1:
            return ""
        line = parts[1].strip()


def assemble_unit(
    source: str, base_addr: int = 0, extra_labels: Optional[Dict[str, int]] = None
) -> AssembledUnit:
    """Assemble ``source`` and return bytes, labels, and instruction list.

    ``extra_labels`` pre-defines symbols (e.g. data-section addresses
    assigned by the linker) that the source may reference but not define.
    """
    labels: Dict[str, int] = dict(extra_labels or {})
    memo = _MEMO
    pieces: List[bytes] = []
    pending: List[Tuple[int, int, Pending, int]] = []  # (piece, line, entry, addr)
    statements: List[Tuple[int, str]] = []
    addr = base_addr

    for line_no, raw in enumerate(source.splitlines(), start=1):
        if '"' in raw:
            line = _CODE_RE.match(raw).group().strip()
        else:
            line = raw.split(";", 1)[0].split("#", 1)[0].strip()
        if not line:
            continue
        if ":" in line:
            line = _take_labels(line, labels, addr, line_no)
            if not line:
                continue
        entry = memo.get(line)
        if entry is None:
            try:
                entry = _entry(line)
            except AssemblyError as exc:
                raise AssemblyError(str(exc), line_no) from None
        statements.append((addr, line))
        if entry.__class__ is bytes:
            pieces.append(entry)
            addr += len(entry)
        else:
            pending.append((len(pieces), line_no, entry, addr))
            pieces.append(b"")
            addr += entry[1]

    for index, line_no, (op, size, operands), at in pending:
        # Most are a jump or call to a label, packed here directly.
        target = labels.get(operands[0]) if operands and op in _REL32_OPS else None
        if target is not None and -(1 << 31) <= target - at - size < (1 << 31):
            pieces[index] = _REL32_FORM.pack(op, target - at - size)
            continue
        try:
            pieces[index] = encode(_build(op, operands, labels, at))
        except ValueError as exc:
            raise AssemblyError(str(exc), line_no) from None
    return AssembledUnit(code=b"".join(pieces), labels=labels, statements=statements)


def assemble(source: str, base_addr: int = 0) -> bytes:
    """Assemble ``source`` and return just the encoded bytes."""
    return assemble_unit(source, base_addr).code
