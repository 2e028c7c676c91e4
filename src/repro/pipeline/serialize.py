"""Stable binary serialization for gadget pools.

The persistent cache stores whole pools of :class:`GadgetRecord` on
disk, so records need a byte form.  ``pickle`` would
work, but its output is not canonical (memo ids, protocol drift), and
the cache is *content-addressed* — two byte-identical pools must hash
identically across processes and Python versions.  So records get an
explicit, versioned encoding instead:

* expressions are written as a pre-order tagged tree and decoded back
  into the *exact* same dataclasses (no smart-constructor re-runs, so
  a round trip is the identity);
* enums are written by table index — the tables below are part of the
  format, so reordering an enum requires bumping ``FORMAT_VERSION``;
* integers use LEB128 varints (zig-zag for signed), which keeps small
  pools small and round-trips arbitrary-width Python ints exactly.

``pool_to_bytes(records)`` is deterministic given the records, which
is what makes "the cached pool is byte-identical to the computed pool"
testable with a single bytes comparison.

The writer builds a pool from byte pieces, each made once per
:class:`EncodeMemo`: a record's bytes, an instruction's bytes (the
decode graph keeps one :class:`Instruction` per offset, which every
record through it shares) and a symbol name's bytes.  A run that
stores its extract pool and then its winnowed pool, whose records are
the same objects, hands both stores one memo, so the second store only
joins pieces.  :func:`repro.fuzz.oracles.reference_pool_to_bytes`
writes the same format field by field; the ``serialize`` oracle
compares the two.
"""

from __future__ import annotations

import struct
from dataclasses import asdict
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

from ..gadgets.record import GadgetRecord, JmpType
from ..isa.instructions import Instruction, Op
from ..isa.registers import ALL_REGS, Reg
from ..symex.executor import EndKind
from ..symex.expr import (
    BVBin,
    BVBinOp,
    BVConst,
    BVIte,
    BVSym,
    BVUn,
    BVUnOp,
    BoolConn,
    BoolConst,
    BoolExpr,
    Cmp,
    CmpOp,
)
from ..symex.state import MemRead, MemWrite

#: Bump when the encoding (or any enum table order) changes; the cache
#: keys include it, so old cache entries become unreachable, not wrong.
FORMAT_VERSION = 1

_POOL_MAGIC = b"NFLP"

# Enum tables: index-in-list is the wire encoding.
_BIN_OPS = list(BVBinOp)
_UN_OPS = list(BVUnOp)
_CMP_OPS = list(CmpOp)
_CONNS = list(BoolConn)
_JMP_TYPES = list(JmpType)
_END_KINDS = list(EndKind)

# Expression node tags.
_T_BVCONST = 0x01
_T_BVSYM = 0x02
_T_BVBIN = 0x03
_T_BVUN = 0x04
_T_BVITE = 0x05
_T_BOOLCONST = 0x10
_T_CMP = 0x11
_T_BOOLEXPR = 0x12

_NO_REG = 0xFF


class SerializationError(ValueError):
    """Raised on a malformed or version-mismatched pool blob."""


class EncodeMemo:
    """The byte pieces :func:`pool_to_bytes` made in one run.

    Records and instructions are keyed by identity, so the memo keeps
    every one it encoded alive (``kept``), must not outlive the run
    that owns it, and assumes that none of them changes while it lives.
    Symbol names are keyed by value.  ``reused`` counts the records
    whose bytes an earlier pool through this memo made.
    """

    __slots__ = ("records", "insns", "syms", "kept", "reused")

    def __init__(self) -> None:
        self.records: Dict[int, bytes] = {}
        self.insns: Dict[int, bytes] = {}
        self.syms: Dict[str, bytes] = {}
        self.kept: List[object] = []
        self.reused = 0


# Byte pieces: every varint below 128, and each enum value with the tag
# it follows.
_SMALL_VARINTS = tuple(bytes((value,)) for value in range(0x80))
_REG_BYTES: Dict[Optional[Reg], bytes] = {None: bytes((_NO_REG,))}
_REG_BYTES.update((reg, bytes((int(reg),))) for reg in Reg)
_BIN_HEADS = {op: bytes((_T_BVBIN, i)) for i, op in enumerate(_BIN_OPS)}
_UN_HEADS = {op: bytes((_T_BVUN, i)) for i, op in enumerate(_UN_OPS)}
_CMP_HEADS = {op: bytes((_T_CMP, i)) for i, op in enumerate(_CMP_OPS)}
_CONN_HEADS = {conn: bytes((_T_BOOLEXPR, i)) for i, conn in enumerate(_CONNS)}
_JMP_BYTES = {kind: bytes((i,)) for i, kind in enumerate(_JMP_TYPES)}
_END_BYTES = {kind: bytes((i,)) for i, kind in enumerate(_END_KINDS)}
_ITE_HEAD = bytes((_T_BVITE,))
_TRUE = bytes((_T_BOOLCONST, 1))
_FALSE = bytes((_T_BOOLCONST, 0))
_PACK_CONST = struct.Struct("<BQ").pack
_MASK64 = (1 << 64) - 1


def _varint(value: int) -> bytes:
    """LEB128 of ``value``: a table read below 128."""
    if 0 <= value < 0x80:
        return _SMALL_VARINTS[value]
    if value < 0:
        raise SerializationError(f"varint requires value >= 0, got {value}")
    out = bytearray()
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _sint(value: int) -> bytes:
    # Zig-zag: arbitrary-precision, exact for any Python int.
    return _varint(value * 2 if value >= 0 else -value * 2 - 1)


def _opt_sint(value: Optional[int]) -> bytes:
    return b"\x00" if value is None else b"\x01" + _sint(value)


def _string(text: str) -> bytes:
    encoded = text.encode()
    return _varint(len(encoded)) + encoded


class _Reader:
    def __init__(self, blob: bytes) -> None:
        self.blob = blob
        self.pos = 0

    def u8(self) -> int:
        try:
            value = self.blob[self.pos]
        except IndexError:
            raise SerializationError("truncated pool blob") from None
        self.pos += 1
        return value

    def u64(self) -> int:
        try:
            (value,) = struct.unpack_from("<Q", self.blob, self.pos)
        except struct.error as exc:
            raise SerializationError(f"truncated pool blob: {exc}") from None
        self.pos += 8
        return value

    def varint(self) -> int:
        value = 0
        shift = 0
        while True:
            byte = self.u8()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    def sint(self) -> int:
        raw = self.varint()
        return raw // 2 if raw % 2 == 0 else -(raw + 1) // 2

    def opt_sint(self):
        return self.sint() if self.u8() else None

    def string(self) -> str:
        length = self.varint()
        out = self.blob[self.pos : self.pos + length]
        if len(out) != length:
            raise SerializationError("truncated string")
        self.pos += length
        return out.decode()

    def reg(self):
        value = self.u8()
        return None if value == _NO_REG else Reg(value)

    def bool(self) -> bool:
        return bool(self.u8())


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def _put_expr(buf: bytearray, expr, syms: Dict[str, bytes]) -> None:
    """Append ``expr`` to ``buf`` as a pre-order tagged tree."""
    kind = type(expr)
    if kind is BVSym:
        piece = syms.get(expr.name)
        if piece is None:
            piece = syms[expr.name] = bytes((_T_BVSYM,)) + _string(expr.name)
        buf += piece
    elif kind is BVConst:
        buf += _PACK_CONST(_T_BVCONST, expr.value & _MASK64)
    elif kind is BVBin:
        buf += _BIN_HEADS[expr.op]
        _put_expr(buf, expr.lhs, syms)
        _put_expr(buf, expr.rhs, syms)
    elif kind is BVUn:
        buf += _UN_HEADS[expr.op]
        _put_expr(buf, expr.arg, syms)
    elif kind is BVIte:
        buf += _ITE_HEAD
        _put_expr(buf, expr.cond, syms)
        _put_expr(buf, expr.then, syms)
        _put_expr(buf, expr.other, syms)
    elif kind is Cmp:
        buf += _CMP_HEADS[expr.op]
        _put_expr(buf, expr.lhs, syms)
        _put_expr(buf, expr.rhs, syms)
    elif kind is BoolExpr:
        buf += _CONN_HEADS[expr.conn]
        buf += _varint(len(expr.args))
        for arg in expr.args:
            _put_expr(buf, arg, syms)
    elif kind is BoolConst:
        buf += _TRUE if expr.value else _FALSE
    else:
        raise SerializationError(f"cannot serialize expression {expr!r}")


def _read_expr(r: _Reader):
    # Rebuild the raw dataclasses — NOT the smart constructors — so the
    # decoded tree is structurally identical to what was written.
    tag = r.u8()
    if tag == _T_BVCONST:
        return BVConst(r.u64())
    if tag == _T_BVSYM:
        return BVSym(r.string())
    if tag == _T_BVBIN:
        op = _BIN_OPS[r.u8()]
        return BVBin(op, _read_expr(r), _read_expr(r))
    if tag == _T_BVUN:
        op = _UN_OPS[r.u8()]
        return BVUn(op, _read_expr(r))
    if tag == _T_BVITE:
        return BVIte(_read_expr(r), _read_expr(r), _read_expr(r))
    if tag == _T_BOOLCONST:
        return BoolConst(r.bool())
    if tag == _T_CMP:
        op = _CMP_OPS[r.u8()]
        return Cmp(op, _read_expr(r), _read_expr(r))
    if tag == _T_BOOLEXPR:
        conn = _CONNS[r.u8()]
        count = r.varint()
        return BoolExpr(conn, tuple(_read_expr(r) for _ in range(count)))
    raise SerializationError(f"unknown expression tag {tag:#x}")


# ---------------------------------------------------------------------------
# Instructions and memory effects
# ---------------------------------------------------------------------------


def _insn_bytes(insn: Instruction) -> bytes:
    return b"".join(
        (
            _varint(int(insn.op)),
            _REG_BYTES[insn.dst],
            _REG_BYTES[insn.src],
            _REG_BYTES[insn.base],
            _sint(insn.disp),
            _opt_sint(insn.imm),
            _opt_sint(insn.rel),
            _varint(insn.addr),
        )
    )


def _read_insn(r: _Reader) -> Instruction:
    return Instruction(
        op=Op(r.varint()),
        dst=r.reg(),
        src=r.reg(),
        base=r.reg(),
        disp=r.sint(),
        imm=r.opt_sint(),
        rel=r.opt_sint(),
        addr=r.varint(),
    )


def _read_mem_read(r: _Reader) -> MemRead:
    return MemRead(addr=_read_expr(r), value_sym=BVSym(r.string()), width=r.u8())


def _read_mem_write(r: _Reader) -> MemWrite:
    return MemWrite(
        addr=_read_expr(r), value=_read_expr(r), width=r.u8(), stack_offset=r.opt_sint()
    )


def _reg_mask(regs) -> int:
    mask = 0
    for reg in regs:
        mask |= 1 << int(reg)
    return mask


def _mask_regs(mask: int):
    return frozenset(reg for reg in ALL_REGS if mask & (1 << int(reg)))


# ---------------------------------------------------------------------------
# Records and pools
# ---------------------------------------------------------------------------


def _record_bytes(record: GadgetRecord, memo: EncodeMemo) -> bytes:
    syms = memo.syms
    insn_bytes = memo.insns
    buf = bytearray(_varint(record.gadget_id))
    buf += _varint(record.location)
    buf += _varint(record.length)
    buf += _varint(len(record.insns))
    for insn in record.insns:
        piece = insn_bytes.get(id(insn))
        if piece is None:
            piece = insn_bytes[id(insn)] = _insn_bytes(insn)
            memo.kept.append(insn)
        buf += piece
    buf += _JMP_BYTES[record.jmp_type]
    buf += _END_BYTES[record.end]
    buf += _varint(len(record.pre_cond))
    for cond in record.pre_cond:
        _put_expr(buf, cond, syms)
    post_regs = record.post_regs
    for reg in ALL_REGS:  # fixed order: part of the format
        _put_expr(buf, post_regs[reg], syms)
    _put_expr(buf, record.jump_target, syms)
    buf += _varint(_reg_mask(record.clob_regs))
    buf += _varint(_reg_mask(record.ctrl_regs))
    buf += _opt_sint(record.stack_delta)
    buf += b"\x01" if record.stack_smashed else b"\x00"
    buf += _varint(len(record.mem_reads))
    for read in record.mem_reads:
        _put_expr(buf, read.addr, syms)
        buf += _string(read.value_sym.name)
        buf.append(read.width & 0xFF)
    buf += _varint(len(record.mem_writes))
    for write in record.mem_writes:
        _put_expr(buf, write.addr, syms)
        _put_expr(buf, write.value, syms)
        buf.append(write.width & 0xFF)
        buf += _opt_sint(write.stack_offset)
    buf += _sint(record.max_stack_offset)
    buf += _varint(record.conditional_jumps)
    buf += _varint(record.merged_direct_jumps)
    return bytes(buf)


def _read_record(r: _Reader) -> GadgetRecord:
    gadget_id = r.varint()
    location = r.varint()
    length = r.varint()
    insns = [_read_insn(r) for _ in range(r.varint())]
    jmp_type = _JMP_TYPES[r.u8()]
    end = _END_KINDS[r.u8()]
    pre_cond = [_read_expr(r) for _ in range(r.varint())]
    post_regs = {reg: _read_expr(r) for reg in ALL_REGS}
    jump_target = _read_expr(r)
    clob_regs = _mask_regs(r.varint())
    ctrl_regs = _mask_regs(r.varint())
    stack_delta = r.opt_sint()
    stack_smashed = r.bool()
    mem_reads = [_read_mem_read(r) for _ in range(r.varint())]
    mem_writes = [_read_mem_write(r) for _ in range(r.varint())]
    max_stack_offset = r.sint()
    conditional_jumps = r.varint()
    merged_direct_jumps = r.varint()
    return GadgetRecord(
        gadget_id=gadget_id,
        location=location,
        length=length,
        insns=insns,
        jmp_type=jmp_type,
        end=end,
        pre_cond=pre_cond,
        post_regs=post_regs,
        jump_target=jump_target,
        clob_regs=clob_regs,
        ctrl_regs=ctrl_regs,
        stack_delta=stack_delta,
        stack_smashed=stack_smashed,
        mem_reads=mem_reads,
        mem_writes=mem_writes,
        max_stack_offset=max_stack_offset,
        conditional_jumps=conditional_jumps,
        merged_direct_jumps=merged_direct_jumps,
    )


_Decoded = TypeVar("_Decoded")


def _read_all(blob: bytes, read: Callable[[_Reader], _Decoded], what: str) -> _Decoded:
    """``read`` over the whole of ``blob``.  A malformed blob raises
    :class:`SerializationError`, whatever its first bad byte trips
    (a bad enum index or value, bad UTF-8)."""
    r = _Reader(blob)
    try:
        value = read(r)
    except SerializationError:
        raise
    except (IndexError, ValueError, RecursionError) as exc:
        raise SerializationError(f"malformed {what}: {exc!r}") from None
    if r.pos != len(blob):
        raise SerializationError(f"{len(blob) - r.pos} trailing bytes after {what}")
    return value


def record_to_bytes(record: GadgetRecord) -> bytes:
    """Canonical encoding of one record (no pool header)."""
    return _record_bytes(record, EncodeMemo())


def record_from_bytes(blob: bytes) -> GadgetRecord:
    """Inverse of :func:`record_to_bytes`."""
    return _read_all(blob, _read_record, "record")


_POOL_HEADER = _POOL_MAGIC + bytes((FORMAT_VERSION,))


def pool_to_bytes(records: Sequence[GadgetRecord], memo: Optional[EncodeMemo] = None) -> bytes:
    """Canonical encoding of a whole pool (ordered, versioned).

    Through ``memo``, a record or instruction whose bytes an earlier
    call made is not encoded again.
    """
    memo = memo if memo is not None else EncodeMemo()
    known = memo.records
    pieces = [_POOL_HEADER, _varint(len(records))]
    for record in records:
        piece = known.get(id(record))
        if piece is None:
            piece = known[id(record)] = _record_bytes(record, memo)
            memo.kept.append(record)
        else:
            memo.reused += 1
        pieces.append(piece)
    return b"".join(pieces)


def _read_pool(r: _Reader) -> List[GadgetRecord]:
    if r.blob[: len(_POOL_MAGIC)] != _POOL_MAGIC:
        raise SerializationError("bad pool magic")
    r.pos = len(_POOL_MAGIC)
    version = r.u8()
    if version != FORMAT_VERSION:
        raise SerializationError(f"pool format v{version}, expected v{FORMAT_VERSION}")
    return [_read_record(r) for _ in range(r.varint())]


def pool_from_bytes(blob: bytes) -> List[GadgetRecord]:
    """Inverse of :func:`pool_to_bytes`."""
    return _read_all(blob, _read_pool, "pool")


def config_key_bytes(config: Any) -> bytes:
    """A canonical byte string for a config dataclass (cache keying).

    Field *names* are included, so adding a knob (even with a default)
    changes every key — a new knob means the old pools were computed
    under unspecified semantics for it.
    """
    items = sorted(asdict(config).items())
    return repr(items).encode()
