"""Abstract syntax tree for MC, the mini-C language.

MC is the source language the benchmark programs are written in.  It is
a small but genuine C subset: 64-bit unsigned integers, pointers,
fixed-size arrays, string literals, functions, the usual statements and
operators — enough to express the Banescu-style benchmark suite, the
SPEC-like programs, and the netperf-like case study (including its
unchecked-copy stack overflow).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class Type:
    """MC types: u64, pointer-to-T, or an array (only as declarations)."""

    kind: str  # "u64" | "ptr" | "array"
    elem: Optional["Type"] = None
    count: int = 0

    @property
    def is_pointer(self) -> bool:
        return self.kind == "ptr"

    def __str__(self) -> str:
        if self.kind == "u64":
            return "u64"
        if self.kind == "ptr":
            return f"{self.elem}*"
        return f"{self.elem}[{self.count}]"


U64 = Type("u64")


def array_of(elem: Type, count: int) -> Type:
    return Type("array", elem, count)


def ptr_to(elem: Type) -> Type:
    return Type("ptr", elem)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class StrLit(Expr):
    value: bytes  # without NUL terminator


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "-", "~", "!", "*", "&"
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # + - * / % & | ^ << >> == != < <= > >= && ||
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class Index(Expr):
    """``base[index]`` — byte-indexed for char pointers, word for u64."""

    base: Expr
    index: Expr


@dataclass(frozen=True)
class Assign(Expr):
    """Assignment is an expression, as in C (``a = b = 0``)."""

    target: Expr  # Var, Unary("*"), or Index
    value: Expr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stmt:
    pass


@dataclass(frozen=True)
class ExprStmt(Stmt):
    expr: Expr


@dataclass(frozen=True)
class Decl(Stmt):
    name: str
    type: Type
    init: Optional[Expr] = None


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then: Tuple[Stmt, ...]
    otherwise: Tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class While(Stmt):
    cond: Expr
    body: Tuple[Stmt, ...]


@dataclass(frozen=True)
class For(Stmt):
    init: Optional[Stmt]
    cond: Optional[Expr]
    step: Optional[Expr]
    body: Tuple[Stmt, ...]


@dataclass(frozen=True)
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass(frozen=True)
class Break(Stmt):
    pass


@dataclass(frozen=True)
class Continue(Stmt):
    pass


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    name: str
    type: Type


@dataclass(frozen=True)
class Function:
    name: str
    params: Tuple[Param, ...]
    body: Tuple[Stmt, ...]
    returns: Type = U64


@dataclass(frozen=True)
class GlobalVar:
    name: str
    type: Type
    init: Optional[Expr] = None


@dataclass
class Program:
    functions: List[Function] = field(default_factory=list)
    globals: List[GlobalVar] = field(default_factory=list)

    def function(self, name: str) -> Function:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function named {name!r}")
