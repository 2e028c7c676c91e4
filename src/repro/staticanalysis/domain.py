"""The abstract domain of the mini-C overflow checker.

:class:`Interval` — unsigned intervals with widening, which the checker
(:mod:`.taint`) uses for array-index bounds.  Taint is represented as a
plain ``frozenset`` of source tokens (empty = untainted); joins are set
unions, so no dedicated class is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

#: Sentinel for an unbounded upper limit.
INF = float("inf")


@dataclass(frozen=True)
class Interval:
    """An unsigned interval ``[lo, hi]``; ``hi`` may be :data:`INF`."""

    lo: int = 0
    hi: Union[int, float] = INF

    @classmethod
    def const(cls, value: int) -> "Interval":
        return cls(value, value)

    @classmethod
    def top(cls) -> "Interval":
        return cls(0, INF)

    @property
    def is_bounded(self) -> bool:
        return self.hi is not INF

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def widen(self, other: "Interval") -> "Interval":
        """Standard widening: escape growing bounds to ±extremes."""
        lo = self.lo if other.lo >= self.lo else 0
        hi = self.hi if other.hi <= self.hi else INF
        return Interval(lo, hi)

    def add(self, other: "Interval") -> "Interval":
        hi = INF if (self.hi is INF or other.hi is INF) else self.hi + other.hi
        return Interval(self.lo + other.lo, hi)

    def sub_const(self, value: int) -> "Interval":
        # Unsigned subtraction may wrap; only the all-above case is safe.
        if self.lo >= value:
            hi = INF if self.hi is INF else self.hi - value
            return Interval(self.lo - value, hi)
        return Interval.top()

    def scale(self, factor: int) -> "Interval":
        if factor == 1:
            return self
        hi = INF if self.hi is INF else self.hi * factor
        return Interval(self.lo * factor, hi)

    def clamp_below(self, bound: Union[int, float]) -> "Interval":
        """Refine with the constraint ``value < bound`` (exclusive)."""
        if bound is INF:
            return self
        return Interval(self.lo, min(self.hi, bound - 1))

    def clamp_below_eq(self, bound: Union[int, float]) -> "Interval":
        if bound is INF:
            return self
        return Interval(self.lo, min(self.hi, bound))

    def clamp_above_eq(self, bound: int) -> "Interval":
        return Interval(max(self.lo, bound), self.hi)

    def __str__(self) -> str:
        hi = "inf" if self.hi is INF else str(self.hi)
        return f"[{self.lo}, {hi}]"
