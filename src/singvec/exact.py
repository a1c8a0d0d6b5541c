"""Exact rational helpers: parsing, intervals, boxes, distance to the
nearest integer.

Everything here is built on fractions.Fraction so that all comparisons
made by the verifier and the constructor are exact.  Floats appear only
in convenience accessors that callers explicitly ask for.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import UsageError

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_DEC_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)$")


def _allow_digits(count: int) -> None:
    # Certificates legitimately carry rationals with tens of thousands
    # of decimal digits; grow the interpreter's str<->int guard rather
    # than fail.  Never shrinks, and leaves an unlimited setting alone.
    limit = sys.get_int_max_str_digits()
    if 0 < limit <= count:
        sys.set_int_max_str_digits(count + 16)


def rat(text: str) -> Fraction:
    """Parse 'p/q' or a decimal literal into an exact Fraction."""
    text = text.strip()
    _allow_digits(len(text))
    if _RAT_RE.match(text) or _DEC_RE.match(text):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise UsageError(f"zero denominator: {text!r}") from None
    raise UsageError(f"cannot parse rational: {text!r}")


def rat_str(x: Fraction) -> str:
    """Canonical compact form: '3', '-1/2'."""
    # decimal digits <= bit length / 3 always
    _allow_digits(
        max(x.numerator.bit_length(), x.denominator.bit_length()) // 3 + 4
    )
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def dec_str(x: Fraction, digits: int = 12) -> str:
    """Round-half-even decimal rendering with a fixed digit count."""
    sign = "-" if x < 0 else ""
    x = abs(x)
    scaled = x * 10**digits
    n = scaled.numerator // scaled.denominator
    rem2 = 2 * (scaled.numerator - n * scaled.denominator)
    if rem2 > scaled.denominator or (rem2 == scaled.denominator and n % 2):
        n += 1
    whole, frac = divmod(n, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def nearest_int_dist(x: Fraction) -> Fraction:
    """Distance from x to the nearest integer, in [0, 1/2]."""
    f = x - (x.numerator // x.denominator)
    return min(f, 1 - f)


@dataclass(frozen=True)
class RatInterval:
    """Closed interval [lo, hi] with rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval: [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "RatInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def contains_interior(self, other: "RatInterval") -> bool:
        """True when other sits strictly inside, both endpoints moved."""
        return self.lo < other.lo and other.hi < self.hi

    def intersects(self, other: "RatInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def scale_add(self, a: Fraction, b: Fraction) -> "RatInterval":
        """Image under x -> a*x + b."""
        p, q = a * self.lo + b, a * self.hi + b
        return RatInterval(min(p, q), max(p, q))

    def __str__(self) -> str:
        return f"[{rat_str(self.lo)}, {rat_str(self.hi)}]"


def dist_interval(x: RatInterval) -> RatInterval:
    """Range of nearest-integer distance over a rational interval.

    Exact: splits on whether the interval spans an integer or a
    half-integer point.
    """
    if x.width >= 1:
        return RatInterval(Fraction(0), Fraction(1, 2))
    base = x.lo.numerator // x.lo.denominator
    lo, hi = x.lo - base, x.hi - base
    # now 0 <= lo < 1 and lo <= hi < 2
    vals = [nearest_int_dist(lo), nearest_int_dist(hi)]
    out_lo = min(vals)
    out_hi = max(vals)
    if lo <= 1 <= hi:
        out_lo = Fraction(0)
    half = Fraction(1, 2)
    if lo <= half <= hi or lo <= half + 1 <= hi:
        out_hi = half
    return RatInterval(out_lo, out_hi)


@dataclass(frozen=True)
class Box:
    """Axis-aligned product of closed rational intervals, one per axis."""

    sides: tuple[RatInterval, ...]

    def __post_init__(self):
        if not self.sides:
            raise ValueError("box needs at least one side")

    @property
    def dim(self) -> int:
        return len(self.sides)

    def contains_interior(self, other: "Box") -> bool:
        return self.dim == other.dim and all(
            a.contains_interior(b) for a, b in zip(self.sides, other.sides)
        )

    @property
    def midpoint(self) -> tuple[Fraction, ...]:
        return tuple(s.mid for s in self.sides)

    def __str__(self) -> str:
        return " x ".join(str(s) for s in self.sides)
