"""Digit-restricted subsets of the real line and their cylinder tree.

A DigitSystem fixes a base b and an allowed digit set D of size >= 2;
the point set is S = {offset + scale * sum d_i b^-i : d_i in D}.  The
middle-thirds set is base 3 with digits {0, 2}.  A Cylinder is the set
of points sharing a finite digit prefix, held as that prefix and the
integer it spells in base b.  Every point it names comes from one
formula, offset + scale * (value + t) / b**depth for a tail value t:
its hull is a closed rational interval (t = dmin/(b-1) and dmax/(b-1))
and its anchor (the all-minimum-digit tail point) is a rational member
of S.  Anchors of deeper and deeper cylinders supply the dense
rationals that the pinning construction consumes.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Iterator

from .errors import UsageError
from .exact import Box, RatInterval, json_int, rat, rat_str


@dataclass(frozen=True)
class DigitSystem:
    base: int
    digits: tuple[int, ...]
    offset: Fraction = Fraction(0)
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        if self.base < 2:
            raise UsageError("base must be at least 2")
        digits = tuple(sorted(set(self.digits)))
        object.__setattr__(self, "digits", digits)
        if len(digits) < 2:
            raise UsageError("need at least 2 allowed digits (perfectness)")
        if digits[0] < 0 or digits[-1] >= self.base:
            raise UsageError("digits must lie in 0..base-1")
        object.__setattr__(self, "offset", Fraction(self.offset))
        object.__setattr__(self, "scale", Fraction(self.scale))
        if self.scale <= 0:
            raise UsageError("scale must be positive")

    @property
    def dmin(self) -> int:
        return self.digits[0]

    @property
    def dmax(self) -> int:
        return self.digits[-1]

    def hull(self) -> RatInterval:
        return Cylinder.root(self).hull()

    def to_json(self) -> dict:
        return {
            "base": self.base,
            "digits": list(self.digits),
            "offset": rat_str(self.offset),
            "scale": rat_str(self.scale),
        }

    @staticmethod
    def from_json(obj: dict) -> "DigitSystem":
        return DigitSystem(
            json_int(obj["base"]),
            tuple(map(json_int, obj["digits"])),
            rat(obj.get("offset", "0")),
            rat(obj.get("scale", "1")),
        )

    @staticmethod
    def digits_str(base: int, digits: tuple[int, ...]) -> str:
        return ("" if base <= 10 else ",").join(map(str, digits))

    @staticmethod
    def parse_digits(base: int, text: str) -> tuple[int, ...]:
        text = text.strip()
        if not text:
            return ()
        try:
            if "," in text:
                return tuple(map(int, text.split(",")))
            if base > 10:
                return (int(text),)
            return tuple(map(int, text))
        except ValueError as exc:
            raise UsageError(f"bad digit string: {text!r}") from exc


# Prefixes at most this long take a plain Horner loop in _digits_value.
_HORNER_LEAF = 64


def _digits_value(digits: tuple[int, ...], base: int) -> int:
    """The integer whose base-`base` digits are `digits`.

    A Horner loop over a long prefix is quadratic, since its
    accumulator grows with every digit.  Splitting in halves as
    high * base**len(low) + low leaves the work to a few large
    products instead, which is subquadratic.
    """
    if len(digits) <= _HORNER_LEAF:
        acc = 0
        for d in digits:
            acc = acc * base + d
        return acc
    mid = len(digits) // 2
    high, low = digits[:mid], digits[mid:]
    return _digits_value(high, base) * base ** len(low) + _digits_value(low, base)


class Cylinder:
    """Points of a digit system sharing a fixed finite prefix, held as
    the prefix tuple and value, the integer it spells in base b: a child
    is value * b + d, so a deep descent never re-scans the prefix.  Hull,
    anchor and the system's hull all come from one formula, _point.
    """

    __slots__ = ("system", "prefix", "value")

    def __init__(self, system: DigitSystem, prefix=(), _value=None):
        self.system = system
        self.prefix = tuple(prefix)
        if _value is None:
            bad = [d for d in self.prefix if d not in system.digits]
            if bad:
                raise UsageError(f"digits {bad} are not allowed in this system")
            _value = _digits_value(self.prefix, system.base)
        self.value = _value

    @classmethod
    def root(cls, system: DigitSystem) -> "Cylinder":
        return cls(system, ())

    @property
    def depth(self) -> int:
        return len(self.prefix)

    def child(self, digit: int) -> "Cylinder":
        if digit not in self.system.digits:
            raise UsageError(f"digit {digit} not allowed")
        value = self.value * self.system.base + digit
        return Cylinder(self.system, self.prefix + (digit,), value)

    def children(self) -> list["Cylinder"]:
        return [self.child(d) for d in self.system.digits]

    def extend(self, digits) -> "Cylinder":
        cyl = self
        for d in digits:
            cyl = cyl.child(d)
        return cyl

    def descend_min(self, levels: int) -> "Cylinder":
        """Follow the smallest digit `levels` times, in O(1) arithmetic.

        Keeps the anchor fixed: the hull's low endpoint does not move.
        """
        if levels <= 0:
            return self
        sysm = self.system
        b, dmin = sysm.base, sysm.dmin
        power = b**levels
        value = self.value * power + dmin * (power - 1) // (b - 1)
        return Cylinder(sysm, self.prefix + (dmin,) * levels, value)

    def _point(self, tail: Fraction) -> Fraction:
        """offset + scale * (value + tail) / b**depth, the point whose
        digits after the prefix read as tail = sum d_i b^-i."""
        sysm = self.system
        num, den = tail.numerator, tail.denominator
        x = Fraction(self.value * den + num, den * sysm.base**self.depth)
        return sysm.offset + sysm.scale * x

    def hull(self) -> RatInterval:
        span = self.system.base - 1
        return RatInterval(
            self._point(Fraction(self.system.dmin, span)),
            self._point(Fraction(self.system.dmax, span)),
        )

    def anchor(self) -> Fraction:
        """The all-minimum-digit tail point: hull.lo, a member of S."""
        return self._point(Fraction(self.system.dmin, self.system.base - 1))

    def prefix_str(self) -> str:
        return DigitSystem.digits_str(self.system.base, self.prefix)

    def __repr__(self):
        return f"Cylinder({self.system.base}:{self.prefix_str()!r})"


def rationals_in(
    c: Cylinder, min_depth: int
) -> Iterator[tuple[Fraction, Cylinder]]:
    """Anchors of sub-cylinders at depth >= min_depth, each exactly once.

    Breadth-first by depth, digit-lexicographic within a level.  A
    sub-cylinder whose last digit is the minimum digit shares its anchor
    with its parent, so past the starting level those are skipped.
    """
    if min_depth < c.depth:
        raise UsageError("min_depth must be at least the prefix depth")
    dmin = c.system.dmin
    digits = c.system.digits
    depth = min_depth
    while True:
        for tail in iproduct(digits, repeat=depth - c.depth):
            if depth > min_depth and (not tail or tail[-1] == dmin):
                continue
            sub = c.extend(tail)
            yield sub.anchor(), sub
        depth += 1


@dataclass(frozen=True)
class ProductSet:
    factors: tuple[DigitSystem, ...]

    def __post_init__(self):
        if len(self.factors) < 2:
            raise UsageError("need at least 2 factors (n >= 2)")

    @property
    def dim(self) -> int:
        return len(self.factors)

    def hull(self) -> Box:
        return Box(tuple(f.hull() for f in self.factors))

    def to_json(self) -> list:
        return [f.to_json() for f in self.factors]

    @staticmethod
    def from_json(obj: list) -> "ProductSet":
        return ProductSet(tuple(DigitSystem.from_json(f) for f in obj))
