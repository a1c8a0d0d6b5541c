"""Rational affine hyperplanes: sum_j m_j x_j = m0 with primitive
integer coefficients.

The height is the sup norm of the coefficient part (m0 excluded); it is
the quantity the avoidance schedule ramps up.  Enumeration is bounded
both in height and in the constant term, since only hyperplanes whose
constant is compatible with a bounded box can meet it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .engine import signed_box
from .errors import NotPrimitive, ZeroForm
from .exact import Box, RatInterval


@dataclass(frozen=True)
class Hyperplane:
    m0: int
    mvec: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mvec", tuple(int(c) for c in self.mvec))
        object.__setattr__(self, "m0", int(self.m0))
        if all(c == 0 for c in self.mvec):
            raise ZeroForm("coefficient vector must be nonzero")
        if math.gcd(self.m0, *self.mvec) != 1:
            raise NotPrimitive(
                f"gcd of ({self.m0}; {self.mvec}) exceeds 1; "
                f"use make_primitive"
            )

    @property
    def dim(self) -> int:
        return len(self.mvec)

    def height(self) -> int:
        return max(abs(c) for c in self.mvec)

    def form_at(self, point) -> Fraction:
        acc = -Fraction(self.m0)
        for c, x in zip(self.mvec, point):
            acc += c * Fraction(x)
        return acc

    def to_json(self) -> dict:
        return {"m0": self.m0, "m": list(self.mvec)}

    @staticmethod
    def from_json(obj: dict) -> "Hyperplane":
        return Hyperplane(int(obj["m0"]), tuple(int(c) for c in obj["m"]))

    def __str__(self):
        return f"({self.m0}; {','.join(str(c) for c in self.mvec)})"


def make_primitive(m0: int, mvec) -> Hyperplane:
    """Divide out the gcd and make the first nonzero coefficient positive."""
    mvec = tuple(int(c) for c in mvec)
    if all(c == 0 for c in mvec):
        raise ZeroForm("coefficient vector must be nonzero")
    g = math.gcd(int(m0), *mvec)
    m0, mvec = int(m0) // g, tuple(c // g for c in mvec)
    lead = next(c for c in mvec if c != 0)
    if lead < 0:
        m0, mvec = -m0, tuple(-c for c in mvec)
    return Hyperplane(m0, mvec)


def coordinate_hyperplane(k: int, r, n: int) -> Hyperplane:
    """The hyperplane x_k = r for a 1-based coordinate index k.

    With r = p/q in lowest terms this is (m0=p, mvec=q*e_k); its height
    is exactly q, which is what drives the heights to infinity as the
    pinned rationals get deeper.
    """
    if not 1 <= k <= n:
        raise ZeroForm(f"coordinate index {k} outside 1..{n}")
    r = Fraction(r)
    mvec = tuple(
        r.denominator if j == k - 1 else 0 for j in range(n)
    )
    return Hyperplane(r.numerator, mvec)


def _form_range(mvec, box: Box) -> tuple[Fraction, Fraction]:
    """Exact range of sum_j m_j x_j over a box."""
    lo = hi = Fraction(0)
    for c, side in zip(mvec, box.sides):
        if c >= 0:
            lo += c * side.lo
            hi += c * side.hi
        else:
            lo += c * side.hi
            hi += c * side.lo
    return lo, hi


def interval_linform(plane: Hyperplane, box: Box) -> RatInterval:
    """Tight range of sum_j m_j x_j - m0 over a box.

    Coordinatewise monotone, so the extremes are sums of per-coordinate
    extremes.
    """
    if plane.dim != box.dim:
        raise ZeroForm("dimension mismatch between form and box")
    lo, hi = _form_range(plane.mvec, box)
    return RatInterval(lo - plane.m0, hi - plane.m0)


def enumerate_hyperplanes(n: int, height_bound: int, offset_bound: int) -> Iterator[Hyperplane]:
    """Every primitive hyperplane with height <= height_bound and
    |m0| <= offset_bound, exactly once, in (mvec, m0) lexicographic order.
    """
    if height_bound < 1:
        raise ZeroForm("height bound must be at least 1")
    for mvec in signed_box((height_bound,) * n):
        for m0 in range(-offset_bound, offset_bound + 1):
            if math.gcd(m0, *mvec) == 1:
                yield Hyperplane(m0, mvec)


def hyperplanes_meeting(n: int, height_bound: int, box: Box) -> Iterator[Hyperplane]:
    """Primitive hyperplanes of height <= height_bound whose zero set can
    meet the box: the constant term is restricted to the exact integer
    range of the form over the box.  Same (mvec, m0) order.
    """
    if height_bound < 1:
        raise ZeroForm("height bound must be at least 1")
    for mvec in signed_box((height_bound,) * n):
        lo, hi = _form_range(mvec, box)
        for m0 in range(math.ceil(lo), math.floor(hi) + 1):
            if math.gcd(m0, *mvec) == 1:
                yield Hyperplane(m0, mvec)
