"""Rational affine hyperplanes: sum_j m_j x_j = m0 with primitive
integer coefficients.

The height is the sup norm of the coefficient part (m0 excluded); it is
the quantity the avoidance schedule ramps up.  Enumeration is bounded
both in height and in the constant term, since only hyperplanes whose
constant is compatible with a bounded box can meet it.  Form ranges are
exact integer ranges over the box's one denominator den (Box.scaled;
for a box of cylinders, the one their digits give), taken by the
engine's _dot_range; meets and the constructor's separating child
decide on those integers alone, with no Fraction made.

The planes that meet a box come from the engine's one candidate walk.
A direction m meets the box only if its scaled form m . x reaches a
multiple of den: distance 0, which _sorted_box finds with its running
bound held at 0, visiting only the sorted neighbours of each prefix
instead of every direction.  It yields each prefix of signed_box order
as one group, its last coordinate nearest first, so sorting each group
restores the (mvec, m0) order in memory linear in the height.  The walk
first charges itself on its box, as a scan does (_check_walk).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterator

from .engine import _charge, _dot_range, _sorted_box, signed_box
from .errors import NotPrimitive, ZeroForm
from .exact import Box, int_str, json_int


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
        return Hyperplane(json_int(obj["m0"]), tuple(map(json_int, obj["m"])))

    def __str__(self):
        return f"({int_str(self.m0)}; {','.join(map(int_str, self.mvec))})"


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


def _scaled_box(box: Box, n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Box.scaled of an n-dimensional box."""
    if box.dim != n:
        raise ZeroForm("dimension mismatch between form and box")
    return box.scaled


def _form_range(plane: Hyperplane, box: Box) -> tuple[int, int, int]:
    """The range of sum_j m_j x_j - m0 over a box as integers (lo, hi)
    over Box.scaled's den.  Coordinatewise monotone, so the extremes
    are sums of per-coordinate extremes."""
    den, pairs = _scaled_box(box, plane.dim)
    lo, hi = _dot_range(plane.mvec, pairs)
    shift = plane.m0 * den
    return lo - shift, hi - shift, den


def meets(plane: Hyperplane, box: Box) -> bool:
    """Whether the plane's zero set meets the box: 0 lies in the form's
    range, decided on its integers, with no Fraction made."""
    lo, hi, _ = _form_range(plane, box)
    return lo <= 0 <= hi


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


def _check_walk(n: int, height: int, box: Box) -> None:
    """Charge the walk of hyperplanes_meeting at height over box: at most
    ((2H+1)**n - 1)/2 directions, each with at most floor(H * the sum of
    the side widths) + 1 constant terms."""
    den, pairs = _scaled_box(box, n)
    spread = sum(hi - lo for lo, hi in pairs)
    work = ((2 * height + 1) ** n - 1) // 2 * (height * spread // den + 1)
    _charge(work, "plane walk at height {}", height)


def hyperplanes_meeting(n: int, height_bound: int, box: Box) -> Iterator[Hyperplane]:
    """Primitive hyperplanes of height <= height_bound whose zero set can
    meet the box, in the (mvec, m0) order of enumerate_hyperplanes: the
    directions of the sorted walk, each with its constant term restricted
    to the exact integer range of the form over the box.
    """
    if height_bound < 1:
        raise ZeroForm("height bound must be at least 1")
    _check_walk(n, height_bound, box)
    den, pairs = box.scaled
    source = _sorted_box((height_bound,) * n, [pairs], den)(lambda: 0)
    for _, group in groupby(source, key=lambda m: m[:-1]):
        for mvec in sorted(group):
            lo, hi = _dot_range(mvec, pairs)
            for m0 in range(-(-lo // den), hi // den + 1):
                if math.gcd(m0, *mvec) == 1:
                    yield Hyperplane(m0, mvec)
