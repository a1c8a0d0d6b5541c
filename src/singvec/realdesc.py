"""Descriptors for the real numbers the toolkit works with.

A descriptor names a single real number and can produce a rational
interval of any requested positive width around it.  Two primitive
kinds exist: exact rationals, and algebraic numbers given by a
polynomial and an isolating bracket.  Two composites (linear
combination, product) support lifting points onto affine subspaces.
A point of a digit-restricted set, given by a prefix plus a periodic
tail policy, is always rational: parse_real returns it as an exact
rational.

The string grammar accepted by parse_real:

    "3/4"   "-2"   "0.125"             exact rational
    "alg:c0,c1,...:lo,hi"              root of c0 + c1 x + ... in [lo,hi]
    "cyl:b,d1,d2,...:prefix:policy"    digit-set point, policy min|max|rep<digits>
    "sqrt2"  "cbrt2"                   named shorthands

Prefix digits are single characters for bases up to ten, otherwise
comma-separated.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from fractions import Fraction

from .digitsets import Cylinder, DigitSystem
from .errors import NonIsolating, PrecisionExhausted, UsageError
from .exact import RatInterval, rat
from .polys import (
    Poly,
    bisect_root,
    count_roots,
    poly_degree,
    poly_eval,
    square_free_part,
)

# refusing to shrink an enclosure below this width raises PrecisionExhausted
MIN_WIDTH = Fraction(1, 2**4096)


class RealDescriptor(ABC):
    """A single real number with on-demand rational enclosures."""

    @abstractmethod
    def enclose(self, width: Fraction) -> RatInterval:
        """Interval containing the value, of width at most `width`."""

    @abstractmethod
    def exact_value(self) -> Fraction | None:
        """The exact rational value, or None if irrational/unknown."""


def _check_width(width: Fraction) -> Fraction:
    if width <= 0:
        raise UsageError("enclosure width must be positive")
    if width < MIN_WIDTH:
        raise PrecisionExhausted(
            f"requested width {width} is below the refinement floor "
            f"2^-4096; loosen the tolerance"
        )
    return width


class ExactReal(RealDescriptor):
    def __init__(self, value):
        self.value = Fraction(value)

    def enclose(self, width: Fraction) -> RatInterval:
        _check_width(width)
        return RatInterval(self.value, self.value)

    def exact_value(self) -> Fraction | None:
        return self.value

    def __repr__(self):
        return f"ExactReal({self.value})"


class AlgebraicReal(RealDescriptor):
    """The unique root of a rational polynomial inside a bracket.

    Validation uses a Sturm count on the square-free part, so inputs
    with multiple-root polynomials are handled.  A bracket endpoint that
    is itself the root collapses to an exact point immediately.
    """

    def __init__(self, coeffs, bracket: RatInterval):
        self.coeffs: Poly = [Fraction(c) for c in coeffs]
        if poly_degree(self.coeffs) < 1:
            raise NonIsolating("polynomial must have degree at least 1")
        self._sf = square_free_part(self.coeffs)
        lo, hi = bracket.lo, bracket.hi
        at_lo = poly_eval(self._sf, lo)
        at_hi = poly_eval(self._sf, hi)
        inner = count_roots(self._sf, lo, hi)  # roots in (lo, hi]
        if at_lo == 0:
            if lo != hi and inner != 0:
                raise NonIsolating("bracket holds more than one root")
            self._bracket = RatInterval(lo, lo)
        elif at_hi == 0:
            if inner != 1:
                raise NonIsolating("bracket holds more than one root")
            self._bracket = RatInterval(hi, hi)
        else:
            if inner != 1:
                raise NonIsolating(
                    f"bracket [{lo}, {hi}] holds {inner} roots, need exactly 1"
                )
            self._bracket = bracket

    def enclose(self, width: Fraction) -> RatInterval:
        _check_width(width)
        if self._bracket.width > width:
            self._bracket = bisect_root(self._sf, self._bracket, width)
        return self._bracket

    def exact_value(self) -> Fraction | None:
        if self._bracket.lo == self._bracket.hi:
            return self._bracket.lo
        return None

    def __repr__(self):
        return f"AlgebraicReal({self.coeffs}, {self._bracket})"


class LinearCombinationReal(RealDescriptor):
    """constant + sum of coef * part over the given parts."""

    def __init__(self, terms, constant=0):
        self.terms = [(Fraction(c), d) for c, d in terms]
        self.constant = Fraction(constant)

    def enclose(self, width: Fraction) -> RatInterval:
        _check_width(width)
        total = sum(abs(c) for c, _ in self.terms)
        lo = hi = self.constant
        if total == 0:
            return RatInterval(lo, hi)
        part_width = width / (2 * total)
        for c, d in self.terms:
            iv = d.enclose(part_width).scale_add(c, Fraction(0))
            lo += iv.lo
            hi += iv.hi
        return RatInterval(lo, hi)

    def exact_value(self) -> Fraction | None:
        acc = self.constant
        for c, d in self.terms:
            v = d.exact_value()
            if v is None:
                return None
            acc += c * v
        return acc


class ProductReal(RealDescriptor):
    def __init__(self, left: RealDescriptor, right: RealDescriptor):
        self.left = left
        self.right = right

    def enclose(self, width: Fraction) -> RatInterval:
        _check_width(width)
        a0 = self.left.enclose(Fraction(1))
        b0 = self.right.enclose(Fraction(1))
        ma = max(abs(a0.lo), abs(a0.hi)) + 1
        mb = max(abs(b0.lo), abs(b0.hi)) + 1
        a = self.left.enclose(width / (4 * mb))
        b = self.right.enclose(width / (4 * ma))
        corners = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
        return RatInterval(min(corners), max(corners))

    def exact_value(self) -> Fraction | None:
        u = self.left.exact_value()
        v = self.right.exact_value()
        if u is None or v is None:
            return None
        return u * v


_NAMED = {
    "sqrt2": ([-2, 0, 1], (1, 2)),
    "cbrt2": ([-2, 0, 0, 1], (1, 2)),
}


def parse_real(text: str) -> RealDescriptor:
    """Parse the descriptor grammar documented in the module docstring."""
    text = text.strip()
    if text in _NAMED:
        coeffs, (lo, hi) = _NAMED[text]
        return AlgebraicReal(coeffs, RatInterval(Fraction(lo), Fraction(hi)))
    if text.startswith("alg:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"bad algebraic descriptor: {text!r}")
        coeffs = [rat(c) for c in parts[1].split(",")]
        ends = parts[2].split(",")
        if len(ends) != 2:
            raise UsageError("algebraic bracket needs exactly two endpoints")
        lo, hi = rat(ends[0]), rat(ends[1])
        if lo > hi:
            raise UsageError("bracket endpoints out of order")
        return AlgebraicReal(coeffs, RatInterval(lo, hi))
    if text.startswith("cyl:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise UsageError(f"bad cylinder descriptor: {text!r}")
        try:
            nums = [int(x) for x in parts[1].split(",")]
        except ValueError as exc:
            raise UsageError(f"bad cylinder descriptor: {text!r}") from exc
        if len(nums) < 3:
            raise UsageError("cylinder system needs a base and >= 2 digits")
        system = DigitSystem(nums[0], tuple(nums[1:]))
        prefix = DigitSystem.parse_digits(system.base, parts[2])
        cyl = Cylinder.root(system).extend(prefix)
        policy = parts[3]
        if policy in ("min", "max"):
            pattern = (system.dmin,) if policy == "min" else (system.dmax,)
        elif policy.startswith("rep"):
            pattern = DigitSystem.parse_digits(system.base, policy[3:])
        else:
            raise UsageError(f"unknown tail policy: {policy!r}")
        if not pattern or any(d not in system.digits for d in pattern):
            raise UsageError("tail pattern must be nonempty allowed digits")
        # value = prefix value + unit * (repeating tail as geometric series)
        b, m = system.base, len(pattern)
        tail = sum(d * b ** (m - 1 - i) for i, d in enumerate(pattern))
        return ExactReal(cyl.prefix_value + cyl.unit * Fraction(tail, b**m - 1))
    return ExactReal(rat(text))

