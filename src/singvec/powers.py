"""Exact arithmetic on numbers of the form coef * base**exp.

A PowerValue keeps a positive rational coefficient, a positive rational
base and a rational exponent, all exact.  Order comparisons between two
such values (or against a plain Fraction) never round: both sides are
raised to the least common multiple of the exponent denominators, which
turns the comparison into one between ordinary fractions.

This is the number type used for norm values q -> ||q||**(1/n), decay
thresholds t**(-w) and the record ledgers built on top of them, where
the integers involved routinely exceed anything a float can hold.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .exact import RatInterval


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer."""
    if n < 0:
        raise ValueError("negative radicand")
    if k < 1:
        raise ValueError("root order must be positive")
    if n == 0 or k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)  # power of two at or above the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _is_perfect_power(n: int, k: int) -> int | None:
    r = iroot(n, k)
    return r if r**k == n else None


class PowerValue:
    """Immutable positive real coef * base**exp with exact comparisons."""

    __slots__ = ("coef", "base", "exp")

    def __init__(self, base, exp=1, coef=1):
        base = Fraction(base)
        exp = Fraction(exp)
        coef = Fraction(coef)
        if base <= 0:
            raise ValueError("base must be positive")
        if coef <= 0:
            raise ValueError("coefficient must be positive")
        if exp.denominator == 1:
            coef *= base**exp
            base, exp = Fraction(1), Fraction(0)
        elif base == 1:
            exp = Fraction(0)
        elif base < 1:
            base, exp = 1 / base, -exp
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, *a):
        raise AttributeError("PowerValue is immutable")

    # -- structure ---------------------------------------------------

    def as_fraction(self) -> Fraction | None:
        """Exact rational value, or None when the value is irrational."""
        if self.exp == 0:
            return self.coef
        c = self.exp.denominator
        a = self.exp.numerator
        p = _is_perfect_power(self.base.numerator, c)
        q = _is_perfect_power(self.base.denominator, c)
        if p is None or q is None:
            return None
        return self.coef * Fraction(p, q) ** a

    def pow(self, k) -> "PowerValue":
        """Raise to a rational power, staying exact."""
        k = Fraction(k)
        if self.coef == 1:
            return PowerValue(self.base, self.exp * k)
        if k.denominator == 1:
            return PowerValue(self.base, self.exp * k, self.coef ** int(k))
        f = self.as_fraction()
        if f is not None:
            return PowerValue(f, k)
        raise ValueError("cannot take a fractional power of a scaled irrational")

    def mul_fraction(self, f) -> "PowerValue":
        f = Fraction(f)
        if f <= 0:
            raise ValueError("scale must be positive")
        return PowerValue(self.base, self.exp, self.coef * f)

    # -- enclosures --------------------------------------------------

    def scaled_bounds(self, bits: int) -> tuple[int, int]:
        """Integers (lo, hi) with lo <= value * 2**bits <= hi, hi-lo <= 2."""
        t = 1 << bits
        if self.exp == 0:
            v = self.coef * t
            lo = v.numerator // v.denominator
            hi = lo if v.denominator == 1 else lo + 1
            return lo, hi
        a = self.exp.numerator
        c = self.exp.denominator
        if a > 0:
            num = self.base.numerator**a
            den = self.base.denominator**a
        else:
            num = self.base.denominator**-a
            den = self.base.numerator**-a
        # value**c = (cn**c * num) / (cd**c * den), exactly
        big_n = self.coef.numerator**c * num * t**c
        big_d = self.coef.denominator**c * den
        m, rem = divmod(big_n, big_d)
        lo = iroot(m, c)
        if rem == 0 and lo**c == m:
            return lo, lo
        r = iroot(m + 1, c)
        hi = r if r**c == m + 1 else r + 1
        return lo, hi

    def enclose(self, bits: int = 64) -> RatInterval:
        lo, hi = self.scaled_bounds(bits)
        t = 1 << bits
        return RatInterval(Fraction(lo, t), Fraction(hi, t))

    def to_float(self) -> float:
        f = self.as_fraction()
        if f is not None:
            try:
                return float(f)
            except OverflowError:
                return math.inf if f > 0 else 0.0
        lo, hi = self.scaled_bounds(64)
        try:
            return float(Fraction(lo + hi, 2 << 64))
        except OverflowError:
            return math.inf

    def log_float(self) -> float:
        """Natural log as a float; immune to overflow of the value itself."""
        out = math.log(self.coef.numerator) - math.log(self.coef.denominator)
        if self.exp:
            out += float(self.exp) * (
                math.log(self.base.numerator) - math.log(self.base.denominator)
            )
        return out

    # -- exact order -------------------------------------------------

    def _cmp(self, other) -> int:
        if isinstance(other, int):
            other = Fraction(other)
        if isinstance(other, Fraction):
            if other <= 0:
                return 1
            other = PowerValue(other)
        if not isinstance(other, PowerValue):
            return NotImplemented  # type: ignore[return-value]
        lcm = math.lcm(self.exp.denominator, other.exp.denominator)
        lhs = self.coef**lcm * self.base ** int(self.exp * lcm)
        rhs = other.coef**lcm * other.base ** int(other.exp * lcm)
        return (lhs > rhs) - (lhs < rhs)

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __eq__(self, other):
        if not isinstance(other, (PowerValue, Fraction, int)):
            return NotImplemented
        return self._cmp(other) == 0

    def __hash__(self):
        f = self.as_fraction()
        if f is not None:
            return hash(f)
        return hash((self.coef, self.base, self.exp))

    def __repr__(self):
        if self.exp == 0:
            return f"PowerValue({self.coef})"
        if self.coef == 1:
            return f"PowerValue({self.base}, {self.exp})"
        return f"PowerValue({self.base}, {self.exp}, coef={self.coef})"

    def __str__(self):
        f = self.as_fraction()
        if f is not None:
            if f.denominator == 1:
                return str(f.numerator)
            return f"{f.numerator}/{f.denominator}"
        body = f"({self.base})^({self.exp})"
        return body if self.coef == 1 else f"{self.coef}*{body}"
