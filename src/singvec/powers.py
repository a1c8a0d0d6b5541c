"""Exact arithmetic on numbers of the form coef * base**exp.

A PowerValue keeps a positive rational coefficient, a positive rational
base and a rational exponent, all exact.  A rational value has one
form, its coefficient alone, decided when it is made.  Order
comparisons between two such values (or against a plain Fraction)
never round: identical (coef, base, exp) triples are equal at once,
float logs decide only when they are far apart, and otherwise both
sides are raised to the least common multiple of the exponent
denominators, which turns the comparison into one between ordinary
fractions.

This is the number type used for norm values q -> ||q||**(1/n), decay
thresholds t**(-w) and the record ledgers built on top of them, where
the integers involved routinely exceed anything a float can hold.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice

from .exact import RatInterval, rat_str


# Roots of up to this many bits come from Newton's loop started just
# above exp(log(n) / k), a float whose relative error is far below
# 2**-40 at this size; from a power of two above the root, each step
# would fall by only about x/k.  Longer ones start it from the root of
# the radicand's top bits, found the same way, which leaves it a few
# full-size steps.
_IROOT_LEAF_BITS = 128


# Relative to the size of the logs summed, float logs of two values
# that differ by more than this decide their order.
_LOG_MARGIN = 1e-12


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer."""
    if n < 0:
        raise ValueError("negative radicand")
    if k < 1:
        raise ValueError("root order must be positive")
    if k == 2:
        return math.isqrt(n)
    if n == 0 or k == 1:
        return n
    if n.bit_length() <= k * _IROOT_LEAF_BITS:
        x = math.floor(math.exp(math.log(n) / k) * (1 + 2**-40)) + 1
    else:
        # r**k <= n >> k*s < (r + 1)**k gives n < ((r + 1) << s)**k: an
        # overestimate whose top half of the bits is already right
        s = n.bit_length() // (2 * k)
        x = (iroot(n >> (k * s), k) + 1) << s
    # from at or above the root, each step stays at or above its floor
    # and falls until it reaches it
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


@lru_cache(maxsize=256)
def _witnesses(k: int) -> tuple[int, ...]:  # the first eight primes p = 1 (mod k)
    primes = (p for p in count(k + 1, k)
              if all(p % d for d in range(2, math.isqrt(p) + 1)))
    return tuple(islice(primes, 8))


def _is_perfect_power(n: int, k: int) -> int | None:
    """r with r**k == n >= 0, else None.  Euler's criterion, n**((p-1)/k)
    = 1 (mod p) for each witness p not dividing n, rules most out first."""
    if any((a := n % p) and pow(a, (p - 1) // k, p) != 1 for p in _witnesses(k)):
        return None
    r = iroot(n, k)
    return r if r**k == n else None


class PowerValue:
    """Immutable positive real coef * base**exp with exact comparisons.
    A rational value is decided once, as it is made, and held as coef
    alone with base 1 and exp 0; an irrational one keeps base > 1."""

    __slots__ = ("coef", "base", "exp")

    def __init__(self, base, exp=1, coef=1):
        base = Fraction(base)
        exp = Fraction(exp)
        coef = Fraction(coef)
        if base <= 0:
            raise ValueError("base must be positive")
        if coef <= 0:
            raise ValueError("coefficient must be positive")
        c = exp.denominator
        if c == 1:
            root = base
        else:
            p = _is_perfect_power(base.numerator, c)
            q = None if p is None else _is_perfect_power(base.denominator, c)
            root = None if q is None else Fraction(p, q)
        if root is not None:
            coef *= root**exp.numerator
            base, exp = Fraction(1), Fraction(0)
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
        return self.coef if self.exp == 0 else None

    def pow(self, k) -> "PowerValue":
        """Raise to a rational power, staying exact."""
        k = Fraction(k)
        if self.exp == 0:
            return PowerValue(self.coef, k)
        if self.coef == 1:
            return PowerValue(self.base, self.exp * k)
        if k.denominator == 1:
            return PowerValue(self.base, self.exp * k, self.coef ** int(k))
        raise ValueError("cannot take a fractional power of a scaled irrational")

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

    def log_float(self) -> float:
        """Natural log as a float; immune to overflow of the value itself."""
        return self._log_terms()[0]

    def _log_terms(self) -> tuple[float, float]:
        """The float log and the sum of the sizes of the logs it adds up.
        Those may cancel, so its rounding error is bounded by a few ulps
        of that sum, not of the result."""
        a = math.log(self.coef.numerator)
        b = math.log(self.coef.denominator)
        out, size = a - b, a + b
        if self.exp:
            e = float(self.exp)
            c = math.log(self.base.numerator)
            d = math.log(self.base.denominator)
            out += e * (c - d)
            size += abs(e) * (c + d)
        return out, size

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
        if (self.coef, self.base, self.exp) == (other.coef, other.base, other.exp):
            return 0  # one value written the same way: no power to take
        # float logs decide unless they are within far more than their
        # rounding error of each other; then the exact powers do
        x, dx = self._log_terms()
        y, dy = other._log_terms()
        if abs(x - y) > _LOG_MARGIN * (dx + dy):
            return 1 if x > y else -1
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
        # an irrational value hashes its floor, which equal values share
        # however they are written
        return hash(self.coef if self.exp == 0 else self.scaled_bounds(0)[0])

    def __repr__(self):
        if self.exp == 0:
            return f"PowerValue({rat_str(self.coef)})"
        args = f"{rat_str(self.base)}, {rat_str(self.exp)}"
        if self.coef == 1:
            return f"PowerValue({args})"
        return f"PowerValue({args}, coef={rat_str(self.coef)})"

    def __str__(self):
        if self.exp == 0:
            return rat_str(self.coef)
        body = f"({rat_str(self.base)})^({rat_str(self.exp)})"
        return body if self.coef == 1 else f"{rat_str(self.coef)}*{body}"


def exceeds(value, num: int, den: int) -> bool:
    """value > num/den for a positive Fraction or PowerValue and positive
    integers num and den, not in lowest terms: float logs decide as in
    PowerValue's order, and only a near tie makes Fraction(num, den)."""
    value = value if isinstance(value, PowerValue) else PowerValue(value)
    x, dx = value._log_terms()
    a, b = math.log(num), math.log(den)
    if abs(x - (a - b)) > _LOG_MARGIN * (dx + a + b):
        return x > a - b
    return value > Fraction(num, den)
