"""Exact rational helpers: parsing, intervals, boxes, distance to the
nearest integer, and the multiples of a residue in order of that
distance (circle_order).

Values are Fractions or integers, never floats, so every comparison the
verifier and the constructor make is exact; a Box is integers over one
denominator.  int_str and parse_int write and read long integers in
subquadratic time.  known_gcd reduces over a denominator whose primes
are known, and dec_product builds such a product in decimal, so neither
needs a conversion from binary.
"""
from __future__ import annotations

import decimal
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import SchemaError, UsageError

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_DEC_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)$")

# CPython's own str(int) and int(str) are quadratic, and refuse more
# than 4300 digits by default.  Integers up to _LEAF_BITS bits become a
# Decimal, whose str is str(n), and digit strings up to _LEAF_DIGITS
# characters go to int() as they are.  Larger ones split at leaf << k,
# the largest such width below their size, so every leaf stays far
# under the interpreter's guard and the products that join the halves
# are subquadratic.
_LEAF_BITS = 2048
_LEAF_DIGITS = 600

# small_factors tries primes below this; denominators come from the
# digits (b, b - 1) and a system's offset and scale, so they are small.
_TRIAL = 1 << 16

# Exact decimal arithmetic: integers of any size, never rounded.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact]
)
# _POW2[k] is 2**(_LEAF_BITS << k) as a Decimal and _POWERS[b][k] is
# b**(_LEAF_DIGITS << k), each grown by squaring on demand.  They are
# indexed by base and width alone, so they are the same for any input.
_POW2 = [decimal.Decimal(1 << _LEAF_BITS)]
_POWERS: dict[int, list[int]] = {}


def _split(size: int, leaf: int) -> int:
    """k such that leaf << k is the largest such width below size."""
    return ((size - 1) // leaf).bit_length() - 1


def _to_decimal(n: int) -> decimal.Decimal:
    """A nonnegative int as an exact Decimal: hi * 2**w + lo."""
    if n.bit_length() <= _LEAF_BITS:
        return decimal.Decimal(n)
    k = _split(n.bit_length(), _LEAF_BITS)
    while len(_POW2) <= k:
        _POW2.append(_EXACT.multiply(_POW2[-1], _POW2[-1]))
    w = _LEAF_BITS << k
    hi = n >> w
    return _EXACT.fma(_to_decimal(hi), _POW2[k], _to_decimal(n - (hi << w)))


def _from_digits(text, base: int = 10, leaf=int) -> int:
    """The int of a sequence of base-`base` digits: hi * base**len(lo)
    + lo.  leaf(chunk, base) reads a chunk of at most _LEAF_DIGITS; by
    default int, which reads digit text, str or bytes."""
    if len(text) <= _LEAF_DIGITS:
        return leaf(text, base)
    k = _split(len(text), _LEAF_DIGITS)
    powers = _POWERS.setdefault(base, [base**_LEAF_DIGITS])
    while len(powers) <= k:
        powers.append(powers[-1] * powers[-1])
    w = _LEAF_DIGITS << k
    high = _from_digits(text[:-w], base, leaf)
    return high * powers[k] + _from_digits(text[-w:], base, leaf)


def int_str(n: int) -> str:
    """str(n) in subquadratic time, whatever the interpreter's digit limit."""
    text = str(_to_decimal(abs(n)))
    return "-" + text if n < 0 else text


def size_str(n: int) -> str:
    """int_str(n) for n >= 0 up to 20 digits, else only its size: 10^k."""
    text = int_str(n)
    return text if len(text) <= 20 else f"about 10^{len(text) - 1}"


def parse_int(text: str) -> int:
    """int(text) for decimal digits after an optional sign, in
    subquadratic time, whatever the interpreter's digit limit."""
    if text.startswith(("+", "-")):
        value = _from_digits(text[1:])
        return -value if text[0] == "-" else value
    return _from_digits(text)


@lru_cache(maxsize=256)
def small_factors(n: int) -> tuple[tuple[int, int], ...] | None:
    """The prime factorization of n >= 1 as (p, e) pairs, p increasing,
    by trial division below _TRIAL; None when a factor it cannot reach
    is left."""
    out = []
    p = 2
    while p * p <= n:
        if p >= _TRIAL:
            return None
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def _valuation(x: int, p: int, cap: int) -> int:
    """min(v_p(x), cap) for x != 0, by squaring: x is divided by p, p**2,
    p**4, ... while they divide it, then by the same powers back down,
    so a valuation v costs O(log v) reductions."""
    powers, v = [], 0
    power = p
    while (1 << len(powers)) <= cap - v:
        quo, rem = divmod(x, power)
        if rem:
            break
        x = quo
        v += 1 << len(powers)
        powers.append(power)
        power *= power
    for k in reversed(range(len(powers))):
        if (1 << k) <= cap - v:
            quo, rem = divmod(x, powers[k])
            if not rem:
                x = quo
                v += 1 << k
    return v


def known_gcd(x: int, factors) -> tuple[tuple[int, int], ...]:
    """gcd(x, den) for den = prod p**e over the (p, e) pairs of its prime
    factorization, as the pairs (p, m) with m = min(v_p(x), e) > 0.  No
    gcd of x and den is taken; x = 0 gives den."""
    out = []
    for p, e in factors:
        m = e if x == 0 else _valuation(x, p, e)
        if m:
            out.append((p, m))
    return tuple(out)


def dec_product(factors) -> decimal.Decimal:
    """prod p**e over (p, e) pairs as an exact Decimal, raised to its
    powers in decimal: no binary-to-decimal conversion."""
    out = decimal.Decimal(1)
    for p, e in factors:
        out = _EXACT.multiply(out, _EXACT.power(decimal.Decimal(p), e))
    return out


def json_int(value) -> int:
    """An integer field of a JSON document: a JSON int, never a bool or
    a float.  Anything else is a SchemaError."""
    if type(value) is not int:
        raise SchemaError(f"expected an integer, got {value!r}")
    return value


def rat(text: str) -> Fraction:
    """Parse 'p/q' or a decimal literal into an exact Fraction."""
    if not isinstance(text, str):
        raise UsageError(f"cannot parse rational: {text!r}")
    text = text.strip()
    if not (_RAT_RE.match(text) or _DEC_RE.match(text)):
        raise UsageError(f"cannot parse rational: {text!r}")
    try:
        num, _, den = text.partition("/")
        whole, _, frac = num.partition(".")
        return Fraction(
            parse_int(whole + frac), parse_int(den) if den else 10 ** len(frac)
        )
    except ZeroDivisionError:
        raise UsageError(f"zero denominator: {text!r}") from None


def rat_str(x: Fraction) -> str:
    """Canonical compact form: '3', '-1/2'."""
    if x.denominator == 1:
        return int_str(x.numerator)
    return f"{int_str(x.numerator)}/{int_str(x.denominator)}"


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
            raise ValueError(
                f"empty interval: [{rat_str(self.lo)}, {rat_str(self.hi)}]"
            )

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def intersects(self, other: "RatInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def scale_add(self, a: Fraction, b: Fraction) -> "RatInterval":
        """Image under x -> a*x + b."""
        p, q = a * self.lo + b, a * self.hi + b
        return RatInterval(min(p, q), max(p, q))

    def __str__(self) -> str:
        return f"[{rat_str(self.lo)}, {rat_str(self.hi)}]"


def dist_scaled(lo: int, hi: int, scale: int) -> tuple[int, int]:
    """Given integer bounds on scale*x, return integer bounds on
    scale*<x> where <x> is the nearest-integer distance.  Exact interval
    arithmetic on the periodic tent function when scale is even or
    lo == hi; an odd scale has no integer at its half-integer."""
    span = hi - lo
    half = scale >> 1
    if span >= scale:
        return 0, half
    r = lo % scale
    rhi = r + span  # < 2*scale
    if r == 0 or rhi >= scale:
        dlo = 0
    else:
        dlo = r if r <= scale - rhi else scale - rhi
    if r <= half <= rhi or rhi >= scale + half:
        dhi = half
    else:
        da = r if 2 * r <= scale else scale - r
        rb = rhi if rhi < scale else rhi - scale
        db = rb if 2 * rb <= scale else scale - rb
        dhi = da if da >= db else db
    return dlo, dhi


def circle_order(a: int, scale: int, c: int):
    """(d, v) for v = 1..c, d the circular distance of v*a mod scale
    from 0, nearest first, with no sort.  The residues repeat with
    period P = scale / gcd(a, scale), so the classes 0..m, m = min(c,
    P - 1), are distinct, and each yields its members k, k + P, ... <=
    c, the zero class first.  By the three-distance theorem in Sos's
    permutation form, with x and y the classes of least and greatest
    residue in 1..m, the next class up from k is k + x if that is at
    most m, else k - y if k >= y, else k + x - y; the next one down is
    the same rule with x and y swapped.  x and y are the denominators
    of the neighbours of a/scale in the Farey sequence of order m,
    found by batched mediants in O(log m) steps."""
    a %= scale
    period = scale // math.gcd(a, scale)
    yield from ((0, v) for v in range(period, c + 1, period))
    m = min(c, period - 1)
    if m < 1:
        return
    num = a * period // scale  # a/scale = num/period in lowest terms
    p, x, r, y = 0, 1, 1, 1  # p/x < num/period < r/y
    i = j = 1
    while i or j:
        i = min((num * x - p * period - 1) // (r * period - num * y), (m - x) // y)
        p, x = p + i * r, x + i * y
        j = min((r * period - num * y - 1) // (num * x - p * period), (m - y) // x)
        r, y = r + j * p, y + j * x

    def step(k, d, up, gap_up, down, gap_down):
        if k + up <= m:
            return k + up, d + gap_up
        if k >= down:
            return k - down, d + gap_down
        return k + up - down, d + gap_up + gap_down

    gx, gy = x * a % scale, -y * a % scale
    right, left = (x, gx), (y, gy)
    for _ in range(m):
        if right[1] <= left[1]:
            (k, d), right = right, step(*right, x, gx, y, gy)
        else:
            (k, d), left = left, step(*left, y, gy, x, gx)
        for v in range(k, c + 1, period):
            yield d, v


def dist_interval(x: RatInterval) -> RatInterval:
    """Range of nearest-integer distance over a rational interval, exact:
    dist_scaled at twice the lcm of the endpoint denominators, an even
    scale, so the half-integer is an integer there too."""
    scale = 2 * math.lcm(x.lo.denominator, x.hi.denominator)
    lo = x.lo.numerator * (scale // x.lo.denominator)
    hi = x.hi.numerator * (scale // x.hi.denominator)
    d_lo, d_hi = dist_scaled(lo, hi, scale)
    return RatInterval(Fraction(d_lo, scale), Fraction(d_hi, scale))


class Box:
    """Axis-aligned product of closed rational intervals, one per axis,
    held as integers: scaled = (den, pairs), the sides [lo/den, hi/den].
    Box(sides) takes the lcm of their denominators once; Box.over keeps
    the den it is given, which need not be the least, so a box over a
    denominator its digits give pays no gcd.  Every reader of scaled,
    equality included, is invariant when den and the pairs are
    multiplied by one factor.  The Fraction sides, and the hash, which
    is theirs, are reduced on first read.
    """

    def __init__(self, sides):
        ends = [x for side in sides for x in (side.lo, side.hi)]
        den = math.lcm(*(x.denominator for x in ends))
        nums = [x.numerator * (den // x.denominator) for x in ends]
        self.__dict__.update(Box.over(den, zip(nums[::2], nums[1::2])).__dict__)

    @classmethod
    def over(cls, den: int, pairs) -> "Box":
        """The box with sides [lo/den, hi/den], one per (lo, hi) pair of
        integers, over den > 0."""
        pairs = tuple(pairs)
        if not pairs:
            raise ValueError("box needs at least one side")
        if any(lo > hi for lo, hi in pairs):
            raise ValueError("empty interval")
        box = cls.__new__(cls)
        box.__dict__.update(scaled=(den, pairs), dim=len(pairs))
        return box

    def __setattr__(self, name, value):
        raise AttributeError("Box is immutable")

    @cached_property
    def sides(self) -> tuple[RatInterval, ...]:
        den, pairs = self.scaled
        return tuple(
            RatInterval(Fraction(lo, den), Fraction(hi, den)) for lo, hi in pairs
        )

    def __eq__(self, other):
        if not isinstance(other, Box):
            return NotImplemented
        (den, pairs), (oden, opairs) = self.scaled, other.scaled
        return len(pairs) == len(opairs) and all(
            lo * oden == olo * den and hi * oden == ohi * den
            for (lo, hi), (olo, ohi) in zip(pairs, opairs)
        )

    def __hash__(self):
        return hash(self.sides)

    def __repr__(self) -> str:
        return f"Box(sides={self.sides!r})"

    def __str__(self) -> str:
        return " x ".join(str(s) for s in self.sides)
