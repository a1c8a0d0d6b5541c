"""Digit-restricted subsets of the real line and their cylinder tree.

A DigitSystem fixes a base b and an allowed digit set D of size >= 2;
the point set is S = {offset + scale * sum d_i b^-i : d_i in D}.  The
middle-thirds set is base 3 with digits {0, 2}.  A Cylinder is the set
of points sharing a finite digit prefix, held as its word (one character
chr(d) per digit d), the integer it spells in base b and b**depth.  The
tree grows by one rule: a tail of value v and power P = b**len(tail)
makes value * P + v over power * P, so a child, a descent and a
certificate's next prefix cost their tail alone.  Every point a
cylinder names is offset + scale * (value + t) / b**depth for a tail
value t, as integers over a denominator its digits give: its hull is a
closed rational interval and its anchor (the all-minimum-digit tail
point) a rational member of S, the dense rationals that the pinning
construction consumes.  A box of cylinders (cylinder_box) is built on
those integers with no gcd, and strict nesting of two boxes
(nests_strictly) is read from the words alone.  A hull's text costs
one binary-to-decimal conversion (hull_text) and is told from any
other by one decimal-to-binary parse (spells).

Prefixes are read and written as text, for base <= 10 by one
str.translate of ASCII text, and a word's value is read from digit
characters in chunks that int() takes, joined by subquadratic products.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, reduce
from itertools import product as iproduct
from typing import Iterator

from .errors import UsageError
from .exact import (
    _EXACT,
    Box,
    RatInterval,
    _from_digits,
    _to_decimal,
    dec_product,
    json_int,
    known_gcd,
    parse_int,
    rat,
    rat_str,
    small_factors,
)

# The word characters of digits 0..35 to the characters int(_, base)
# reads for them, and the ASCII decimal digits back to word characters.
_WORD_DIGITS = "".join(map(chr, range(36)))
_DIGIT_CHARS = str.maketrans(_WORD_DIGITS, "0123456789abcdefghijklmnopqrstuvwxyz")
_TEXT_WORD = str.maketrans("0123456789", _WORD_DIGITS[:10])


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
        if digits[0] < 0 or digits[-1] >= min(self.base, 0x110000):  # chr's range
            raise UsageError("digits must lie in 0..base-1 and below 1114112")
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

    @property
    def small_den(self) -> int:
        """s = den(offset) * den(scale) * (b - 1): a cylinder of depth L
        has its hull over s * b**L."""
        return self.offset.denominator * self.scale.denominator * (self.base - 1)

    @cached_property
    def _den_primes(self) -> tuple[tuple[int, int, int], ...] | None:
        """(p, v_p(s), v_p(b)) for each prime p of s * b; None when s or
        b has a prime factor too large for small_factors."""
        s, b = small_factors(self.small_den), small_factors(self.base)
        if s is None or b is None:
            return None
        s, b = dict(s), dict(b)
        return tuple((p, s.get(p, 0), b.get(p, 0)) for p in sorted(s | b))

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
    def digits_str(base: int, word) -> str:  # a word, or digits as ints
        word = word if type(word) is str else "".join(map(chr, word))
        if base <= 10:
            return word.translate(_DIGIT_CHARS)
        return ",".join(map(str, map(ord, word)))

    @staticmethod
    def parse_digits(base: int, text: str) -> tuple[int, ...]:
        return tuple(map(ord, DigitSystem.parse_word(base, text)))

    @staticmethod
    def parse_word(base: int, text: str) -> str:
        """The word text spells: one character per digit for base <= 10,
        comma-separated numbers otherwise (or for any base).  Other text,
        Unicode decimal digits included, is read by int()."""
        text = text.strip()
        if not text:
            return ""
        if base <= 10 and text.isascii() and "," not in text:
            if not text.isdigit():  # ASCII: only 0-9, no control character
                raise UsageError(f"bad digit string: {text!r}")
            return text.translate(_TEXT_WORD)
        try:
            numbers = text.split(",") if "," in text or base > 10 else text
            return "".join(map(chr, map(int, numbers)))
        except (ValueError, OverflowError) as exc:
            raise UsageError(f"bad digit string: {text!r}") from exc


def _horner(word: str, base: int) -> int:
    acc = 0
    for d in map(ord, word):
        acc = acc * base + d
    return acc


def _digits_value(word: str, base: int) -> int:
    """The integer whose base-`base` digits are the word's: up to base
    36 int() reads its characters a chunk at a time, a larger base a
    Horner loop, and the chunks are joined as high * base**len(low) +
    low in halves, a few large products, which is subquadratic (Brent
    and Zimmermann, Modern Computer Arithmetic, 1.7)."""
    if base <= 36:
        return _from_digits(word.translate(_DIGIT_CHARS) or "0", base)
    return _from_digits(word, base, _horner)


class Cylinder:
    """Points of a digit system sharing a fixed finite prefix, held as
    its word (given as one, or as digits), its value, the integer it
    spells in base b, and power = b**depth.  Each cylinder below it is
    grown by one rule, _grow, from a tail's own value and power, so no
    descent re-scans the prefix.  Hull, anchor, midpoint, cylinder_box
    and the system's hull all come from one formula, _over."""

    __slots__ = ("system", "word", "value", "power")

    def __init__(self, system: DigitSystem, prefix="", _value=None, _power=None):
        self.system = system
        if _value is None:
            digits = None if type(prefix) is str else tuple(prefix)
            allowed = system.digits
            if digits is not None and set(digits).issubset(allowed):
                prefix = "".join(map(chr, digits))
            if type(prefix) is not str or prefix.translate(dict.fromkeys(allowed)):
                bad = [d for d in digits or map(ord, prefix) if d not in allowed]
                raise UsageError(f"digits {bad} are not allowed in this system")
            _value = _digits_value(prefix, system.base)
            _power = system.base ** len(prefix)
        self.word = prefix
        self.value = _value
        self.power = _power

    @classmethod
    def root(cls, system: DigitSystem) -> "Cylinder":
        return cls(system, "", 0, 1)

    def _grow(self, tail: str, value: int, power: int) -> "Cylinder":
        """The cylinder of word + tail, tail of value and b**len(tail) = power."""
        value, power = self.value * power + value, self.power * power
        return Cylinder(self.system, self.word + tail, value, power)

    @property
    def prefix(self) -> tuple[int, ...]:  # the digits, read from the word
        return tuple(map(ord, self.word))

    @property
    def depth(self) -> int:
        return len(self.word)

    def child(self, digit: int) -> "Cylinder":
        if digit not in self.system.digits:
            raise UsageError(f"digit {digit} not allowed")
        return self._grow(chr(digit), digit, self.system.base)

    def children(self) -> list["Cylinder"]:
        return [self.child(d) for d in self.system.digits]

    def extend(self, digits) -> "Cylinder":
        return reduce(Cylinder.child, digits, self)

    def descend_min(self, levels: int) -> "Cylinder":
        """Follow the smallest digit `levels` times, in O(1) arithmetic;
        the anchor, the hull's low endpoint, does not move."""
        power = self.system.base ** max(levels, 0)
        return self._descend_min(levels, power) if levels > 0 else self

    def _descend_min(self, levels: int, power: int) -> "Cylinder":
        """descend_min(levels), given power = b**levels."""
        b, dmin = self.system.base, self.system.dmin
        return self._grow(chr(dmin) * levels, dmin * (power - 1) // (b - 1), power)

    def _over(self, num: int, den: int) -> tuple[int, int]:
        """offset + scale * (value + num/den) / b**depth, the point whose
        digits after the prefix read as num/den = sum d_i b^-i, as an
        unreduced numerator over den(offset) * den(scale) * den * b**depth."""
        sysm = self.system
        offset, scale = sysm.offset, sysm.scale
        rest = scale.denominator * den * self.power
        tail = offset.denominator * scale.numerator * (self.value * den + num)
        return offset.numerator * rest + tail, offset.denominator * rest

    @property
    def width(self) -> Fraction:
        """hull().width, with no endpoint made."""
        sysm = self.system
        scale = sysm.scale
        return Fraction(
            scale.numerator * (sysm.dmax - sysm.dmin),
            scale.denominator * (sysm.base - 1) * self.power,
        )

    def hull_ends(self) -> tuple[int, int, int]:
        """The hull as integers (lo, hi, den), unreduced: it is [lo/den,
        hi/den] with den = den(offset) * den(scale) * (b - 1) * b**depth."""
        span = self.system.base - 1
        lo, den = self._over(self.system.dmin, span)
        hi, _ = self._over(self.system.dmax, span)
        return lo, hi, den

    def hull(self) -> RatInterval:
        lo, hi, den = self.hull_ends()
        return RatInterval(Fraction(lo, den), Fraction(hi, den))

    def den_factors(self) -> tuple[tuple[int, int], ...] | None:
        """The prime factorization of hull_ends' den as (p, e) pairs, from
        those of s and b; None when they do not factor over small primes."""
        primes = self.system._den_primes
        if primes is None:
            return None
        return tuple((p, vs + self.depth * vb) for p, vs, vb in primes)

    def hull_text(self) -> tuple[str, str]:
        """The hull's two ends as rat_str writes them, at one conversion
        from binary to decimal: lo is converted; hi is lo + (hi - lo), a
        small decimal add; den is Decimal(s) * b**L.  Each end and den
        are divided in decimal by their gcd, which known_gcd gives from
        den's primes.  A system whose denominators do not factor over
        small primes takes rat_str."""
        return self._text(None)

    def spells(self, pair) -> bool:
        """True when pair is the list of hull_text's two strings.  Only
        the lower end's numerator P is read into binary: with g =
        gcd(lo, den) from den's primes, P * g = lo makes Decimal(P) * g
        lo in decimal, and hull_text from there must give pair,
        character for character.  Any other spelling of the hull, or
        any other value, fails the match."""
        if type(pair) is not list or len(pair) != 2:
            return False
        lo_dec, factors = None, self.den_factors()
        if factors is not None:
            numerator = pair[0].partition("/")[0] if type(pair[0]) is str else ""
            digits = numerator[1:] if numerator.startswith("-") else numerator
            if not digits or not digits.isascii() or not digits.isdigit():
                return False
            lo = self.hull_ends()[0]
            g = known_gcd(lo, factors)
            if parse_int(numerator) * math.prod(p**m for p, m in g) != lo:
                return False
            lo_dec = _EXACT.multiply(Decimal(numerator), dec_product(g))
        return pair == list(self._text(lo_dec))

    def _text(self, lo_dec: Decimal | None) -> tuple[str, str]:
        """hull_text, lo_dec being lo in decimal when it is known."""
        lo, hi, den = self.hull_ends()
        factors = self.den_factors()
        if factors is None:
            return rat_str(Fraction(lo, den)), rat_str(Fraction(hi, den))
        if lo_dec is None:
            lo_dec = _to_decimal(abs(lo))
            if lo < 0:
                lo_dec = lo_dec.copy_negate()
        hi_dec = _EXACT.add(lo_dec, _to_decimal(hi - lo))
        sysm = self.system
        den_dec = _EXACT.multiply(
            Decimal(sysm.small_den), _EXACT.power(Decimal(sysm.base), self.depth)
        )
        return (
            _reduced_text(lo, lo_dec, den_dec, factors),
            _reduced_text(hi, hi_dec, den_dec, factors),
        )

    def anchor(self) -> Fraction:
        """The all-minimum-digit tail point: hull.lo, a member of S."""
        return Fraction(*self._over(self.system.dmin, self.system.base - 1))

    def midpoint(self) -> Fraction:
        """hull.mid: the tail (dmin + dmax) / (2 * (b - 1))."""
        sysm = self.system
        return Fraction(*self._over(sysm.dmin + sysm.dmax, 2 * (sysm.base - 1)))

    def prefix_str(self) -> str:
        return DigitSystem.digits_str(self.system.base, self.word)

    def __repr__(self):
        return f"Cylinder({self.system.base}:{self.prefix_str()!r})"


def _reduced_text(x: int, x_dec: Decimal, den_dec: Decimal, factors) -> str:
    """rat_str(Fraction(x, den)) for x_dec = x and den_dec = den, exact
    Decimals, and den's prime factorization: both are divided by g =
    gcd(x, den) in decimal, g built from its primes."""
    if x == 0:
        return "0"
    g = known_gcd(x, factors)
    if g:
        g_dec = dec_product(g)
        x_dec = _EXACT.divide_int(x_dec, g_dec)
        den_dec = _EXACT.divide_int(den_dec, g_dec)
    return str(x_dec) if den_dec == 1 else f"{x_dec}/{den_dec}"


def cylinder_box(cylinders) -> Box:
    """The box of the cylinders' hulls, over a denominator their digits
    give, with no gcd.  The hull of a cylinder of depth L is over
    s * b**L, s = den(offset) * den(scale) * (b - 1); the axes of one
    base b share lcm(their s) * b**(their greatest L), and those of
    several bases the lcm of each base's denominator.
    """
    cylinders = tuple(cylinders)
    parts = []  # the s of each axis
    small, deepest = {}, {}  # base -> lcm of its axes' s, its deepest axis
    for c in cylinders:
        b = c.system.base
        parts.append(c.system.small_den)
        small[b] = math.lcm(small.get(b, 1), parts[-1])
        if b not in deepest or c.depth > deepest[b].depth:
            deepest[b] = c
    dens = {b: small[b] * deepest[b].power for b in small}
    den = math.lcm(*dens.values())
    pairs = []
    for c, s in zip(cylinders, parts):
        b = c.system.base
        lift = small[b] // s * b ** (deepest[b].depth - c.depth)
        if len(dens) > 1:
            lift *= den // dens[b]
        lo, hi, _ = c.hull_ends()
        pairs.append((lo * lift, hi * lift))
    return Box.over(den, pairs)


def nests_strictly(outer, inner) -> bool:
    """True when the box of the inner cylinders' hulls sits strictly
    inside that of the outer ones, axis by axis of one system.  A hull
    lies in the base-b cell of its own prefix, so on an axis that holds
    exactly when the inner word extends the outer one by a tail that
    strip shows is neither all dmin nor all dmax."""
    if len(outer) != len(inner):
        return False
    for out, inn in zip(outer, inner):
        tail, sysm = inn.word[len(out.word):], out.system
        if (not inn.word.startswith(out.word) or not tail.strip(chr(sysm.dmin))
                or not tail.strip(chr(sysm.dmax))):
            return False
    return True


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
        return cylinder_box(Cylinder.root(f) for f in self.factors)

    def to_json(self) -> list:
        return [f.to_json() for f in self.factors]

    @staticmethod
    def from_json(obj: list) -> "ProductSet":
        return ProductSet(tuple(DigitSystem.from_json(f) for f in obj))
