"""Dense rational polynomials with Sturm-chain root counting and an
exact root-refinement kernel.

Coefficients are ascending: coeffs[i] multiplies x**i.  Everything is a
plain list of Fractions; no classes, to keep the arithmetic transparent.
The root isolation here backs the algebraic-number descriptors, so the
counting must be exact, not floating point.

bisect_root returns the bracket that halving an isolating bracket
returns, but finds it on integers: the polynomial is shifted and scaled
once onto the final dyadic grid, and precision-doubling Newton steps
with exact sign checks reach the cell in O(log bits) evaluations.  Its
one caller, realdesc.AlgebraicReal, checks the bracket with a Sturm
count and refines the square-free part, where every root is simple.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .exact import RatInterval

Poly = list[Fraction]


def poly_trim(p: Sequence[Fraction]) -> Poly:
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_degree(p: Sequence[Fraction]) -> int:
    q = poly_trim(p)
    return len(q) - 1 if q else -1


def poly_eval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(list(p)):
        acc = acc * x + c
    return acc


def poly_scale(p: Sequence[Fraction], c: Fraction) -> Poly:
    return poly_trim([c * a for a in p])


def poly_deriv(p: Sequence[Fraction]) -> Poly:
    return poly_trim([Fraction(i) * c for i, c in enumerate(p)][1:])


def poly_divmod(p: Sequence[Fraction], d: Sequence[Fraction]) -> tuple[Poly, Poly]:
    p, d = poly_trim(p), poly_trim(d)
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(d) + 1)
    lead = d[-1]
    while len(rem) >= len(d):
        c = rem[-1] / lead
        k = len(rem) - len(d)
        quo[k] = c
        for i, a in enumerate(d):
            rem[k + i] -= c * a
        rem = poly_trim(rem)
        if not rem:
            break
    return poly_trim(quo), rem


def poly_gcd(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    a, b = poly_trim(p), poly_trim(q)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        a = poly_scale(a, 1 / a[-1])  # monic
    return a


def square_free_part(p: Sequence[Fraction]) -> Poly:
    p = poly_trim(p)
    if poly_degree(p) < 1:
        return list(p)
    g = poly_gcd(p, poly_deriv(p))
    if poly_degree(g) < 1:
        return list(p)
    q, r = poly_divmod(p, g)
    assert not r
    return q


def sturm_chain(p: Sequence[Fraction]) -> list[Poly]:
    """Sturm sequence of the square-free part of p."""
    p0 = square_free_part(p)
    chain = [p0, poly_deriv(p0)]
    while poly_degree(chain[-1]) > 0:
        _, r = poly_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append(poly_scale(r, Fraction(-1)))
    return [c for c in chain if c]


def _sign_changes(chain: list[Poly], x: Fraction) -> int:
    signs = []
    for c in chain:
        v = poly_eval(c, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(p: Sequence[Fraction], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi]."""
    if lo > hi:
        raise ValueError("lo > hi")
    if lo == hi:
        return 0
    chain = sturm_chain(p)
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def deflate_root(p: Sequence[Fraction], r: Fraction) -> Poly:
    """Divide out an exact rational root.  Raises if r is not a root."""
    if poly_eval(p, r) != 0:
        raise ValueError(f"{r} is not a root")
    q, rem = poly_divmod(p, [-r, Fraction(1)])
    assert not rem
    return q


# Bisection runs on integers up to this level.  Each later step gains
# levels with one Newton step, twice as many as the step before, so
# the level doubles.  A Newton guess that does not reach its sign
# change within this many cell moves is dropped: the parent cell is
# bisected instead, and the next step aims half as far.
_BISECT_LEVELS = 16
_NEWTON_WALK = 4


def _int_eval(q: Sequence[int], y: int) -> int:
    acc = 0
    for c in reversed(q):
        acc = acc * y + c
    return acc


def _int_eval_deriv(q: Sequence[int], y: int) -> tuple[int, int]:
    """q(y) and q'(y) in one Horner pass."""
    v = dv = 0
    for c in reversed(q):
        dv = dv * y + v
        v = v * y + c
    return v, dv


def _grid_poly(
    p: Sequence[Fraction], lo: Fraction, h: Fraction, k: int
) -> list[int]:
    """Integer coefficients, ascending in y, of a positive multiple of
    p(lo + h*y/2**k): the grid of level k is y = 0, 1, ..., 2**k."""
    p = poly_trim(p)
    if not p:
        return []
    den = math.lcm(*(c.denominator for c in p))
    a = [c.numerator * (den // c.denominator) for c in p]
    m = math.lcm(lo.denominator, h.denominator)
    # x = (shift + step*y) / scale; Horner on polynomials in y gives
    # scale**d * p(x) = sum a_i (shift + step*y)**i scale**(d - i)
    shift = lo.numerator * (m // lo.denominator) << k
    step = h.numerator * (m // h.denominator)
    scale = m << k
    q, power = [a[-1]], 1
    for c in reversed(a[:-1]):
        power *= scale
        nxt = [x * shift for x in q] + [0]
        for i, x in enumerate(q):
            nxt[i + 1] += x * step
        nxt[0] += c * power
        q = nxt
    return q


class _Vanishes(Exception):
    """Carries the grid point where the polynomial is exactly 0."""


def _grid_root(q: Sequence[int], k: int, positive: bool) -> int:
    """The cell [j, j + 1] of the level-k grid over which q changes
    sign, given the sign of q(0) and a single sign change on
    [0, 2**k].  Raises _Vanishes at a grid point where q is 0.

    Cells are tracked in level-k units: the level-m cell at a spans
    [a, a + 2**(k - m)].
    """

    def below(y: int) -> bool:
        """True when q(y) has the sign of q(0): y lies below the root."""
        v = _int_eval(q, y)
        if v == 0:
            raise _Vanishes(y)
        return (v > 0) == positive

    def bisect(a: int, m: int, level: int) -> int:
        for m in range(m, level):
            half = 1 << (k - m - 1)
            if below(a + half):
                a += half
        return a

    def newton(a: int, m: int, level: int) -> int | None:
        w, cell = 1 << (k - m), 1 << (k - level)
        y = a + w // 2
        v, dv = _int_eval_deriv(q, y)
        if v == 0:
            raise _Vanishes(y)
        if dv == 0:
            return None
        # floor of the Newton iterate to the level's grid, kept inside
        # the parent cell, whose ends have known signs
        g = (y * dv - v) // (dv * cell) * cell
        g = min(max(g, a), a + w - cell)
        side = {a: True, a + w: False, y: (v > 0) == positive}
        for _ in range(_NEWTON_WALK):
            if g not in side:
                side[g] = below(g)
            if not side[g]:
                g -= cell
                continue
            if g + cell not in side:
                side[g + cell] = below(g + cell)
            if side[g + cell]:
                g += cell
                continue
            return g
        return None

    m = gain = min(k, _BISECT_LEVELS)
    a = bisect(0, 0, m)
    while m < k:
        level = min(m + gain, k)
        g = newton(a, m, level)
        if g is None:
            a, gain = bisect(a, m, level), max(1, gain // 2)
        else:
            a, gain = g, 2 * gain
        m = level
    return a


def bisect_root(
    p: Sequence[Fraction], bracket: RatInterval, width: Fraction
) -> RatInterval:
    """Shrink a sign-change bracket below the requested width.

    The result is the cell of the dyadic grid lo + (hi - lo)*j/2**k,
    k the least level whose cells are at most `width` wide, over which
    p changes sign, or the grid point at which p is exactly 0, which
    collapses the bracket to that point.  That is what halving the
    bracket k times returns, when the bracket holds exactly one
    distinct root of p: the sign-change cell is then unique.  The one
    caller, realdesc.AlgebraicReal, checks that with a Sturm count
    first, and passes the square-free part, where that root is simple.

    The search runs on one integer polynomial, p shifted and scaled to
    the level-k grid.  It bisects the first levels and then doubles
    the level per step: one Newton step from the middle of the parent
    cell, then a short walk over exact signs to the cell with the sign
    change.  A walk that fails (slow convergence, as at a multiple
    root or near a close second root) bisects the parent cell instead,
    and the next step aims half as far.  Refining to 2**-b costs
    O(log b) polynomial evaluations for a simple root.

    Requires p(lo) and p(hi) to have strict opposite signs, or one of
    them to be 0.
    """
    lo, hi = bracket.lo, bracket.hi
    h = hi - lo
    k = (-(-h // width) - 1).bit_length()
    q = _grid_poly(p, lo, h, k)
    flo = _int_eval(q, 0)
    fhi = _int_eval(q, 1 << k)
    if flo == 0:
        return RatInterval(lo, lo)
    if fhi == 0:
        return RatInterval(hi, hi)
    if (flo > 0) == (fhi > 0):
        raise ValueError("no sign change over bracket")

    def at(y: int) -> Fraction:
        return lo + h * Fraction(y, 1 << k)

    try:
        j = _grid_root(q, k, flo > 0)
    except _Vanishes as hit:
        return RatInterval(at(hit.args[0]), at(hit.args[0]))
    return RatInterval(at(j), at(j + 1))
