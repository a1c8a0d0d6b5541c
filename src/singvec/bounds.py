"""Closed-form exponent constants and certified root enclosures.

Every numeric bound exposed here is either an exact rational or an
enclosure of an algebraic root, taken from realdesc.AlgebraicReal: the
descriptor checks with a Sturm count that its bracket holds exactly one
distinct root before any refinement starts.  Nothing in this module
touches floating point.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BracketFailure, UsageError
from .exact import RatInterval
from .polys import Poly, deflate_root, poly_eval
from .realdesc import AlgebraicReal

# -- exact constants ---------------------------------------------------


def badness_exponent(s: int, n: int) -> Fraction:
    """The critical exponent (s+1)/(n-s) for s-dimensional affine
    subspaces of n-space; also the linear bound on the uniform exponent.
    """
    if not 1 <= s <= n - 1:
        raise UsageError(f"need 1 <= s <= n-1, got s={s}, n={n}")
    return Fraction(s + 1, n - s)


@dataclass(frozen=True)
class TransferenceConstants:
    """Exact lower-bound constants for the dual uniform exponent of a
    singular vector.

    basic:     1/(n-1)
    weighted:  1/(n(1-delta)) with delta the smallest weight, or None
    classical: (n^2+1)/(n(n^2-1)), strictly below basic, satisfying
               classical = basic - 1/(n(n+1)) exactly
    """

    basic: Fraction
    weighted: Fraction | None
    classical: Fraction


def transference_constants(n: int, weights=None) -> TransferenceConstants:
    if n < 2:
        raise UsageError("need n >= 2")
    basic = Fraction(1, n - 1)
    classical = Fraction(n * n + 1, n * (n * n - 1))
    assert classical == basic - Fraction(1, n * (n + 1))
    assert classical < basic
    weighted = None
    if weights is not None:
        ws = [Fraction(w) for w in weights]
        if len(ws) != n or any(not 0 < w < 1 for w in ws) or sum(ws) != 1:
            raise UsageError("weights must lie in (0,1) and sum to 1")
        delta = min(ws)
        weighted = 1 / (n * (1 - delta))
    return TransferenceConstants(basic, weighted, classical)


# -- certified single-root enclosures ----------------------------------


def _root_enclosure(coeffs: Poly, lo, hi, tol) -> RatInterval:
    """Enclosure, of width at most tol, of the one root of the
    polynomial in [lo, hi]."""
    return AlgebraicReal(coeffs, RatInterval(lo, hi)).enclose(Fraction(tol))


def _subspace_poly(s: int, n: int) -> tuple[Poly, Fraction]:
    """The degree n+1 polynomial whose root below w = (s+1)/(n-s)
    refines the linear exponent bound, with w divided out (w is always
    a root of the raw polynomial)."""
    w = badness_exponent(s, n)
    return deflate_root(subspace_polynomial(s, n), w), w


def refined_exponent_bound(s: int, n: int, tol) -> RatInterval:
    """Enclosure of the unique root in (0, w) of
    x**(n+1) - w**(n-1) (1+w) x + w**n, where w = (s+1)/(n-s).

    This root sharpens the linear bound w for the uniform exponent on
    s-dimensional affine subspaces.
    """
    reduced, w = _subspace_poly(s, n)
    out = _root_enclosure(reduced, Fraction(0), w, tol)
    if not (0 < out.lo and out.hi < w):
        raise BracketFailure("root enclosure escaped (0, w)")
    return out


def subspace_polynomial(s: int, n: int) -> list[Fraction]:
    """Ascending coefficients of the raw degree n+1 polynomial before
    the known root at w is divided out.  Exposed for identity tests."""
    w = badness_exponent(s, n)
    coeffs = [Fraction(0)] * (n + 2)
    coeffs[0] = w**n
    coeffs[1] = -(w ** (n - 1)) * (1 + w)
    coeffs[n + 1] = Fraction(1)
    return coeffs


def hypersurface_exponent_bound(n: int, s_deg: int, tol) -> RatInterval:
    """Enclosure of the unique positive root of
    1 - x = x * sum_{k=1..n-1} (x/(s_deg-1))**k.

    For s_deg = 2 this is the positive root of x**n + ... + x - 1.
    The root always lies in (0, 1).
    """
    if n < 2 or s_deg < 2:
        raise UsageError("need n >= 2 and s_deg >= 2")
    # poly = sum_{k=1..n-1} x^(k+1)/(s_deg-1)^k + x - 1, ascending
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[0] = Fraction(-1)
    coeffs[1] = Fraction(1)
    for k in range(1, n):
        coeffs[k + 1] = Fraction(1, (s_deg - 1) ** k)
    out = _root_enclosure(coeffs, Fraction(0), Fraction(1), tol)
    if not (0 < out.lo and out.hi < 1):
        raise BracketFailure("root enclosure escaped (0, 1)")
    return out


def exponent_ratio_bound(n: int, omega_hat, tol) -> RatInterval:
    """Enclosure of the root at or above 1 of
    (1 - a) x**n - x**(n-1) + a, with a = omega_hat in [1/n, 1).

    The value bounds how far the ordinary exponent can exceed the
    uniform one.  x = 1 is always a root and is divided out; the answer
    is exactly [1, 1] when a = 1/n, and otherwise satisfies the lower
    bound (1/(1-a)) * (n-1)/n.  n may be an int or an integral Fraction.
    """
    if n < 2 or n.denominator != 1:
        raise UsageError("need an integer n >= 2")
    n = int(n)
    a = Fraction(omega_hat)
    if not Fraction(1, n) <= a < 1:
        raise UsageError("omega_hat must lie in [1/n, 1)")
    if a == Fraction(1, n):
        return RatInterval(Fraction(1), Fraction(1))
    g: Poly = [Fraction(0)] * (n + 1)
    g[0] = a
    g[n - 1] = Fraction(-1)
    g[n] = 1 - a
    h = deflate_root(g, Fraction(1))
    assert poly_eval(h, Fraction(1)) == 1 - n * a  # sanity on the deflation
    hi = Fraction(2)
    while poly_eval(h, hi) <= 0:
        hi *= 2
    out = _root_enclosure(h, Fraction(1), hi, tol)
    floor_bound = Fraction(n - 1, n) / (1 - a)
    if out.hi < floor_bound:
        raise BracketFailure("enclosure fell below the guaranteed floor")
    return out


@dataclass(frozen=True)
class ExponentBoundPair:
    """Linear and refined upper bounds for the uniform exponent on an
    s-dimensional affine subspace of n-space."""

    linear: Fraction
    refined: RatInterval


def subspace_exponent_bounds(s: int, n: int, tol) -> ExponentBoundPair:
    w = badness_exponent(s, n)
    refined = refined_exponent_bound(s, n, tol)
    if not refined.hi < w:
        raise BracketFailure("refined bound must sit strictly below linear")
    return ExponentBoundPair(w, refined)
