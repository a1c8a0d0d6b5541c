"""Helpers shared by the test modules, and importable by the child
process that tests/test_fuzz.py starts, whose path holds this folder."""
import sys
from contextlib import contextmanager
from fractions import Fraction

from singvec.exact import Box, RatInterval
from singvec.hyperplanes import _form_range


@contextmanager
def digit_limit(limit: int):
    """The interpreter's int<->str digit guard held at limit (0: none)
    for the duration of the block, then restored."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def form_interval(plane, box) -> RatInterval:
    """The range of sum_j m_j x_j - m0 over box: _form_range's integers
    over their den, as Fractions."""
    lo, hi, den = _form_range(plane, box)
    return RatInterval(Fraction(lo, den), Fraction(hi, den))


def contains_interval(outer, inner) -> bool:
    """inner lies in outer, endpoints included."""
    return outer.lo <= inner.lo and inner.hi <= outer.hi


def contains_interior(outer, inner) -> bool:
    """inner sits strictly inside outer, on every side of a box."""
    if isinstance(outer, Box):
        return outer.dim == inner.dim and all(
            map(contains_interior, outer.sides, inner.sides)
        )
    return outer.lo < inner.lo and inner.hi < outer.hi
