"""Real-number descriptors: enclosure contracts, exact values, the
string grammar."""
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from singvec import (
    AlgebraicReal,
    Cylinder,
    DigitSystem,
    ExactReal,
    LinearCombinationReal,
    NonIsolating,
    PrecisionExhausted,
    ProductReal,
    RatInterval,
    UsageError,
    parse_real,
)

F = Fraction
widths = st.fractions(
    min_value=F(1, 2**80), max_value=F(1, 4), max_denominator=2**80
)


def test_exact_real_is_a_point():
    d = ExactReal(F(3, 7))
    assert d.exact_value() == F(3, 7)
    iv = d.enclose(F(1, 1000))
    assert iv.lo == iv.hi == F(3, 7)


def test_enclosure_width_must_be_positive():
    with pytest.raises(UsageError):
        ExactReal(1).enclose(F(0))


def test_enclosure_width_floor():
    with pytest.raises(PrecisionExhausted):
        ExactReal(1).enclose(F(1, 2**5000))


def test_algebraic_sqrt2():
    d = AlgebraicReal([-2, 0, 1], RatInterval(F(1), F(2)))
    assert d.exact_value() is None
    iv = d.enclose(F(1, 10**15))
    assert iv.width <= F(1, 10**15)
    assert float(iv.lo) <= math.sqrt(2) <= float(iv.hi)
    # enclosures only ever shrink
    again = d.enclose(F(1, 4))
    assert iv.contains_interval(again)


def test_algebraic_rejects_ambiguous_bracket():
    # x^2 - 2 has two roots in [-2, 2]
    with pytest.raises(NonIsolating):
        AlgebraicReal([-2, 0, 1], RatInterval(F(-2), F(2)))
    with pytest.raises(NonIsolating):
        AlgebraicReal([5], RatInterval(F(0), F(1)))


def test_algebraic_endpoint_root_collapses():
    d = AlgebraicReal([-4, 0, 1], RatInterval(F(0), F(2)))
    assert d.exact_value() == 2


def test_algebraic_multiple_root_polynomial():
    # (x - 1)^2: square-free handling still isolates the root
    d = AlgebraicReal([1, -2, 1], RatInterval(F(0), F(3, 2)))
    iv = d.enclose(F(1, 1000))
    assert iv.contains(F(1))


def test_cylinder_point_policies():
    hull = Cylinder.root(DigitSystem(3, (0, 2))).extend((0, 2)).hull()
    # prefix 0.02, tail all zeros -> 2/9
    lo = parse_real("cyl:3,0,2:02:min")
    assert isinstance(lo, ExactReal) and lo.exact_value() == F(2, 9)
    # tail all twos -> 2/9 + (1/9) * (2/3)/(1 - 1/3) = 2/9 + 1/9 = 3/9
    hi = parse_real("cyl:3,0,2:02:max")
    assert hi.exact_value() == F(1, 3)
    # repeating "20": 0.02 202020... = 2/9 + (1/9) * 6/8
    rep = parse_real("cyl:3,0,2:02:rep20")
    assert rep.exact_value() == F(2, 9) + F(1, 9) * F(6, 8)
    for d in (lo, hi, rep):
        assert hull.contains(d.exact_value())


def test_cylinder_point_rejects_bad_pattern():
    with pytest.raises(UsageError):
        parse_real("cyl:3,0,2::rep1")  # digit 1 not allowed
    with pytest.raises(UsageError):
        parse_real("cyl:3,0,2::rep")  # empty pattern
    with pytest.raises(UsageError):
        parse_real("cyl:3,0,2::spiral")


def test_linear_combination():
    sqrt2 = AlgebraicReal([-2, 0, 1], RatInterval(F(1), F(2)))
    combo = LinearCombinationReal([(F(3), sqrt2), (F(-1), ExactReal(F(1, 2)))], F(5))
    assert combo.exact_value() is None
    iv = combo.enclose(F(1, 10**12))
    target = 3 * math.sqrt(2) - 0.5 + 5
    assert float(iv.lo) <= target <= float(iv.hi)
    assert iv.width <= F(1, 10**12)
    rational = LinearCombinationReal([(F(2), ExactReal(F(1, 3)))], F(1))
    assert rational.exact_value() == F(5, 3)


def test_product():
    sqrt2 = AlgebraicReal([-2, 0, 1], RatInterval(F(1), F(2)))
    sq = ProductReal(sqrt2, sqrt2)
    iv = sq.enclose(F(1, 10**12))
    assert iv.contains(F(2))
    assert iv.width <= F(1, 10**12)
    assert sq.exact_value() is None
    assert ProductReal(ExactReal(2), ExactReal(F(1, 3))).exact_value() == F(2, 3)


@given(widths)
def test_product_enclosure_respects_width(width):
    cbrt2 = parse_real("cbrt2")
    iv = ProductReal(cbrt2, cbrt2).enclose(width)
    assert iv.width <= width
    cube_root_sq = 2 ** (2 / 3)
    assert float(iv.lo) - 1e-15 <= cube_root_sq <= float(iv.hi) + 1e-15


def test_parse_real_grammar():
    assert parse_real("3/4").exact_value() == F(3, 4)
    assert parse_real("-0.5").exact_value() == F(-1, 2)
    named = parse_real("sqrt2")
    assert isinstance(named, AlgebraicReal)
    alg = parse_real("alg:-2,0,1:1,2")
    assert isinstance(alg, AlgebraicReal)
    assert alg.enclose(F(1, 100)).contains_interval(
        named.enclose(F(1, 100))
    ) or named.enclose(F(1, 100)).intersects(alg.enclose(F(1, 100)))
    cyl = parse_real("cyl:3,0,2:02:min")
    assert cyl.exact_value() == F(2, 9)
    rep = parse_real("cyl:3,0,2:02:rep20")
    assert rep.exact_value() == F(2, 9) + F(1, 9) * F(6, 8)


@pytest.mark.parametrize(
    "bad",
    [
        "alg:1,2",  # missing bracket
        "alg:-2,0,1:2,1",  # reversed bracket
        "alg:-2,0,1:1,2,3",  # too many endpoints
        "cyl:3,0,2:02",  # missing policy
        "cyl:3:02:min",  # no digits
        "cyl:3,0,2:02:spiral",  # unknown policy
        "cyl:3,x,2:02:min",  # digit that is not an integer
        "cyl:3,0,2:0x:min",  # prefix digit that is not an integer
        "one half",
    ],
)
def test_parse_real_rejects(bad):
    with pytest.raises(UsageError):
        parse_real(bad)
