"""Rational substrate: parsing, rendering, nearest-integer distance,
intervals, boxes."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from singvec import Box, RatInterval, UsageError, box_from_pairs
from singvec.exact import dec_str, dist_interval, nearest_int_dist, rat, rat_str

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=1000
)


def test_rat_parses_plain_forms():
    assert rat("3") == 3
    assert rat("-1/2") == Fraction(-1, 2)
    assert rat("0.125") == Fraction(1, 8)
    assert rat(" 7/9 ") == Fraction(7, 9)


@pytest.mark.parametrize("bad", ["", "x", "1/2/3", "1e3", "--4", "1 / 2", "1/0"])
def test_rat_rejects_junk(bad):
    with pytest.raises(UsageError):
        rat(bad)


@given(rationals)
def test_rat_str_round_trips(x):
    assert rat(rat_str(x)) == x


def test_rat_str_compact_forms():
    assert rat_str(Fraction(3)) == "3"
    assert rat_str(Fraction(-1, 2)) == "-1/2"


def test_rat_str_survives_huge_integers():
    # values this size appear in real certificates; the interpreter's
    # int<->str guard must not abort the rendering
    big = Fraction(1, 3 ** 40_000)
    text = rat_str(big)
    assert rat(text) == big


def test_dec_str_rounds_half_even():
    # ties go to the even last digit, like round()
    assert dec_str(Fraction(1, 20), 1) == "0.0"
    assert dec_str(Fraction(3, 20), 1) == "0.2"
    assert dec_str(Fraction(1, 3), 6) == "0.333333"
    assert dec_str(Fraction(-1, 3), 6) == "-0.333333"
    assert dec_str(Fraction(2, 3), 6) == "0.666667"


def test_nearest_int_dist_frozen():
    # hand-checked: 7/3 is 1/3 past 2; 5/2 sits midway; 4 is integral
    assert nearest_int_dist(Fraction(7, 3)) == Fraction(1, 3)
    assert nearest_int_dist(Fraction(5, 2)) == Fraction(1, 2)
    assert nearest_int_dist(Fraction(4)) == 0
    assert nearest_int_dist(Fraction(-7, 3)) == Fraction(1, 3)


@given(rationals)
def test_nearest_int_dist_range_and_symmetry(x):
    d = nearest_int_dist(x)
    assert 0 <= d <= Fraction(1, 2)
    assert nearest_int_dist(-x) == d
    assert nearest_int_dist(x + 1) == d


@given(rationals)
def test_nearest_int_dist_is_min_over_integers(x):
    d = nearest_int_dist(x)
    floor = x.numerator // x.denominator
    assert d == min(abs(x - floor), abs(x - floor - 1))


def test_interval_basic_predicates():
    iv = RatInterval(Fraction(1, 3), Fraction(2, 3))
    assert iv.width == Fraction(1, 3)
    assert iv.mid == Fraction(1, 2)
    assert iv.contains(Fraction(1, 3))
    assert not iv.contains_strict(Fraction(1, 3))
    assert iv.contains_interval(RatInterval(Fraction(1, 3), Fraction(1, 2)))
    assert not iv.contains_interior(
        RatInterval(Fraction(1, 3), Fraction(1, 2))
    )
    assert iv.contains_interior(RatInterval(Fraction(2, 5), Fraction(3, 5)))
    assert iv.intersects(RatInterval(Fraction(2, 3), Fraction(1)))
    assert not iv.intersects(RatInterval(Fraction(3, 4), Fraction(1)))


def test_interval_rejects_reversed_endpoints():
    with pytest.raises(ValueError):
        RatInterval(Fraction(1), Fraction(0))


def test_scale_add():
    iv = RatInterval(Fraction(0), Fraction(1))
    assert iv.scale_add(Fraction(2), Fraction(1)) == RatInterval(
        Fraction(1), Fraction(3)
    )
    # negative scale flips the endpoints
    assert iv.scale_add(Fraction(-2), Fraction(1)) == RatInterval(
        Fraction(-1), Fraction(1)
    )


def test_dist_interval_cases():
    # interval spanning an integer touches zero
    iv = dist_interval(RatInterval(Fraction(9, 10), Fraction(11, 10)))
    assert iv.lo == 0 and iv.hi == Fraction(1, 10)
    # interval spanning a half-integer reaches the maximum 1/2
    iv = dist_interval(RatInterval(Fraction(2, 5), Fraction(3, 5)))
    assert iv.lo == Fraction(2, 5) and iv.hi == Fraction(1, 2)
    # interval wider than a full period covers everything
    iv = dist_interval(RatInterval(Fraction(0), Fraction(2)))
    assert iv == RatInterval(Fraction(0), Fraction(1, 2))


@given(rationals, st.fractions(min_value=0, max_value=2, max_denominator=64), rationals)
def test_dist_interval_encloses_pointwise(lo, w, probe):
    # sound enclosure: any point of the interval has its distance inside
    iv = RatInterval(lo, lo + w)
    out = dist_interval(iv)
    x = min(max(probe, iv.lo), iv.hi)
    assert out.lo <= nearest_int_dist(x) <= out.hi


def test_box_predicates():
    box = box_from_pairs([(Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))])
    inner = box_from_pairs(
        [(Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 4), Fraction(1, 2))]
    )
    flush = box_from_pairs(
        [(Fraction(0), Fraction(1, 2)), (Fraction(1, 4), Fraction(1, 2))]
    )
    assert box.dim == 2
    assert box.contains_box(inner)
    assert box.contains_interior(inner)
    assert box.contains_box(flush)
    assert not box.contains_interior(flush)
    assert box.contains_point((Fraction(1, 2), Fraction(1)))
    assert not box.contains_point((Fraction(1, 2), Fraction(2)))
    assert box.midpoint == (Fraction(1, 2), Fraction(1, 2))


def test_box_dimension_mismatch_is_not_membership():
    box = box_from_pairs([(Fraction(0), Fraction(1))])
    assert not box.contains_point((Fraction(0), Fraction(0)))
