"""Exact coef * base**exp values: normalization, comparisons,
enclosures, integer roots."""
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from singvec import PowerValue, iroot

small_nat = st.integers(min_value=0, max_value=10**12)
root_order = st.integers(min_value=1, max_value=9)


def test_iroot_frozen():
    # cross-checked against math.isqrt and paper-and-pencil cubes
    assert iroot(0, 3) == 0
    assert iroot(1, 5) == 1
    assert iroot(26, 3) == 2
    assert iroot(27, 3) == 3
    assert iroot(28, 3) == 3
    assert iroot(10**18, 2) == 10**9
    assert iroot(10**18 - 1, 2) == 10**9 - 1


@given(small_nat, root_order)
def test_iroot_is_floor_root(n, k):
    r = iroot(n, k)
    assert r**k <= n
    assert (r + 1) ** k > n


@given(st.integers(min_value=0, max_value=10**9), root_order)
def test_iroot_inverts_perfect_powers(r, k):
    assert iroot(r**k, k) == r


def test_iroot_rejects_bad_input():
    with pytest.raises(ValueError):
        iroot(-1, 2)
    with pytest.raises(ValueError):
        iroot(4, 0)


def test_integer_exponents_collapse_to_rationals():
    v = PowerValue(Fraction(2, 3), 3)
    assert v.exp == 0
    assert v.as_fraction() == Fraction(8, 27)
    assert str(v) == "8/27"


def test_fractional_base_is_normalized_above_one():
    v = PowerValue(Fraction(1, 2), Fraction(1, 2))
    assert v.base == 2
    assert v.exp == Fraction(-1, 2)


def test_as_fraction_detects_hidden_rationals():
    assert PowerValue(8, Fraction(1, 3)).as_fraction() == 2
    assert PowerValue(Fraction(4, 9), Fraction(1, 2)).as_fraction() == Fraction(2, 3)
    assert PowerValue(2, Fraction(1, 2)).as_fraction() is None
    assert PowerValue(8, Fraction(2, 3)).as_fraction() == 4


def test_ordering_without_rounding():
    # 3^(1/2) vs 2^(3/4): raise both to the 4th power -> 81 vs 8
    assert PowerValue(3, Fraction(1, 2)) > PowerValue(2, Fraction(3, 4))
    # 2^(1/2) vs 3/2: squares 2 vs 9/4
    assert PowerValue(2, Fraction(1, 2)) < Fraction(3, 2)
    assert PowerValue(2, Fraction(1, 2)) > Fraction(7, 5)
    assert PowerValue(4, Fraction(1, 2)) == 2
    # nonpositive rationals sort below any value
    assert PowerValue(2, Fraction(1, 2)) > Fraction(0)
    assert PowerValue(2, Fraction(1, 2)) > Fraction(-5)


def test_pow_and_reciprocal():
    v = PowerValue(8, Fraction(1, 2))
    assert v.pow(Fraction(2, 3)) == PowerValue(8, Fraction(1, 3))
    assert v.pow(2) == 8
    scaled = v.mul_fraction(Fraction(3, 7))
    assert scaled.coef == Fraction(3, 7)
    with pytest.raises(ValueError):
        scaled.pow(Fraction(1, 2))  # irrational with a coefficient


def test_immutability():
    v = PowerValue(2, Fraction(1, 2))
    with pytest.raises(AttributeError):
        v.base = 3


@given(
    st.integers(min_value=2, max_value=50),
    st.fractions(
        min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6
    ).filter(lambda e: e != 0),
    st.integers(min_value=16, max_value=128),
)
def test_scaled_bounds_bracket_the_value(base, exp, bits):
    v = PowerValue(base, exp)
    lo, hi = v.scaled_bounds(bits)
    assert hi - lo <= 2
    # (lo/2^bits)^den <= value^den <= (hi/2^bits)^den, all in integers
    den = exp.denominator
    num = exp.numerator
    t = 1 << bits
    if num > 0:
        value_pow = Fraction(base) ** num
    else:
        value_pow = Fraction(1, base**-num)
    assert Fraction(lo, t) ** den <= value_pow
    assert value_pow <= Fraction(hi, t) ** den


def test_scaled_bounds_exact_on_rationals():
    lo, hi = PowerValue(Fraction(3, 4)).scaled_bounds(4)
    assert (lo, hi) == (12, 12)
    lo, hi = PowerValue(Fraction(1, 3)).scaled_bounds(4)
    assert (lo, hi) == (5, 6)  # 16/3 = 5.33...


def test_enclose_narrows_with_bits():
    v = PowerValue(2, Fraction(1, 2))
    wide = v.enclose(16)
    tight = v.enclose(64)
    assert wide.contains_interval(tight)
    assert tight.width < Fraction(1, 10**18)
    root2 = math.sqrt(2)
    assert float(tight.lo) <= root2 <= float(tight.hi)


def test_to_float_and_log():
    assert PowerValue(4, Fraction(1, 2)).to_float() == 2.0
    assert abs(PowerValue(2, Fraction(1, 2)).to_float() - math.sqrt(2)) < 1e-12
    huge = PowerValue(10, Fraction(10**6))
    assert huge.log_float() == pytest.approx(10**6 * math.log(10))


def test_str_irrational_form():
    assert str(PowerValue(8, Fraction(1, 2))) == "(8)^(1/2)"
    assert str(PowerValue(8, Fraction(1, 2), coef=Fraction(3, 2))) \
        == "3/2*(8)^(1/2)"
