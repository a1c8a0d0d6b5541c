"""Exponent constants and certified root enclosures."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from singvec import (
    RatInterval,
    UsageError,
    badness_exponent,
    exponent_ratio_bound,
    hypersurface_exponent_bound,
    refined_exponent_bound,
    subspace_exponent_bounds,
    subspace_polynomial,
    transference_constants,
)
from singvec.polys import poly_eval

F = Fraction
TOL = F(1, 10**12)


def test_badness_exponent_frozen():
    assert badness_exponent(1, 2) == F(2)
    assert badness_exponent(2, 3) == F(3)
    assert badness_exponent(1, 4) == F(2, 3)
    assert badness_exponent(3, 7) == F(1)
    with pytest.raises(UsageError):
        badness_exponent(0, 3)
    with pytest.raises(UsageError):
        badness_exponent(3, 3)


def test_transference_frozen():
    tc = transference_constants(2)
    assert tc.basic == F(1)
    assert tc.classical == F(5, 6)
    assert tc.weighted is None
    tc3 = transference_constants(3)
    assert tc3.basic == F(1, 2)
    assert tc3.classical == F(10, 24)


def test_transference_identity_all_n():
    for n in range(2, 21):
        tc = transference_constants(n)
        assert tc.classical == tc.basic - F(1, n * (n + 1))
        assert tc.classical < tc.basic
        assert tc.basic == F(1, n - 1)


def test_transference_weighted():
    tc = transference_constants(2, (F(2, 3), F(1, 3)))
    assert tc.weighted == F(1, 2 * (1 - F(1, 3)))
    with pytest.raises(UsageError):
        transference_constants(2, (F(1, 2),))
    with pytest.raises(UsageError):
        transference_constants(2, (F(3, 4), F(3, 4)))
    with pytest.raises(UsageError):
        transference_constants(1)


@given(st.integers(2, 12))
def test_transference_weighted_equal_split(n):
    ws = (F(1, n),) * n
    tc = transference_constants(n, ws)
    assert tc.weighted == F(1, n - 1) == tc.basic


def test_subspace_polynomial_frozen():
    assert subspace_polynomial(1, 2) == [F(4), F(-6), F(0), F(1)]
    assert subspace_polynomial(1, 3) == [F(1), F(-2), F(0), F(0), F(1)]
    assert subspace_polynomial(2, 3) == [F(27), F(-36), F(0), F(0), F(1)]


@given(st.integers(2, 8), st.data())
def test_subspace_polynomial_has_root_at_linear_bound(n, data):
    s = data.draw(st.integers(1, n - 1))
    w = badness_exponent(s, n)
    assert poly_eval(subspace_polynomial(s, n), w) == 0


def test_refined_bounds_frozen():
    got = refined_exponent_bound(1, 2, TOL)
    assert got.width <= TOL
    assert got.contains(F("0.7320508075688772"))
    assert float(got.lo) == pytest.approx(0.7320508075688773, abs=1e-9)
    assert float(refined_exponent_bound(1, 3, TOL).lo) == pytest.approx(
        0.5436890126920764, abs=1e-9
    )
    assert float(refined_exponent_bound(2, 3, TOL).lo) == pytest.approx(
        0.7592297596247984, abs=1e-9
    )


def test_refined_bound_sits_below_linear():
    for s, n in ((1, 2), (1, 3), (2, 3), (2, 5), (3, 4)):
        pair = subspace_exponent_bounds(s, n, TOL)
        assert pair.linear == badness_exponent(s, n)
        assert pair.refined.hi < pair.linear
        assert pair.refined.lo > 0
        # the enclosure genuinely brackets a root of the raw polynomial
        p = subspace_polynomial(s, n)
        assert poly_eval(p, pair.refined.lo) * poly_eval(p, pair.refined.hi) <= 0


def test_hypersurface_bound_frozen():
    got = hypersurface_exponent_bound(2, 2, TOL)
    assert got.width <= TOL
    # golden ratio minus one: root of x**2 + x - 1
    assert float(got.lo) == pytest.approx(0.6180339887498949, abs=1e-9)
    # quadric hypersurfaces in one higher degree: root of x**2/2 + x - 1
    assert float(hypersurface_exponent_bound(2, 3, TOL).lo) == pytest.approx(
        0.7320508075688773, abs=1e-9
    )
    with pytest.raises(UsageError):
        hypersurface_exponent_bound(1, 2, TOL)
    with pytest.raises(UsageError):
        hypersurface_exponent_bound(2, 1, TOL)


@given(st.integers(2, 7), st.integers(2, 5))
def test_hypersurface_bound_in_unit_interval(n, s_deg):
    got = hypersurface_exponent_bound(n, s_deg, F(1, 10**6))
    assert 0 < got.lo and got.hi < 1


def test_exponent_ratio_bound():
    assert exponent_ratio_bound(2, F(1, 2), TOL) == RatInterval(F(1), F(1))
    got = exponent_ratio_bound(2, F(3, 5), TOL)
    assert got.contains(F(3, 2))
    assert got.width <= TOL
    floor = F(1, 2) / (1 - F(3, 5))
    assert got.hi >= floor
    with pytest.raises(UsageError):
        exponent_ratio_bound(1, F(1, 2), TOL)
    with pytest.raises(UsageError):
        exponent_ratio_bound(2, F(1), TOL)
    with pytest.raises(UsageError):
        exponent_ratio_bound(2, F(1, 3), TOL)


@given(st.integers(2, 6), st.fractions(min_value=F(1, 2), max_value=F(9, 10), max_denominator=20))
def test_exponent_ratio_floor(n, a):
    got = exponent_ratio_bound(n, a, F(1, 10**6))
    assert got.hi >= F(n - 1, n) / (1 - a)
    assert got.lo >= 1
