"""Polynomial helpers: exact evaluation, division, Sturm counts, and
the integer root kernel against plain bisection."""
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from singvec import AlgebraicReal, RatInterval
from singvec.polys import (
    bisect_root,
    count_roots,
    deflate_root,
    poly_degree,
    poly_deriv,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_scale,
    poly_trim,
    square_free_part,
    sturm_chain,
)

coeff = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
)
polys = st.lists(coeff, min_size=1, max_size=6)
points = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=16
)

F = Fraction


def fl(*xs):
    return [F(x) for x in xs]


def poly_add(p, q):
    """The sum of two coefficient lists, trimmed; the library needs no
    such helper, the tests build their polynomials with it."""
    n = max(len(p), len(q))
    return poly_trim(
        [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]
    )


def poly_mul(p, q):
    """The product of two coefficient lists, trimmed."""
    p, q = poly_trim(p), poly_trim(q)
    if not p or not q:
        return []
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def test_trim_and_degree():
    assert poly_trim(fl(1, 2, 0, 0)) == fl(1, 2)
    assert poly_trim(fl(0, 0)) == []
    assert poly_degree(fl(0)) == -1
    assert poly_degree(fl(5)) == 0
    assert poly_degree(fl(4, -6, 0, 1)) == 3


def test_eval_horner():
    # x^3 - 6x + 4 at 2: 8 - 12 + 4 = 0
    p = fl(4, -6, 0, 1)
    assert poly_eval(p, F(2)) == 0
    assert poly_eval(p, F(0)) == 4
    assert poly_eval(p, F(1, 2)) == F(1, 8) - 3 + 4


@given(polys, polys, points)
def test_ring_identities(p, q, x):
    assert poly_eval(poly_add(p, q), x) == poly_eval(p, x) + poly_eval(q, x)
    assert poly_eval(poly_mul(p, q), x) == poly_eval(p, x) * poly_eval(q, x)
    assert poly_eval(poly_scale(p, F(3)), x) == 3 * poly_eval(p, x)


@given(polys, polys)
def test_divmod_reconstructs(p, d):
    d = poly_trim(d)
    if poly_degree(d) < 0:
        return
    q, r = poly_divmod(p, d)
    assert poly_trim(poly_add(poly_mul(q, d), r)) == poly_trim(p)
    assert poly_degree(r) < poly_degree(d)


def test_deriv():
    assert poly_deriv(fl(4, -6, 0, 1)) == fl(-6, 0, 3)
    assert poly_deriv(fl(7)) == []


def test_gcd_of_common_factor():
    # (x-1)(x-2) and (x-1)(x+3) share exactly (x-1)
    a = poly_mul(fl(-1, 1), fl(-2, 1))
    b = poly_mul(fl(-1, 1), fl(3, 1))
    g = poly_gcd(a, b)
    # monic normalization up to scale: root must be 1
    assert poly_degree(g) == 1
    assert poly_eval(g, F(1)) == 0


def test_square_free_strips_multiplicity():
    # (x-1)^2 (x+2) -> roots {1, -2} each once
    p = poly_mul(poly_mul(fl(-1, 1), fl(-1, 1)), fl(2, 1))
    sf = square_free_part(p)
    assert poly_degree(sf) == 2
    assert poly_eval(sf, F(1)) == 0
    assert poly_eval(sf, F(-2)) == 0


def test_count_roots_frozen():
    # x^2 - 2 has one root in (0, 2] and one in (-2, 0]
    p = fl(-2, 0, 1)
    assert count_roots(p, F(0), F(2)) == 1
    assert count_roots(p, F(-2), F(0)) == 1
    assert count_roots(p, F(-2), F(2)) == 2
    assert count_roots(p, F(2), F(3)) == 0
    # multiple root counted once
    sq = poly_mul(fl(-1, 1), fl(-1, 1))
    assert count_roots(sq, F(0), F(2)) == 1


def test_sturm_chain_endpoints():
    chain = sturm_chain(fl(-2, 0, 1))
    assert chain[0] == fl(-2, 0, 1)
    assert chain[1] == fl(0, 2)
    assert all(poly_degree(c) >= 0 for c in chain)


def test_deflate_root_exact():
    p = fl(4, -6, 0, 1)  # root at 2
    q = deflate_root(p, F(2))
    assert q == fl(-2, 2, 1)
    assert poly_eval(q, F(2)) != 0  # simple root fully removed
    with pytest.raises(ValueError):
        deflate_root(p, F(1))


def test_bisect_root_converges():
    p = fl(-2, 0, 1)
    out = bisect_root(p, RatInterval(F(1), F(2)), F(1, 10**12))
    assert out.width <= F(1, 10**12)
    assert poly_eval(p, out.lo) < 0 < poly_eval(p, out.hi)


def test_bisect_root_exact_hit_collapses():
    p = fl(-1, 0, 1)  # roots at +-1; midpoint of [0, 2] is the root
    out = bisect_root(p, RatInterval(F(0), F(2)), F(1, 4))
    assert out.lo == out.hi == 1


def test_bisect_root_needs_sign_change():
    with pytest.raises(ValueError):
        bisect_root(fl(1, 0, 1), RatInterval(F(0), F(1)), F(1, 8))


@given(
    st.fractions(min_value=F(-5), max_value=F(5), max_denominator=8),
    st.fractions(min_value=F(-5), max_value=F(5), max_denominator=8),
)
def test_deflate_then_eval_agrees(r, x):
    # p = (x - r) * (x^2 + 1); deflating r recovers the cofactor
    p = poly_mul([-r, F(1)], fl(1, 0, 1))
    q = deflate_root(p, r)
    assert poly_eval(q, x) == x * x + 1


# -- the root kernel against the Fraction bisection it replaces ---------


def bisect_oracle(p, bracket, width):
    """Halve the bracket one Fraction midpoint at a time, keeping the
    half with the sign change; a midpoint root collapses it."""
    lo, hi = bracket.lo, bracket.hi
    flo = poly_eval(p, lo)
    fhi = poly_eval(p, hi)
    if flo == 0:
        return RatInterval(lo, lo)
    if fhi == 0:
        return RatInterval(hi, hi)
    assert (flo > 0) != (fhi > 0)
    while hi - lo > width:
        mid = (lo + hi) / 2
        fm = poly_eval(p, mid)
        if fm == 0:
            return RatInterval(mid, mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return RatInterval(lo, hi)


int_coeffs = st.lists(st.integers(-20, 20).map(F), min_size=2, max_size=6)
rat_coeffs = st.lists(coeff, min_size=2, max_size=6)
# widths of any rational size, powers of two among them
widths = st.one_of(
    st.builds(F, st.integers(1, 10**6), st.integers(1, 2**200)),
    st.integers(0, 200).map(lambda e: F(1, 2**e)),
)


@st.composite
def isolated(draw):
    """A polynomial of degree 1 to 5 and a bracket with a sign change
    around exactly one distinct root, from a grid of step 1/s shifted
    by a rational offset, so the ends are rarely dyadic."""
    p = poly_trim(draw(st.one_of(int_coeffs, rat_coeffs)))
    assume(poly_degree(p) >= 1)
    step = F(1, draw(st.integers(1, 12)))
    offset = draw(st.fractions(F(0), F(1), max_denominator=9))
    ends = [offset + step * i for i in range(int(-30 / step), int(30 / step))]
    signs = [poly_eval(p, x) for x in ends]
    found = [
        RatInterval(ends[i], ends[i + 1])
        for i in range(len(ends) - 1)
        if signs[i] * signs[i + 1] < 0
        and count_roots(p, ends[i], ends[i + 1]) == 1
    ]
    assume(found)
    return p, draw(st.sampled_from(found))


@settings(max_examples=150, deadline=None)
@given(isolated(), widths)
def test_bisect_root_matches_bisection(case, width):
    p, bracket = case
    assert bisect_root(p, bracket, width) == bisect_oracle(p, bracket, width)


@st.composite
def grid_roots(draw):
    """A polynomial with a rational root on the level-m grid of its
    bracket (and on no coarser one), times a cofactor with no root in
    the bracket, and a width whose level k may lie above or below m."""
    lo = draw(st.fractions(F(-5), F(5), max_denominator=10))
    h = draw(st.fractions(F(1, 10), F(10), max_denominator=10))
    m = draw(st.integers(1, 60))
    root = lo + h * F(2 * draw(st.integers(0, 2 ** (m - 1) - 1)) + 1, 2**m)
    p = [-root, F(1)]
    for _ in range(draw(st.integers(0, 4))):
        gap = draw(st.fractions(F(1, 100), F(10), max_denominator=100))
        far = lo - gap if draw(st.booleans()) else lo + h + gap
        p = poly_mul(p, [-far, F(1)])
    p = poly_scale(p, draw(st.sampled_from([F(1), F(-1), F(3, 7), F(-12)])))
    # slack 1 puts the width on the level's cell size; 99/100 just under
    slack = draw(st.sampled_from([F(1), F(4, 3), F(7, 4), F(99, 100)]))
    width = h / 2 ** draw(st.integers(max(0, m - 3), m + 3)) * slack
    return p, RatInterval(lo, lo + h), width, root, m


@settings(max_examples=150, deadline=None)
@given(grid_roots())
def test_bisect_root_collapses_on_grid_roots(case):
    p, bracket, width, root, m = case
    out = bisect_root(p, bracket, width)
    assert out == bisect_oracle(p, bracket, width)
    k = 0
    while bracket.width / 2**k > width:
        k += 1
    assert (out == RatInterval(root, root)) == (m <= k)


STEPS = [64 << i for i in range(7)]  # 64, 128, ..., 4096 bits


@settings(max_examples=40, deadline=None)
@given(isolated())
def test_enclose_in_turn_equals_one_call(case):
    p, bracket = case
    stepped = AlgebraicReal(p, bracket)
    seen = [stepped.enclose(F(1, 2**b)) for b in STEPS]
    once = AlgebraicReal(p, bracket).enclose(F(1, 2**STEPS[-1]))
    assert seen[-1] == once
    # the oracle, on the square-free part as AlgebraicReal refines, takes
    # seconds to reach 4096 bits, so it follows the steps to 256 bits
    ref, want = square_free_part(p), bracket
    for b, got in zip(STEPS[:3], seen):
        if want.width > F(1, 2**b):
            want = bisect_oracle(ref, want, F(1, 2**b))
        assert got == want


def test_sqrt2_at_4096_bits_matches_bisection():
    p, bracket, width = fl(-2, 0, 1), RatInterval(F(1), F(2)), F(1, 2**4096)
    assert bisect_root(p, bracket, width) == bisect_oracle(p, bracket, width)
