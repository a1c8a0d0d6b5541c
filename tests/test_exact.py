"""Rational substrate: parsing, rendering, nearest-integer distance,
intervals, boxes."""
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singvec import Box, RatInterval, UsageError
from singvec.exact import (
    _LEAF_BITS,
    _LEAF_DIGITS,
    dec_str,
    dist_interval,
    int_str,
    nearest_int_dist,
    parse_int,
    rat,
    rat_str,
)

from helpers import contains_interior, contains_interval, digit_limit

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


def near_splits(leaf):
    """Sizes on both sides of the leaf and of each split width after it."""
    return [(leaf << k) + d for k in range(7) for d in (-1, 0, 1)]


@st.composite
def big_ints(draw, sizes):
    """A signed int of a drawn bit length, its bits from a seeded Random
    (hypothesis cannot draw a 200k-bit integer directly)."""
    bits = draw(sizes)
    n = draw(st.randoms(use_true_random=False)).getrandbits(bits)
    n |= (1 << bits) >> 1  # exactly `bits` bits long
    return -n if draw(st.booleans()) else n


@settings(deadline=None, derandomize=True, max_examples=150)
@given(big_ints(st.sampled_from(near_splits(_LEAF_BITS)) | st.integers(0, 70_000)))
@example(0)
@example(-1)
def test_int_str_matches_str(n):
    # the minimum guard the interpreter allows: the helper must not need more
    with digit_limit(640):
        text = int_str(n)
    with digit_limit(0):
        assert text == str(n)


@settings(deadline=None, derandomize=True, max_examples=150)
@given(
    st.sampled_from(near_splits(_LEAF_DIGITS)) | st.integers(1, 21_000),
    st.randoms(use_true_random=False),
    st.sampled_from(["", "+", "-"]),
    st.integers(0, 3),
)
@example(1, random.Random(0), "-", 2)
def test_parse_int_matches_int(digits, rnd, sign, zeros):
    # digits long, then zero padded and signed, as rat may meet them
    n = rnd.randrange(10 ** (digits - 1), 10**digits)
    with digit_limit(0):
        text = sign + "0" * zeros + str(n)
        want = int(text)
    with digit_limit(640):
        assert parse_int(text) == want


@pytest.mark.parametrize("digits", near_splits(_LEAF_DIGITS) + [1, 2, 616, 617])
def test_codec_at_powers_of_ten(digits):
    # digit lengths at each split width, and the carries of 10**k - 1
    for n in (10**digits - 1, 10**digits):
        with digit_limit(0):
            text = str(n)
        with digit_limit(640):
            assert int_str(n) == text and int_str(-n) == "-" + text
            assert parse_int(text) == n and parse_int("-" + text) == -n


# Past the leaf length, parse_int splits the digits; zero padding sends
# each form down that path.
PAD = "0" * (_LEAF_DIGITS + 1)
# (text, value) for accepted strings, (text, None) for refused ones
RAT_CASES = [
    (" 5 ", Fraction(5)),
    ("+3", Fraction(3)),
    ("-0", Fraction(0)),
    ("1.5", Fraction(3, 2)),
    (".5", Fraction(1, 2)),
    ("5.", Fraction(5)),
    ("2/4", Fraction(1, 2)),
    ("007/010", Fraction(7, 10)),
    ("1/0", None),
    ("1/-2", None),
    ("1e3", None),
    ("1/2.5", None),
    ("", None),
    (f" {PAD}5 ", Fraction(5)),
    (f"+{PAD}3", Fraction(3)),
    (f"-{PAD}", Fraction(0)),
    (f"-{PAD}1.5{PAD}", Fraction(-3, 2)),
    (f".5{PAD}", Fraction(1, 2)),
    (f"-.5{PAD}", Fraction(-1, 2)),
    (f"{PAD}5.", Fraction(5)),
    (f"{PAD}2/{PAD}4", Fraction(1, 2)),
    (f"1/{PAD}", None),
    (f"1/-{PAD}2", None),
    (f"1e{PAD}3", None),
    (f"{PAD}1/2/3", None),
]


@pytest.mark.parametrize(
    "text, want", RAT_CASES, ids=[f"case{i}" for i in range(len(RAT_CASES))]
)
def test_rat_accepts_and_refuses_as_before(text, want):
    with digit_limit(640):
        if want is None:
            with pytest.raises(UsageError):
                rat(text)
        else:
            assert rat(text) == want


def test_rat_str_and_interval_text_under_the_default_guard():
    big = Fraction(3**20000, 2**70001 + 1)
    with digit_limit(4300):
        text = rat_str(big)
        with pytest.raises(ValueError, match="empty interval"):
            RatInterval(big, big - 1)
    with digit_limit(0):
        assert text == f"{big.numerator}/{big.denominator}"


@settings(deadline=None, derandomize=True, max_examples=30)
@given(
    big_ints(st.integers(0, 200_000)),
    big_ints(st.integers(1, 200_000)),
)
def test_rat_round_trips_big_values(num, den):
    x = Fraction(num, abs(den))
    with digit_limit(4300):
        assert rat(rat_str(x)) == x


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
    assert contains_interval(iv, RatInterval(Fraction(1, 3), Fraction(1, 2)))
    assert not contains_interior(iv, RatInterval(Fraction(1, 3), Fraction(1, 2)))
    assert contains_interior(iv, RatInterval(Fraction(2, 5), Fraction(3, 5)))
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
    unit = RatInterval(Fraction(0), Fraction(1))
    quarter = RatInterval(Fraction(1, 4), Fraction(1, 2))
    box = Box((unit, unit))
    inner = Box((quarter, quarter))
    flush = Box((RatInterval(Fraction(0), Fraction(1, 2)), quarter))
    assert box.dim == 2
    assert contains_interior(box, inner)
    assert not contains_interior(box, flush)
    # the sides' lcm, once
    assert box.scaled == (1, ((0, 1), (0, 1)))
    assert inner.scaled == (4, ((1, 2), (1, 2)))


@settings(deadline=None, derandomize=True, max_examples=200)
@given(
    st.lists(st.tuples(rationals, rationals), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=10**6),
    st.data(),
)
@example([(Fraction(0), Fraction(1))], 1, None)
def test_box_over_any_denominator_is_the_box_of_its_sides(ends, m, data):
    sides = tuple(RatInterval(min(a, b), max(a, b)) for a, b in ends)
    box = Box(sides)
    den, pairs = box.scaled
    lifted = [(m * lo, m * hi) for lo, hi in pairs]
    for other in (Box.over(m * den, lifted), Box.over(den, pairs)):
        assert other == box and box == other
        assert hash(other) == hash(box)
        assert other.sides == sides
        assert (repr(other), str(other)) == (repr(box), str(box))
    # an end moved by one, at either denominator, or one side more or
    # less, is another box
    i = data.draw(st.integers(0, len(pairs) - 1)) if data else 0
    for scale, over in ((1, list(pairs)), (m, lifted)):
        lo, hi = over[i]
        for moved in ((lo - 1, hi), (lo, hi + 1)):
            other = Box.over(scale * den, over[:i] + [moved] + over[i + 1:])
            assert other != box and box != other
    assert Box.over(den, pairs + pairs[:1]) != box
    assert box != Box.over(den, pairs + pairs[:1])
    if len(pairs) > 1:
        assert Box.over(den, pairs[:-1]) != box
