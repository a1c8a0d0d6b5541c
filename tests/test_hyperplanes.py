"""Rational hyperplanes: primitivity, heights, exact form ranges,
bounded enumeration."""
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singvec import (
    SUP_NORM,
    Box,
    ConstructionSpec,
    Cylinder,
    DigitSystem,
    Hyperplane,
    NotPrimitive,
    PhiSpec,
    ProductSet,
    RatInterval,
    UsageError,
    ZeroForm,
    construct,
    coordinate_hyperplane,
    enumerate_hyperplanes,
    hyperplanes_meeting,
    make_primitive,
)
from singvec import engine, hyperplanes
from singvec.engine import _dot_range, signed_box

from helpers import form_interval

F = Fraction


def test_constructor_validates():
    with pytest.raises(ZeroForm):
        Hyperplane(1, (0, 0))
    with pytest.raises(NotPrimitive):
        Hyperplane(2, (4, 6))
    p = Hyperplane(2, (4, 7))
    assert p.dim == 2
    assert p.height() == 7


def test_make_primitive():
    p = make_primitive(4, (-2, -6))
    # gcd 2 divided out, then sign flipped so the lead coefficient is
    # positive
    assert (p.m0, p.mvec) == (-2, (1, 3))
    with pytest.raises(ZeroForm):
        make_primitive(3, (0, 0, 0))


def test_form_at_and_str():
    p = Hyperplane(1, (2, -3))
    assert p.form_at((F(1, 2), F(0))) == 0
    assert p.form_at((1, 1)) == -2
    assert str(p) == "(1; 2,-3)"


def test_coordinate_hyperplane_height_is_denominator():
    p = coordinate_hyperplane(2, F(3, 7), 3)
    assert p.mvec == (0, 7, 0)
    assert p.m0 == 3
    assert p.height() == 7
    assert p.form_at((0, F(3, 7), 0)) == 0
    with pytest.raises(ZeroForm):
        coordinate_hyperplane(4, F(1, 2), 3)


def test_form_range_exact_on_box():
    p = Hyperplane(1, (2, -3))
    box = Box((RatInterval(F(0), F(1)), RatInterval(F(0), F(1))))
    iv = form_interval(p, box)
    # extremes of 2x - 3y - 1 over the unit square
    assert (iv.lo, iv.hi) == (F(-4), F(1))
    with pytest.raises(ZeroForm):
        form_interval(p, Box((RatInterval(F(0), F(1)),)))


corner_picks = st.lists(st.booleans(), min_size=2, max_size=2)


@given(
    st.integers(-5, 5),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    corner_picks,
)
def test_form_range_attained_at_corners(m0, mvec, picks):
    if all(c == 0 for c in mvec):
        return
    g = math.gcd(m0, *mvec)
    if g != 1:
        return
    p = Hyperplane(m0, mvec)
    box = Box((RatInterval(F(0), F(1, 3)), RatInterval(F(1, 2), F(2))))
    iv = form_interval(p, box)
    corner = tuple(
        side.hi if pick else side.lo for side, pick in zip(box.sides, picks)
    )
    v = p.form_at(corner)
    assert iv.lo <= v <= iv.hi


def test_enumeration_frozen_counts():
    # height 1, |m0| <= 1 in the plane: 12 primitive forms
    planes = list(enumerate_hyperplanes(2, 1, 1))
    assert len(planes) == 12
    assert len(set(planes)) == 12
    # with constant term forced to zero only the 4 sign-normalized
    # nonzero directions survive
    through_origin = [p for p in planes if p.m0 == 0]
    assert len(through_origin) == 4
    for p in planes:
        assert p.height() <= 1
        assert abs(p.m0) <= 1
        assert math.gcd(p.m0, *p.mvec) == 1
        lead = next(c for c in p.mvec if c != 0)
        assert lead > 0
    with pytest.raises(ZeroForm):
        list(enumerate_hyperplanes(2, 0, 1))


def test_enumeration_is_sorted_and_json_round_trips():
    planes = list(enumerate_hyperplanes(2, 2, 1))
    keys = [(p.mvec, p.m0) for p in planes]
    assert keys == sorted(keys)
    for p in planes[:10]:
        assert Hyperplane.from_json(p.to_json()) == p


def test_hyperplanes_meeting_only_yields_crossers():
    box = Box((RatInterval(F(1, 10), F(2, 10)), RatInterval(F(1, 10), F(2, 10))))
    hit = list(hyperplanes_meeting(2, 3, box))
    assert hit
    for p in hit:
        iv = form_interval(p, box)
        assert iv.lo <= 0 <= iv.hi
    # and nothing with the same bounds that crosses was skipped
    full = [
        p
        for p in enumerate_hyperplanes(2, 3, 10)
        if form_interval(p, box).contains(F(0))
    ]
    assert set(hit) == set(full)


def test_hyperplanes_meeting_small_box_misses_far_planes():
    box = Box((RatInterval(F(1, 100), F(2, 100)), RatInterval(F(1, 100), F(2, 100))))
    hit = list(hyperplanes_meeting(2, 1, box))
    # x = 0 style planes do not cross a box separated from the axes
    assert all(p.m0 == 0 for p in hit)


def test_hyperplanes_meeting_refuses_a_box_of_another_dimension():
    box = Box((RatInterval(F(0), F(1)), RatInterval(F(0), F(1))))
    with pytest.raises(ZeroForm):
        list(hyperplanes_meeting(3, 1, box))
    with pytest.raises(ZeroForm):
        list(hyperplanes_meeting(1, 1, box))


# -- exact form ranges on big denominators --------------------------------


@st.composite
def _sides(draw):
    """A side with a large endpoint denominator, or a cylinder hull of
    base 3, 5 or 10 up to depth 60, shifted so it may be negative or
    start at an integer."""
    kind = draw(st.sampled_from(["cylinder", "big", "integral"]))
    shift = F(draw(st.integers(-2, 1)))
    if kind == "cylinder":
        base = draw(st.sampled_from([3, 5, 10]))
        digit = st.integers(0, base - 1)
        digits = draw(st.lists(digit, min_size=2, max_size=4, unique=True))
        prefix = draw(st.lists(st.sampled_from(digits), max_size=60))
        cyl = Cylinder(DigitSystem(base, tuple(digits), offset=shift), prefix)
        return cyl.hull()
    lo = shift
    if kind == "big":
        den = draw(st.integers(1, 2**80))
        lo += F(draw(st.integers(0, den)), den)
    width = F(draw(st.integers(0, 2**70)), draw(st.integers(1, 2**72)))
    return RatInterval(lo, lo + min(width, F(1)))


def _corner_on_a_plane(draw, sides, height):
    """The sides with the last one moved so that a corner of their box
    lies exactly on a plane of height at most height."""
    n = len(sides)
    last = st.integers(1, height).map(lambda c: c * draw(st.sampled_from([-1, 1])))
    mvec = draw(st.tuples(*[st.integers(-height, height)] * (n - 1), last))
    picks = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    corner = [s.hi if pick else s.lo for s, pick in zip(sides, picks)]
    dot = sum(c * x for c, x in zip(mvec, corner[:-1]))
    m0 = math.floor(dot) + draw(st.integers(-1, 1))
    x = F(m0 - dot) / mvec[-1]
    w = sides[-1].width
    lo = x - w if picks[-1] else x
    return sides[:-1] + [RatInterval(lo, lo + w)]


@st.composite
def _boxes(draw):
    """Boxes of 1..3 sides; half of them get a corner exactly on a
    plane of height at most 2, with the other sides left as drawn."""
    n = draw(st.integers(1, 3))
    sides = [draw(_sides()) for _ in range(n)]
    if draw(st.booleans()):
        sides = _corner_on_a_plane(draw, sides, 2)
    return Box(tuple(sides))


@settings(deadline=None, derandomize=True, max_examples=150)
@given(_boxes(), st.integers(1, 2))
def test_form_ranges_are_exact_on_big_denominators(box, height):
    # oracles: form_at at the 2**n corners, and the whole enumeration
    # filtered by the range that contains 0
    n = box.dim
    height = min(height, 4 - n)  # n = 3 at height 2 is 62 directions
    big = max(max(abs(s.lo), abs(s.hi)) for s in box.sides)
    reach = height * n * math.ceil(big)
    corners = list(itertools.product(*((s.lo, s.hi) for s in box.sides)))
    want = []
    for p in enumerate_hyperplanes(n, height, reach + 1):
        iv = form_interval(p, box)
        values = [p.form_at(c) for c in corners]
        assert (iv.lo, iv.hi) == (min(values), max(values))
        if iv.contains(F(0)):
            want.append(p)
    assert list(hyperplanes_meeting(n, height, box)) == want


# -- the charge of the plane walk --------------------------------------------


def _walk_charge(n, height, box):
    """The walk's charge, written out: ((2H+1)**n - 1)/2 directions, each
    with floor(H * sum of the side widths) + 1 constant terms."""
    widths = sum(side.width for side in box.sides)
    return ((2 * height + 1) ** n - 1) // 2 * (math.floor(height * widths) + 1)


@settings(deadline=None, derandomize=True, max_examples=150)
@given(_boxes(), st.integers(1, 3))
def test_plane_walk_stays_within_its_charge(box, height):
    n = box.dim
    charge = _walk_charge(n, height, box)
    calls = []

    def counted(q, pairs):
        calls.append(q)
        return _dot_range(q, pairs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hyperplanes, "_dot_range", counted)
        planes = list(hyperplanes_meeting(n, height, box))
    assert len(planes) <= charge
    assert len(calls) <= charge


@settings(deadline=None, derandomize=True, max_examples=150)
@given(_boxes(), st.integers(1, 3))
def test_plane_walk_over_its_charge_yields_nothing(box, height):
    n = box.dim
    charge = _walk_charge(n, height, box)
    yielded = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "MAX_SCAN_WORK", charge - 1)
        with pytest.raises(UsageError, match="plane walk at height .* is over budget"):
            for plane in hyperplanes_meeting(n, height, box):
                yielded.append(plane)
        assert not yielded
        mp.setattr(engine, "MAX_SCAN_WORK", charge)
        assert list(hyperplanes_meeting(n, height, box)) == list(
            _direction_walk(n, height, box)
        )


# -- the sorted plane walk against the walk over every direction ----------


def _direction_walk(n, height, box):
    """The planes meeting box through every direction of signed_box: the
    oracle for hyperplanes_meeting, plane for plane and in order."""
    den, pairs = box.scaled
    for mvec in signed_box((height,) * n):
        lo, hi = _dot_range(mvec, pairs)
        for m0 in range(-(-lo // den), hi // den + 1):
            if math.gcd(m0, *mvec) == 1:
                yield Hyperplane(m0, mvec)


# the largest height drawn per dimension, so each case walks at most
# a few hundred directions
_WALK_HEIGHTS = {1: 8, 2: 5, 3: 3, 4: 2}


@st.composite
def _walk_sides(draw):
    """A side of _sides, a point (zero width, maybe a big denominator),
    or a side as wide as the middle-thirds hull [0, 1], shifted."""
    kind = draw(st.sampled_from(["drawn", "point", "hull"]))
    if kind == "drawn":
        return draw(_sides())
    shift = F(draw(st.integers(-2, 1)))
    if kind == "hull":
        return RatInterval(shift, shift + 1)
    den = draw(st.sampled_from([1, 3**40, 2**80]))
    x = shift + F(draw(st.integers(0, den)), den)
    return RatInterval(x, x)


@st.composite
def _walk_cases(draw):
    n = draw(st.integers(1, 4))
    height = draw(st.integers(1, _WALK_HEIGHTS[n]))
    sides = [draw(_walk_sides()) for _ in range(n)]
    if draw(st.booleans()):
        sides = _corner_on_a_plane(draw, sides, height)
    return n, height, Box(tuple(sides))


@settings(deadline=None, derandomize=True, max_examples=300)
@given(_walk_cases())
def test_sorted_plane_walk_matches_the_walk_over_every_direction(case):
    n, height, box = case
    want = list(_direction_walk(n, height, box))
    assert list(hyperplanes_meeting(n, height, box)) == want


def test_plane_walk_ranges_few_directions_on_construction_boxes(monkeypatch):
    # the fourfold middle-thirds certificate at 8 steps: from step 2 on,
    # its boxes are narrow enough that almost no direction's form
    # reaches an integer, so almost none is ranged
    cert = construct(
        ConstructionSpec(
            product=ProductSet((DigitSystem(3, (0, 2)),) * 4),
            norm=SUP_NORM,
            phi=PhiSpec("pow", exponent=F(3)),
            steps=8,
        )
    )
    calls = []

    def counted(q, pairs):
        calls.append(q)
        return _dot_range(q, pairs)

    monkeypatch.setattr(hyperplanes, "_dot_range", counted)
    for step, height in list(zip(cert.steps, cert.spec.avoidance_heights))[1:]:
        calls.clear()
        planes = list(hyperplanes_meeting(4, height, step.box))
        directions = ((2 * height + 1) ** 4 - 1) // 2
        assert len(calls) < directions / 100, (step.nu, len(calls))
        assert planes == list(_direction_walk(4, height, step.box))
