"""Digit systems and their cylinder tree: hulls, anchors, descent,
rational enumeration."""
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singvec import (
    Cylinder,
    DigitSystem,
    ProductSet,
    RatInterval,
    UsageError,
    rationals_in,
)
from singvec.digitsets import _HORNER_LEAF

F = Fraction
THIRDS = DigitSystem(3, (0, 2))
HEX = DigitSystem(16, (0, 7, 15), offset=F(-1, 5), scale=F(3, 2))
SHIFTED = DigitSystem(5, (1, 2, 4), offset=F(-1, 3), scale=F(7, 2))


def test_system_validation():
    with pytest.raises(UsageError):
        DigitSystem(1, (0,))
    with pytest.raises(UsageError):
        DigitSystem(3, (1,))  # fewer than 2 digits
    with pytest.raises(UsageError):
        DigitSystem(3, (0, 3))  # digit out of range
    with pytest.raises(UsageError):
        DigitSystem(3, (0, 2), scale=0)
    # duplicates collapse, order normalizes
    assert DigitSystem(3, (2, 0, 2)).digits == (0, 2)


def test_hulls_frozen():
    assert THIRDS.hull() == RatInterval(F(0), F(1))
    root = Cylinder.root(THIRDS)
    assert root.hull() == RatInterval(F(0), F(1))
    assert root.child(0).hull() == RatInterval(F(0), F(1, 3))
    assert root.extend((0, 2)).hull() == RatInterval(F(2, 9), F(1, 3))
    shifted = DigitSystem(3, (0, 2), offset=F(1), scale=F(1, 2))
    assert shifted.hull() == RatInterval(F(1), F(3, 2))
    # -1/3 + 7/2 * [1/4, 4/4]
    assert SHIFTED.hull() == RatInterval(F(13, 24), F(19, 6))


def test_anchors_frozen():
    root = Cylinder.root(THIRDS)
    assert root.extend((0, 2)).anchor() == F(2, 9)
    assert root.child(2).anchor() == F(2, 3)
    base4 = DigitSystem(4, (1, 3))
    assert Cylinder.root(base4).child(1).anchor() == F(1, 3)


def test_depth2_anchor_set_frozen():
    anchors = sorted(
        c.anchor() for c in
        (Cylinder.root(THIRDS).extend(t) for t in itertools.product((0, 2), repeat=2))
    )
    assert anchors == [F(0), F(2, 9), F(2, 3), F(8, 9)]


def test_children_partition_hull_endpoints():
    root = Cylinder.root(THIRDS)
    kids = root.children()
    assert [k.prefix for k in kids] == [(0,), (2,)]
    hull = root.hull()
    assert kids[0].hull().lo == hull.lo
    assert kids[-1].hull().hi == hull.hi
    for kid in kids:
        assert hull.contains_interval(kid.hull())


def test_descend_min_keeps_anchor():
    cyl = Cylinder.root(THIRDS).extend((2, 0))
    deep = cyl.descend_min(40)
    assert deep.depth == 42
    assert deep.anchor() == cyl.anchor()
    assert cyl.hull().contains_interval(deep.hull())
    assert cyl.descend_min(0) is cyl


def test_descend_min_matches_extend():
    cyl = Cylinder.root(THIRDS).child(2)
    a = cyl.descend_min(7)
    b = cyl.extend((0,) * 7)
    assert a.prefix == b.prefix
    assert a.value == b.value == 2 * 3**7
    assert a.hull() == b.hull() == RatInterval(F(2, 3), F(2, 3) + F(1, 3**8))


def test_rejected_digits():
    with pytest.raises(UsageError):
        Cylinder(THIRDS, (0, 1))
    with pytest.raises(UsageError):
        Cylinder.root(THIRDS).child(1)


digit_strat = st.lists(st.sampled_from((0, 2)), max_size=12)


@st.composite
def system_prefix(draw):
    """A digit system and a prefix whose length lies on either side of
    the Horner leaf, or several splits past it."""
    system = draw(st.sampled_from((THIRDS, HEX)))
    size = draw(
        st.sampled_from((_HORNER_LEAF, _HORNER_LEAF + 1, 2 * _HORNER_LEAF + 1))
        | st.integers(0, 5 * _HORNER_LEAF)
    )
    digits = st.sampled_from(system.digits)
    return system, tuple(draw(st.lists(digits, min_size=size, max_size=size)))


@settings(deadline=None)
@given(system_prefix())
@example((THIRDS, ()))
@example((HEX, (15,) * (4 * _HORNER_LEAF + 3)))
def test_horner_value_matches_incremental(case):
    system, prefix = case
    direct = Cylinder(system, prefix)
    walked = Cylinder.root(system).extend(prefix)
    assert direct.value == walked.value
    b = system.base
    assert direct.value == sum(d * b ** i for i, d in enumerate(reversed(prefix)))
    # the anchor is the prefix followed by an all-minimum-digit tail
    assert direct.anchor() == walked.anchor() == system.offset + system.scale * (
        sum(F(d, b ** (i + 1)) for i, d in enumerate(prefix))
        + F(system.dmin, (b - 1) * b ** len(prefix))
    )


def test_deep_prefix_value_closed_form():
    # 300k digits stay cheap only while the prefix value is subquadratic
    deep = Cylinder(THIRDS, (2,) * 300_000)
    assert deep.value == 3**300_000 - 1
    assert deep.hull() == RatInterval(1 - F(1, 3**300_000), F(1))


@given(digit_strat, st.sampled_from((0, 2)))
def test_child_hull_nests(prefix, digit):
    cyl = Cylinder(THIRDS, tuple(prefix))
    kid = cyl.child(digit)
    assert cyl.hull().contains_interval(kid.hull())
    assert kid.value == 3 * cyl.value + digit
    assert kid.hull().width == cyl.hull().width / 3


@st.composite
def shifted_path(draw):
    """A system with an offset and a non-unit scale, a prefix, and a
    number of smallest-digit levels below it."""
    system = draw(st.sampled_from((SHIFTED, HEX, THIRDS)))
    prefix = tuple(draw(st.lists(st.sampled_from(system.digits), max_size=40)))
    return system, prefix, draw(st.integers(0, 30))


@settings(deadline=None)
@given(shifted_path())
@example((SHIFTED, (), 0))
@example((SHIFTED, (4, 1, 2), 5))
def test_cylinder_paths_agree_with_digit_sum(case):
    system, prefix, levels = case
    direct = Cylinder(system, prefix + (system.dmin,) * levels)
    walked = Cylinder.root(system).extend(prefix).descend_min(levels)
    assert direct.prefix == walked.prefix
    assert direct.value == walked.value
    # the hull, digit by digit: the prefix, then a constant tail
    b, depth = system.base, direct.depth
    head = sum(F(d, b ** (i + 1)) for i, d in enumerate(direct.prefix))
    tail = F(1, (b - 1) * b**depth)
    lo = system.offset + system.scale * (head + system.dmin * tail)
    hi = system.offset + system.scale * (head + system.dmax * tail)
    assert direct.hull() == walked.hull() == RatInterval(lo, hi)
    assert direct.anchor() == lo
    assert system.hull().contains_interval(direct.hull())


def test_rationals_in_first_items():
    root = Cylinder.root(THIRDS)
    gen = rationals_in(root, 1)
    first = [next(gen) for _ in range(6)]
    values = [v for v, _ in first]
    # depth 1 both anchors, then deeper levels skip min-digit tails
    assert values == [F(0), F(2, 3), F(2, 9), F(8, 9), F(2, 27), F(8, 27)]
    assert len(set(values)) == 6
    seen_cyls = [c.prefix for _, c in first]
    assert seen_cyls == [(0,), (2,), (0, 2), (2, 2), (0, 0, 2), (0, 2, 2)]


def test_rationals_in_respects_prefix():
    cyl = Cylinder.root(THIRDS).extend((0, 2))
    hull = cyl.hull()
    for value, sub in itertools.islice(rationals_in(cyl, 3), 12):
        assert hull.contains(value)
        assert sub.prefix[:2] == (0, 2)
    with pytest.raises(UsageError):
        next(rationals_in(cyl, 1))


def test_parse_digits():
    assert DigitSystem.parse_digits(3, "02") == (0, 2)
    assert DigitSystem.parse_digits(3, "0,2") == (0, 2)
    assert DigitSystem.parse_digits(16, "10,15") == (10, 15)
    assert DigitSystem.parse_digits(3, "") == ()
    for base, text in ((3, "0x"), (3, "0,x"), (16, "a")):
        with pytest.raises(UsageError):
            DigitSystem.parse_digits(base, text)
    assert DigitSystem.digits_str(3, (0, 2)) == "02"
    assert DigitSystem.digits_str(16, (10, 15)) == "10,15"
    assert DigitSystem.digits_str(10, (9, 0, 3)) == "903"
    assert DigitSystem.digits_str(11, (10, 0)) == "10,0"
    assert DigitSystem.digits_str(3, ()) == ""
    for base, digits in ((3, (2, 0, 0, 2)), (16, (0, 15, 7)), (16, (11,))):
        text = DigitSystem.digits_str(base, digits)
        assert DigitSystem.parse_digits(base, text) == digits


def test_system_json_round_trip():
    shifted = DigitSystem(5, (1, 2, 4), offset=F(-1, 3), scale=F(2, 7))
    assert DigitSystem.from_json(shifted.to_json()) == shifted


def test_product_set():
    prod = ProductSet((THIRDS, THIRDS))
    assert prod.dim == 2
    hull = prod.hull()
    assert hull.sides == (RatInterval(F(0), F(1)), RatInterval(F(0), F(1)))
    assert ProductSet.from_json(prod.to_json()) == prod
    with pytest.raises(UsageError):
        ProductSet((THIRDS,))
