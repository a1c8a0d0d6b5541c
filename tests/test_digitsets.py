"""Digit systems and their cylinder tree: hulls, anchors, descent,
rational enumeration."""
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from singvec import (
    Box,
    Cylinder,
    DigitSystem,
    ProductSet,
    RatInterval,
    UsageError,
    rationals_in,
)
from singvec import digitsets, hyperplanes
from singvec.digitsets import cylinder_box, nests_strictly
from singvec.exact import _LEAF_DIGITS, known_gcd, rat_str
from singvec.hyperplanes import hyperplanes_meeting, make_primitive, meets

from helpers import contains_interior, contains_interval, form_interval

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
        assert contains_interval(hull, kid.hull())


def test_descend_min_keeps_anchor():
    cyl = Cylinder.root(THIRDS).extend((2, 0))
    deep = cyl.descend_min(40)
    assert deep.depth == 42
    assert deep.anchor() == cyl.anchor()
    assert contains_interval(cyl.hull(), deep.hull())
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
    the leaf int() reads, or several splits past it."""
    system = draw(st.sampled_from((THIRDS, HEX)))
    size = draw(
        st.sampled_from((_LEAF_DIGITS, _LEAF_DIGITS + 1, 2 * _LEAF_DIGITS + 1))
        | st.integers(0, 5 * _LEAF_DIGITS)
    )
    digits = st.sampled_from(system.digits)
    return system, tuple(draw(st.lists(digits, min_size=size, max_size=size)))


@settings(deadline=None)
@given(system_prefix())
@example((THIRDS, ()))
@example((HEX, (15,) * (4 * _LEAF_DIGITS + 3)))
def test_horner_value_matches_incremental(case):
    system, prefix = case
    direct = Cylinder(system, prefix)
    walked = Cylinder.root(system).extend(prefix)
    assert direct.value == walked.value
    b = system.base
    spelled = sum(d * b ** i for i, d in enumerate(reversed(prefix)))
    assert direct.value == spelled
    # the anchor is the prefix followed by an all-minimum-digit tail; the
    # prefix's digit sum sum(d_i / b**i) is spelled / b**len(prefix)
    assert direct.anchor() == walked.anchor() == system.offset + system.scale * (
        F(spelled, b ** len(prefix)) + F(system.dmin, (b - 1) * b ** len(prefix))
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
    assert contains_interval(cyl.hull(), kid.hull())
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
    assert contains_interval(system.hull(), direct.hull())


@st.composite
def growth_chain(draw):
    """A system of base 2-12, 40 or 300 with an offset and a scale, and a
    chain of growth steps below its root."""
    base = draw(st.sampled_from((*range(2, 13), 40, 300)))
    digits = draw(st.sets(st.integers(0, base - 1), min_size=2, max_size=5))
    offset = F(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    scale = F(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    system = DigitSystem(base, tuple(digits), offset, scale)
    tail = st.lists(st.sampled_from(system.digits), max_size=8).map(tuple)
    step = st.one_of(
        st.tuples(st.just("child"), st.sampled_from(system.digits)),
        st.tuples(st.just("extend"), tail),
        st.tuples(st.just("descend_min"), st.integers(-1, 12)),
        st.tuples(st.just("grow"), tail),
    )
    return system, draw(st.lists(step, max_size=8))


@settings(deadline=None)
@given(growth_chain())
@example((THIRDS, [("grow", ()), ("descend_min", 0), ("child", 2)]))
@example((DigitSystem(300, (0, 7, 299)), [("grow", (299, 7)), ("descend_min", 3)]))
def test_growth_chains_equal_the_whole_word(case):
    # every way down the tree is the one growth rule: a chain of child,
    # extend, descend_min and _grow steps is the cylinder of its word
    system, chain = case
    cyl, digits = Cylinder.root(system), ()
    for op, arg in chain:
        if op == "child":
            cyl, digits = cyl.child(arg), digits + (arg,)
        elif op == "extend":
            cyl, digits = cyl.extend(arg), digits + arg
        elif op == "descend_min":
            cyl, digits = cyl.descend_min(arg), digits + (system.dmin,) * max(arg, 0)
        else:
            tail = Cylinder(system, arg)
            cyl, digits = cyl._grow(tail.word, tail.value, tail.power), digits + arg
        whole = Cylinder(system, digits)
        assert cyl.word == whole.word
        assert (cyl.value, cyl.power) == (whole.value, whole.power)
        assert cyl.hull_ends() == whole.hull_ends()
        assert cyl.anchor() == whole.anchor() and cyl.midpoint() == whole.midpoint()


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


# -- the prefix codec ---------------------------------------------------


@given(
    st.integers(2, 16).flatmap(
        lambda b: st.tuples(st.just(b), st.lists(st.integers(0, b - 1), max_size=40))
    )
)
@example((10, [9, 0, 3]))
@example((16, [15]))
def test_prefix_text_round_trips(case):
    base, digits = case
    digits = tuple(digits)
    text = DigitSystem.digits_str(base, digits)
    assert ("," in text) == (base > 10 and len(digits) > 1)
    if base <= 10:
        assert text == "".join(map(str, digits))
    assert DigitSystem.parse_digits(base, text) == digits


def test_prefix_text_round_trips_past_base_36():
    digits = (39, 0, 17, 38)
    text = DigitSystem.digits_str(40, digits)
    assert text == "39,0,17,38"
    assert DigitSystem.parse_digits(40, text) == digits


@pytest.mark.parametrize(
    "base, text",
    [
        (3, "0x"), (3, "0 2"), (3, " 0 2"), (3, "0\t2"), (3, "0.2"), (3, "0-2"),
        (3, "+"), (3, "-1"), (3, "²"), (3, "0,x"), (3, "0,,2"), (16, "a"),
        (16, "1e2"), (10, "0 9"),
    ],
)
def test_non_digit_prefix_text_is_refused(base, text):
    with pytest.raises(UsageError, match="bad digit string"):
        DigitSystem.parse_digits(base, text)


# outcomes of parse_digits before its ASCII path, which Unicode text
# still takes: int() reads any Unicode decimal digit
UNICODE_PREFIXES = [
    (3, "٠٢", (0, 2)),  # Arabic-Indic
    (3, "٠2", (0, 2)),
    (3, "０２", (0, 2)),  # fullwidth
    (3, "𝟐0", (2, 0)),  # mathematical bold
    (3, "²", None),  # a superscript is no decimal digit
    (3, "\xa002", (0, 2)),  # no-break space, stripped
    (3, "0\xa0", (0,)),
    (16, "١٠,١٥", (10, 15)),
    (3, " 0, 2 ", (0, 2)),
    (3, "+0,2", (0, 2)),
    (16, "1_0", (10,)),
    (16, "10,+15", (10, 15)),
]


@pytest.mark.parametrize("base, text, digits", UNICODE_PREFIXES)
def test_prefix_text_outside_ascii_reads_as_before(base, text, digits):
    if digits is None:
        with pytest.raises(UsageError, match="bad digit string"):
            DigitSystem.parse_digits(base, text)
    else:
        assert DigitSystem.parse_digits(base, text) == digits


def test_long_prefix_value_matches_horner():
    rng = random.Random(5)
    prefix = tuple(rng.choice(THIRDS.digits) for _ in range(10**5))
    acc = 0
    for d in prefix:
        acc = acc * 3 + d
    assert Cylinder(THIRDS, prefix).value == acc


def test_prefix_value_past_base_36_matches_horner():
    system = DigitSystem(40, (0, 13, 39))
    rng = random.Random(7)
    prefix = tuple(rng.choice(system.digits) for _ in range(3 * _LEAF_DIGITS + 5))
    acc = 0
    for d in prefix:
        acc = acc * 40 + d
    assert Cylinder(system, prefix).value == acc
    assert Cylinder.root(system).extend(prefix).value == acc


def test_disallowed_digits_are_named_in_order():
    with pytest.raises(UsageError, match=r"digits \[1, 1\] are not allowed"):
        Cylinder(THIRDS, (0, 1, 2, 1))


# -- boxes of cylinders on integers -------------------------------------


def horner_hull(cyl: Cylinder) -> RatInterval:
    """The hull from the digit sum, by a Horner loop and Fractions."""
    system, b = cyl.system, cyl.system.base
    value = 0
    for d in cyl.prefix:
        value = value * b + d
    head = F(value, b**cyl.depth)
    tail = F(1, (b - 1) * b**cyl.depth)
    return RatInterval(
        system.offset + system.scale * (head + system.dmin * tail),
        system.offset + system.scale * (head + system.dmax * tail),
    )


@st.composite
def cylinder_lists(draw):
    """One to three cylinders of one base or of mixed bases 2..12, with
    random offsets and scales and prefixes of 0..300 digits, a second
    cylinder of each system whose prefix extends the first, is cut from
    it or parts from it, and a plane-walk height."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        bases = [draw(st.integers(2, 12))] * n
    else:
        bases = [draw(st.integers(2, 12)) for _ in range(n)]
    cyls, deeper = [], []
    for b in bases:
        digits = tuple(draw(st.sets(st.integers(0, b - 1), min_size=2)))
        offset = draw(st.fractions(-5, 5, max_denominator=60))
        scale = draw(st.fractions(F(1, 50), 5, max_denominator=60))
        system = DigitSystem(b, digits, offset, scale)
        depth = draw(st.sampled_from((0, 1, 300)) | st.integers(0, 300))
        prefix = draw(st.lists(st.sampled_from(system.digits), min_size=depth, max_size=depth))
        more = draw(st.lists(st.sampled_from(system.digits), max_size=4))
        cut = draw(st.sampled_from((depth, depth, draw(st.integers(0, depth)))))
        cyls.append(Cylinder(system, prefix))
        deeper.append(Cylinder(system, prefix[:cut] + more))
    height = draw(st.integers(1, {1: 6, 2: 4, 3: 2}[n]))
    return cyls, deeper, height


def plane_walk_charge(n, height, box):
    """The work _check_walk charges for a walk over box."""
    charged = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hyperplanes, "_charge", lambda work, *_: charged.append(work))
        hyperplanes._check_walk(n, height, box)
    return charged


@settings(deadline=None, derandomize=True, max_examples=150)
@given(cylinder_lists())
@example((
    [Cylinder(THIRDS, (0, 2)), Cylinder(HEX, (7,))],
    [Cylinder(THIRDS, (0, 2, 2, 0)), Cylinder(HEX, (7, 7))],
    2,
))
@example((
    [Cylinder(SHIFTED, (4,) * 300), Cylinder(SHIFTED, ())],
    [Cylinder(SHIFTED, (4,) * 300 + (2,)), Cylinder(SHIFTED, (2,))],
    4,
))
def test_cylinder_box_matches_the_lcm_box_of_its_hulls(case):
    cyls, deeper, height = case
    n = len(cyls)
    box = cylinder_box(cyls)
    oracle = Box(tuple(horner_hull(c) for c in cyls))
    inner_oracle = Box(tuple(horner_hull(c) for c in deeper))
    # the same reduced sides, over a denominator that need not be the lcm
    assert box.sides == oracle.sides and box == oracle
    assert tuple(c.hull() for c in cyls) == oracle.sides
    assert tuple(c.midpoint() for c in cyls) == tuple(s.mid for s in oracle.sides)
    den, pairs = box.scaled
    assert den % oracle.scaled[0] == 0
    # every reader of the scaled form gives the same answer on both
    planes = list(hyperplanes_meeting(n, height, box))
    assert planes == list(hyperplanes_meeting(n, height, oracle))
    assert plane_walk_charge(n, height, box) == plane_walk_charge(n, height, oracle)
    probes = planes + [make_primitive(m0, m) for m0 in (-1, 0, 2) for m in
                       itertools.product((-2, 0, 1), repeat=n) if any(m)]
    for plane in probes:
        form = form_interval(plane, box)
        assert form == form_interval(plane, oracle)
        assert meets(plane, box) == meets(plane, oracle) == form.contains(0)
    # nesting by digits and on integers, both ways, against the Fraction sides
    for outer, inner, outer_box, inner_box in (
        (cyls, deeper, oracle, inner_oracle), (deeper, cyls, inner_oracle, oracle)
    ):
        want = contains_interior(outer_box, inner_box)
        assert nests_strictly(outer, inner) == nests_on_integers(outer, inner) == want
    assert nests_strictly(cyls, cyls) is False
    assert nests_strictly(cyls[:-1], deeper) is False


# -- nesting by digits ----------------------------------------------------


def nests_on_integers(outer, inner) -> bool:
    """The oracle of nests_strictly: each axis compares its two hulls
    over their shared power of b, cylinder_box of the pair, as integers."""
    if len(outer) != len(inner):
        return False
    for pair in zip(outer, inner):
        _, ((lo, hi), (inner_lo, inner_hi)) = cylinder_box(pair).scaled
        if not lo < inner_lo or not inner_hi < hi:
            return False
    return True


@st.composite
def nesting_pair(draw):
    """Two cylinders of one system of base 2..12 or 40, its digit set
    with or without 0 and b - 1, its offset and scale random: the second
    prefix extends the first by any digits, by dmin alone or by dmax
    alone, equals it, is cut from it, or parts from it.  Either may be
    the root."""
    b = draw(st.integers(2, 12) | st.just(40))
    digits = draw(st.sets(st.integers(0, b - 1)))
    for edge in (0, b - 1):
        digits = digits | {edge} if draw(st.booleans()) else digits - {edge}
    assume(len(digits) >= 2)
    offset = draw(st.just(F(0)) | st.fractions(-5, 5, max_denominator=60))
    scale = draw(st.just(F(1)) | st.fractions(F(1, 50), 5, max_denominator=60))
    system = DigitSystem(b, tuple(digits), offset, scale)
    some = st.sampled_from(system.digits)
    depth = draw(st.just(0) | st.integers(0, 40))
    prefix = draw(st.lists(some, min_size=depth, max_size=depth))
    tail = draw(
        st.lists(some, max_size=6)
        | st.lists(st.just(system.dmin), min_size=1, max_size=6)
        | st.lists(st.just(system.dmax), min_size=1, max_size=6)
    )
    cut = draw(st.sampled_from((depth, draw(st.integers(0, depth)))))
    return Cylinder(system, prefix), Cylinder(system, prefix[:cut] + tail)


@settings(deadline=None, derandomize=True, max_examples=500)
@given(st.lists(nesting_pair(), min_size=1, max_size=3))
@example([(Cylinder(THIRDS, ()), Cylinder(THIRDS, (0, 2)))])
@example([(Cylinder(THIRDS, ()), Cylinder(THIRDS, (0, 0)))])
@example([(Cylinder(THIRDS, (2,)), Cylinder(THIRDS, (2,)))])
@example([(Cylinder(SHIFTED, (2, 4)), Cylinder(SHIFTED, (2, 1, 4)))])
def test_nests_strictly_matches_the_pair_box_test(pairs):
    outer, inner = zip(*pairs)
    want = nests_on_integers(outer, inner), nests_on_integers(inner, outer)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(digitsets, "cylinder_box", None)  # the digits alone decide
        assert (nests_strictly(outer, inner), nests_strictly(inner, outer)) == want


# -- hull ends on the wire --------------------------------------------------


@st.composite
def wire_cylinders(draw):
    """A cylinder of base 2..12 or 40, its offset zero, negative or
    positive, a random scale, and a prefix of 0..300 digits whose tail
    may be a long run of dmin or of dmax: a large valuation in b."""
    b = draw(st.integers(2, 12) | st.just(40))
    digits = tuple(draw(st.sets(st.integers(0, b - 1), min_size=2)))
    offset = draw(st.just(F(0)) | st.fractions(-5, 5, max_denominator=60))
    scale = draw(st.just(F(1)) | st.fractions(F(1, 50), 5, max_denominator=60))
    system = DigitSystem(b, digits, offset, scale)
    depth = draw(st.sampled_from((0, 1, 300)) | st.integers(0, 300))
    head = draw(st.lists(st.sampled_from(system.digits), max_size=depth))
    run = draw(st.sampled_from((system.dmin, system.dmax)))
    return Cylinder(system, head + [run] * (depth - len(head)))


@settings(deadline=None, derandomize=True, max_examples=200)
@given(wire_cylinders())
@example(Cylinder(THIRDS, (0,) * 300))  # lo = 0
@example(Cylinder(DigitSystem(3, (0, 2), offset=F(-1)), (2,) * 40))  # hi = 0
@example(Cylinder(THIRDS, (2, 0) * 700 + (0,) * 1600))  # 3**1600 | lo, 4755 bits
@example(Cylinder(DigitSystem(10, (0, 5, 9), F(-7, 12), F(5, 8)), (5,) + (0,) * 299))
def test_hull_text_is_rat_str_of_the_hull(cyl):
    lo, hi, den = cyl.hull_ends()
    text = (rat_str(F(lo, den)), rat_str(F(hi, den)))
    assert cyl.hull_text() == text
    # the loader's match, from the lower numerator alone, takes this
    # text and no other spelling of it
    assert cyl.spells(list(text))
    assert not cyl.spells(["0" + text[0], text[1]])
    assert not cyl.spells(text)  # a tuple is not what json.loads gives
    assert cyl.midpoint() == cyl.hull().mid
    factors = cyl.den_factors()
    assert math.prod(p**e for p, e in factors) == den
    for x in (lo, hi, 0):
        g = known_gcd(x, factors)
        assert math.prod(p**m for p, m in g) == math.gcd(x, den)
        assert all(m > 0 for _, m in g)


def test_hull_text_over_a_large_prime_takes_rat_str():
    # 2**61 - 1 is prime and out of small_factors' reach
    system = DigitSystem(3, (0, 2), offset=F(1, 2**61 - 1))
    cyl = Cylinder(system, (2, 0, 2))
    assert cyl.den_factors() is None
    lo, hi, den = cyl.hull_ends()
    assert cyl.hull_text() == (rat_str(F(lo, den)), rat_str(F(hi, den)))
    assert cyl.spells(list(cyl.hull_text()))


# -- digit words against a tuple model -------------------------------------


def tuple_value(digits, b) -> int:
    acc = 0
    for d in digits:
        acc = acc * b + d
    return acc


def tuple_nests(outer, inner, system) -> bool:
    """Strict nesting on one axis, read from digit tuples: the inner
    prefix extends the outer one by digits not all dmin, not all dmax."""
    tail = inner[len(outer):]
    return (inner[:len(outer)] == outer and bool(tail)
            and max(tail) != system.dmin and min(tail) != system.dmax)


@st.composite
def word_cases(draw):
    """A system of base 2..12, 40 or 300 (whose word characters pass
    Latin-1), its digit set with or without 0 and b - 1, a prefix of up
    to 10**4 digits, digits to append (any, all dmin or all dmax), a
    number of dmin levels and a cut of the prefix."""
    b = draw(st.integers(2, 12) | st.sampled_from((40, 300)))
    digits = draw(st.sets(st.integers(0, b - 1), max_size=6))
    for edge in (0, b - 1):
        digits = digits | {edge} if draw(st.booleans()) else digits - {edge}
    assume(len(digits) >= 2)
    system = DigitSystem(b, tuple(digits))
    rng = random.Random(draw(st.integers(0, 2**32)))
    depth = draw(st.integers(0, 40) | st.sampled_from((_LEAF_DIGITS + 1, 10**4)))
    prefix = tuple(rng.choice(system.digits) for _ in range(depth))
    some = st.sampled_from(system.digits)
    more = tuple(draw(
        st.lists(some, max_size=6)
        | st.lists(st.just(system.dmin), min_size=1, max_size=6)
        | st.lists(st.just(system.dmax), min_size=1, max_size=6)
    ))
    levels = draw(st.integers(0, 30))
    cut = draw(st.sampled_from((depth, draw(st.integers(0, depth)))))
    return system, prefix, more, levels, cut


@settings(deadline=None, derandomize=True, max_examples=150)
@given(word_cases())
@example((DigitSystem(300, (0, 7, 299)), (299, 0, 7) * 50, (299,), 3, 150))
@example((DigitSystem(300, (0, 7, 299)), (7,) * 10**4, (0, 0), 0, 10**4))
@example((DigitSystem(10, (0, 9)), (9, 0), (0,), 2, 1))
def test_digit_words_match_the_tuple_model(case):
    system, prefix, more, levels, cut = case
    b = system.base
    cyl = Cylinder(system, prefix)
    assert type(cyl.word) is str and len(cyl.word) == cyl.depth == len(prefix)
    assert cyl.prefix == prefix == tuple(map(ord, cyl.word))
    assert cyl.value == tuple_value(prefix, b) and cyl.power == b ** len(prefix)
    text = cyl.prefix_str()
    assert text == ("" if b <= 10 else ",").join(map(str, prefix))
    assert DigitSystem.parse_digits(b, text) == prefix
    assert Cylinder(system, DigitSystem.parse_word(b, text)).word == cyl.word
    # descents: each appends characters and keeps the value incremental
    digit = (more + (system.dmax,))[0]
    for got, want in (
        (cyl.extend(more), prefix + more),
        (cyl.child(digit), prefix + (digit,)),
        (cyl.descend_min(levels), prefix + (system.dmin,) * levels),
    ):
        assert got.prefix == want and got.word == Cylinder(system, want).word
        assert got.value == tuple_value(want, b) and got.power == b ** len(want)
    # nesting of the cut prefix grown by more, both ways, against the
    # tuple model and the pair-box test on integers
    outer, inner = cyl, Cylinder(system, prefix[:cut] + more)
    for a, c in ((outer, inner), (inner, outer)):
        want = tuple_nests(a.prefix, c.prefix, system)
        assert nests_strictly((a,), (c,)) == nests_on_integers((a,), (c,)) == want


@pytest.mark.parametrize(
    "text, digits",
    [
        ("\x00\x02", None),  # control characters that look like word characters
        ("\x1c02", (0, 2)),  # a separator str.strip removes, as before
        ("٣", (3,)),  # a Unicode digit, read by int()
        ("", ()),
        ("0,2", (0, 2)),
        ("0,-1", None),  # no character holds -1
        ("0,1114112", None),  # nor 0x110000
    ],
)
def test_hostile_prefix_text(text, digits):
    if digits is None:
        with pytest.raises(UsageError, match="bad digit string"):
            DigitSystem.parse_word(10, text)
    else:
        assert DigitSystem.parse_word(10, text) == "".join(map(chr, digits))


def test_a_digit_no_character_holds_is_refused():
    # a word holds digits below 0x110000 = 1114112, chr's range
    DigitSystem(2 * 10**6, (0, 1114111))
    for digits in ((0, 1114112), (0, 10**30)):
        with pytest.raises(UsageError, match="below 1114112"):
            DigitSystem(10**31, digits)
