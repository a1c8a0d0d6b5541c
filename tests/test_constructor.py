"""The nested-box construction: step invariants, determinism, schedule
extension."""
import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singvec import (
    ConstructionSpec,
    Cylinder,
    DepthExhausted,
    DigitSystem,
    NormSpec,
    PhiSpec,
    PowerValue,
    ProductSet,
    UsageError,
    certificate_loads,
    construct,
    extend_spec,
    refine_point,
    verify_certificate,
)
from singvec import constructor

from helpers import contains_interior, contains_interval

F = Fraction
THIRDS = DigitSystem(3, (0, 2))
PRODUCT = ProductSet((THIRDS, THIRDS))


def spec_for(steps, **kw):
    return ConstructionSpec(
        product=PRODUCT,
        norm=NormSpec("sup"),
        phi=PhiSpec("pow", exponent=F(5)),
        steps=steps,
        **kw,
    )


@pytest.fixture(scope="module")
def cert3():
    return construct(spec_for(3))


def test_steps_shape(cert3):
    assert [s.nu for s in cert3.steps] == [1, 2, 3]
    # pins alternate coordinates
    assert [s.k for s in cert3.steps] == [1, 2, 1]
    assert cert3.final_box == cert3.steps[-1].box


def test_boxes_strictly_nest(cert3):
    hull = cert3.spec.product.hull()
    boxes = [s.box for s in cert3.steps]
    assert contains_interior(hull, boxes[0]) or all(
        contains_interval(h, b) for h, b in zip(hull.sides, boxes[0].sides)
    )
    for outer, inner in zip(boxes, boxes[1:]):
        assert contains_interior(outer, inner)


def test_heights_strictly_increase(cert3):
    phis = [s.phi_of_q for s in cert3.steps]
    for a, b in zip(phis, phis[1:]):
        assert a < b
    qs = [s.q for s in cert3.steps]
    assert qs == sorted(qs)
    assert qs[0] >= 1


def test_pin_whose_height_does_not_rise_is_skipped():
    # step 2's first nested anchor on the base-7 axis, 1053/2401, has
    # height 2401**(3/4) < 100**(3/2), the height of step 1's 9/100
    spec = ConstructionSpec(
        product=ProductSet((DigitSystem(10, (0, 9)), DigitSystem(7, (0, 3, 6)))),
        norm=NormSpec("weighted", (F(1, 3), F(2, 3))),
        phi=PhiSpec("pow", exponent=F(2)),
        steps=3,
    )
    cert = construct(spec)
    assert [(s.p, s.q) for s in cert.steps[:2]] == [(9, 100), (7353, 16807)]
    phis = [s.phi_of_q for s in cert.steps]
    assert all(a < b for a, b in zip(phis, phis[1:]))
    assert verify_certificate(certificate_loads(cert.dumps())).ok


def test_first_heights_frozen(cert3):
    # sup norm on the squared middle-thirds set: denominators are
    # powers of three (9, 3**7, 3**42), pinning 2/9 first
    assert (cert3.steps[0].p, cert3.steps[0].q) == (2, 9)
    assert cert3.steps[1].q == 2187 == 3**7
    assert cert3.steps[2].q == 3**42
    for step in cert3.steps:
        assert step.phi_of_q.as_fraction() == step.q


def test_pinned_anchor_inside_box(cert3):
    for step in cert3.steps:
        value = Fraction(step.p, step.q)
        assert step.cylinders[step.k - 1].anchor() == value
        side = step.box.sides[step.k - 1]
        assert side.contains(value)


def test_bound_chain(cert3):
    for cur, nxt in zip(cert3.steps, cert3.steps[1:]):
        expected = cert3.spec.phi.value_at(nxt.phi_of_q)
        assert cur.bound_used == expected
    assert cert3.steps[-1].bound_used is None


def test_avoided_planes_miss_their_boxes(cert3):
    boxes = {s.nu: s.box for s in cert3.steps}
    assert cert3.avoided
    for entry in cert3.avoided:
        corners = itertools.product(*((s.lo, s.hi) for s in boxes[entry.nu].sides))
        values = [entry.plane.form_at(c) for c in corners]
        assert min(values) > 0 or max(values) < 0
        assert entry.plane.height() <= cert3.spec.avoidance_heights[entry.nu - 1]


def test_construction_is_deterministic(cert3):
    again = construct(spec_for(3))
    assert again.dumps() == cert3.dumps()


def test_depth_exhausted():
    with pytest.raises(DepthExhausted) as err:
        construct(spec_for(2, max_depth=2))
    # the offending hyperplane is printed in the message
    assert "could not separate" in str(err.value)
    assert "(" in str(err.value) and ";" in str(err.value)


def test_extend_spec_default_schedule():
    spec = spec_for(2)
    ext = extend_spec(spec, 2)
    assert ext.steps == 4
    assert ext.avoidance_heights == (3, 4, 5, 6)
    with pytest.raises(UsageError):
        extend_spec(spec, 0)


def test_extend_spec_custom_schedule_pads():
    spec = spec_for(2, avoidance_heights=(5, 7))
    ext = extend_spec(spec, 3)
    assert ext.avoidance_heights == (5, 7, 7, 7, 7)


def test_refine_point_extends(cert3):
    longer = refine_point(cert3, 1)
    assert len(longer.steps) == 4
    for old, new in zip(cert3.steps, longer.steps):
        assert (old.nu, old.k, old.p, old.q) == (new.nu, new.k, new.p, new.q)
    # the refined final box sits inside the old one
    assert contains_interior(cert3.final_box, longer.final_box)


def test_weighted_construction_runs():
    spec = ConstructionSpec(
        product=PRODUCT,
        norm=NormSpec("weighted", (F(2, 3), F(1, 3))),
        phi=PhiSpec("pow", exponent=F(5)),
        steps=2,
    )
    cert = construct(spec)
    assert len(cert.steps) == 2
    assert contains_interior(cert.steps[0].box, cert.steps[1].box)


def _brute_depth(need, base, eps):
    depth = 0
    while not need / base**depth < eps:
        depth += 1
    return depth


@st.composite
def narrow_case(draw):
    """A cylinder with its anchor, a bound and a log bias.

    The bound sits within a few levels of a drawn depth: a Fraction (as
    under the sup norm), a PowerValue with exponent denominator 2-4 (as
    under weights), or exactly need / base**depth in either form, where
    the strict < must pick one level deeper.  A nonzero bias shifts the
    log estimate by that many levels, so the exact correction runs.
    """
    system = draw(st.sampled_from((THIRDS, DigitSystem(5, (1, 2, 4)))))
    prefix = draw(st.lists(st.sampled_from(system.digits), max_size=6))
    cyl = Cylinder(system, tuple(prefix))
    need = cyl.anchor().denominator * cyl.hull().width
    level = need / system.base ** draw(st.integers(0, 40))
    kind = draw(st.sampled_from(("fraction", "power", "tie", "power-tie")))
    if kind == "fraction":
        eps = level * Fraction(draw(st.integers(1, 200)), draw(st.integers(1, 200)))
    elif kind == "power":
        c = draw(st.integers(2, 4))
        a = draw(st.integers(-2 * c, 2 * c))
        x = Fraction(draw(st.integers(1, 30)), draw(st.integers(1, 30)))
        eps = PowerValue(x, Fraction(a, c), level)
    elif kind == "tie":
        eps = level
    else:
        c = draw(st.integers(2, 4))
        eps = PowerValue(level**c, Fraction(1, c))
    bias = draw(st.sampled_from((0, 0, 0, 1, -1, 2, -3, 17, -40)))
    return cyl, need, eps, bias


@settings(deadline=None)
@given(narrow_case())
@example((Cylinder(THIRDS, ()), Fraction(1), Fraction(2), 0))  # depth 0
@example((Cylinder(THIRDS, ()), Fraction(1), Fraction(1), 0))  # tie at 0
@example((Cylinder(THIRDS, ()), Fraction(1), Fraction(1, 3**5), -9))
@example((Cylinder(THIRDS, ()), Fraction(1), Fraction(10**6), 17))
def test_narrow_depth_is_least_exact(case):
    cyl, need, eps, bias = case
    base = cyl.system.base
    anchor = cyl.anchor()
    bound = eps if isinstance(eps, PowerValue) else PowerValue(eps)
    true_log = PowerValue.log_float

    def biased_log(x):  # shifts the estimate's log of need, not of eps
        shift = bias * math.log(base) if x is not bound else 0.0
        return true_log(x) + shift

    with mock.patch.object(PowerValue, "log_float", biased_log):
        depth, power = constructor._narrow_depth(need, base, bound)
        out = constructor._narrow_detach(
            cyl, anchor.numerator, anchor.denominator, bound
        )
    assert power == base**depth
    assert depth == _brute_depth(need, base, eps)
    # the narrowed prefix: depth smallest digits, then the two detach levels
    assert out.prefix[: cyl.depth + depth] == cyl.prefix + (cyl.system.dmin,) * depth
    assert out.depth == cyl.depth + depth + 2
