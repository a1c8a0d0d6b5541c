"""Minimal-distance engine: exact rational paths, rigorous enclosures,
records, affine families, weighted scans."""
import ast
import inspect
import itertools
import math
import random
import resource
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singvec import (
    SUP_NORM,
    AffineSubspaceSpec,
    ConstructionSpec,
    DegenerateRecord,
    DigitSystem,
    EmptyRange,
    NormSpec,
    PhiSpec,
    PrecisionExhausted,
    PowerValue,
    ProductSet,
    RatInterval,
    RecordEntry,
    RecordSequence,
    UsageError,
    badness_infimum,
    construct,
    dirichlet_check,
    dirichlet_suite,
    exponent_estimate,
    iroot,
    lift_affine,
    lower_bound_check,
    parse_real,
    power_floor,
    psi,
    psi_enclosure,
    psi_simultaneous,
    record_sequence,
    signed_box,
    simultaneous_badness_min,
    witness_key,
)
from singvec import engine, lattice
from singvec.engine import (
    _failing_thresholds,
    _fixed_pairs,
    _height_key,
    _scan,
    _scan_row,
    _scaled_rows,
    _sorted_box,
)

from helpers import digit_limit

F = Fraction
W23 = NormSpec("weighted", (F(2, 3), F(1, 3)))

rationals = st.fractions(min_value=0, max_value=1, max_denominator=40)
pairs = st.tuples(rationals, rationals)


def naive_min_dist(xi, t):
    """Independent check: full double loop over the integer box, plain
    fractional parts, no shared code with the engine."""
    cap = int(t)
    best = None
    for a in range(-cap, cap + 1):
        for b in range(-cap, cap + 1):
            if a == 0 and b == 0:
                continue
            r = (a * xi[0] + b * xi[1]) % 1
            d = min(r, 1 - r)
            if best is None or d < best:
                best = d
    return best


# -- norms ---------------------------------------------------------------


def test_norm_validation():
    with pytest.raises(UsageError):
        NormSpec("sup", (F(1, 2), F(1, 2)))
    with pytest.raises(UsageError):
        NormSpec("euclidean")
    with pytest.raises(UsageError):
        NormSpec("weighted", ())
    with pytest.raises(UsageError):
        NormSpec("weighted", (F(1, 2), F(1, 3)))  # sum != 1
    with pytest.raises(UsageError):
        NormSpec("weighted", (F(3, 2), F(-1, 2)))  # out of range
    W23.check_dim(2)
    with pytest.raises(UsageError):
        W23.check_dim(3)


def test_norm_caps_and_phi_frozen():
    assert SUP_NORM.coordinate_caps(F(11, 2), 2) == (5, 5)
    assert SUP_NORM.coordinate_caps(F(-1), 2) == (0, 0)
    assert W23.coordinate_caps(F(9), 2) == (18, 4)
    assert SUP_NORM.phi((3, -9)) == PowerValue(9)
    assert W23.phi((9, 0)) == PowerValue(9, F(3, 4))
    assert W23.phi((2, 2)) == PowerValue(8, F(1, 2))
    with pytest.raises(UsageError):
        SUP_NORM.phi((0, 0))


def test_norm_serialization():
    for text, norm in (("sup", SUP_NORM), ("weighted:2/3,1/3", W23)):
        assert NormSpec.parse(text) == norm
        assert NormSpec.from_json(norm.to_json()) == norm
    for text in ("taxicab", "weighted:a,b", "weighted:1/0,1"):
        with pytest.raises(UsageError):
            NormSpec.parse(text)
    with pytest.raises(UsageError):
        NormSpec.from_json({"kind": "taxicab"})
    with pytest.raises(UsageError):
        NormSpec.from_json({"kind": "weighted", "weights": ["1/0", "1"]})


def test_power_floor_frozen():
    assert power_floor(F(9), F(4, 3)) == 18
    assert power_floor(F(9), F(2, 3)) == 4
    assert power_floor(F(2), F(1, 2)) == 1
    assert power_floor(F(4), F(1, 2)) == 2
    assert power_floor(F(1, 2), F(2)) == 0
    assert power_floor(F(0), F(3)) == 0
    with pytest.raises(UsageError):
        power_floor(F(2), F(0))


@given(
    st.fractions(min_value=F(1, 8), max_value=60, max_denominator=30),
    st.fractions(min_value=F(1, 5), max_value=4, max_denominator=6),
)
def test_power_floor_is_the_floor(t, e):
    m = power_floor(t, e)
    num, den = e.numerator, e.denominator
    # m <= t**e < m + 1, checked by exact cross-powering
    assert m**den * t.denominator**num <= t.numerator**num
    assert (m + 1) ** den * t.denominator**num > t.numerator**num


# -- candidate enumeration -----------------------------------------------


def test_witness_key_order():
    assert witness_key((0, 1)) < witness_key((1, 0))
    assert witness_key((1, 0)) < witness_key((-1, 0))
    assert witness_key((1, 1)) < witness_key((1, -1))


def test_signed_box():
    got = list(signed_box((1, 1)))
    assert got == [(0, 1), (1, -1), (1, 0), (1, 1)]
    bigger = list(signed_box((2, 1)))
    assert len(bigger) == (5 * 3 - 1) // 2
    assert len(set(bigger)) == len(bigger)
    for q in bigger:
        lead = next(c for c in q if c != 0)
        assert lead > 0
        assert tuple(-c for c in q) not in bigger


# -- psi -----------------------------------------------------------------


def test_psi_exact_frozen():
    value, q = psi(SUP_NORM, (F(1, 2), F(1, 3)), 3)
    assert value == RatInterval(F(0), F(0))
    assert q == (0, 3)
    value, q = psi(SUP_NORM, (F(1, 2), F(1, 3)), 1)
    assert value == RatInterval(F(1, 6), F(1, 6))
    assert q == (1, 1)


def test_psi_empty_range():
    with pytest.raises(EmptyRange):
        psi(SUP_NORM, (F(1, 2),), F(1, 2))
    with pytest.raises(UsageError):
        psi(SUP_NORM, (), 3)


def test_empty_range_names_a_huge_threshold():
    # a threshold of 5001 digits is named in full, under the default
    # digit guard
    tiny = F(1, 10**5000)
    with digit_limit(4300):
        with pytest.raises(EmptyRange, match="height <= 1/10{5000}$"):
            psi(SUP_NORM, (F(1, 2),), tiny)
        with pytest.raises(EmptyRange, match="height <= 1/10{5000}$"):
            psi_simultaneous((F(1, 2),), tiny)


@pytest.mark.parametrize(
    "call",
    [
        lambda: psi(SUP_NORM, (), 5),
        lambda: psi_enclosure(SUP_NORM, (), 5),
        lambda: psi_simultaneous((), 5),
        lambda: dirichlet_check((), 5),
        lambda: record_sequence(SUP_NORM, (), 5),
        lambda: simultaneous_badness_min((), 1, 5),
    ],
    ids=["psi", "psi_enclosure", "simultaneous", "dirichlet", "records",
         "badness"],
)
def test_empty_target_is_usage_error(call):
    with pytest.raises(UsageError, match="at least one coordinate"):
        call()


def test_psi_irrational_enclosure():
    value, q = psi(SUP_NORM, ("sqrt2",), 5)
    assert q == (5,)
    true = abs(5 * math.sqrt(2) - 7)
    assert float(value.lo) - 1e-12 <= true <= float(value.hi) + 1e-12
    assert value.width < F(1, 10**6)


def test_psi_mixed_rational_zero_detected():
    # second coordinate alone supports an exact integer relation
    value, q = psi(SUP_NORM, ("sqrt2", F(1, 2)), 2)
    assert value == RatInterval(F(0), F(0))
    assert q == (0, 2)


@settings(deadline=None)
@given(pairs, st.integers(1, 8))
def test_psi_matches_naive_scan(xi, t):
    value, q = psi(SUP_NORM, xi, t)
    assert value.lo == value.hi == naive_min_dist(xi, t)
    # the witness attains the value
    r = (q[0] * xi[0] + q[1] * xi[1]) % 1
    assert min(r, 1 - r) == value.lo


@settings(deadline=None)
@given(pairs, st.integers(1, 8), st.integers(1, 8))
def test_psi_monotone_and_bounded(xi, t1, t2):
    lo_t, hi_t = min(t1, t2), max(t1, t2)
    v1, _ = psi(SUP_NORM, xi, lo_t)
    v2, _ = psi(SUP_NORM, xi, hi_t)
    assert v2.lo <= v1.lo
    assert F(0) <= v1.lo and v1.hi <= F(1, 2)


@settings(deadline=None)
@given(pairs, st.integers(1, 6), st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_psi_invariant_under_integer_translation(xi, t, shift):
    base, _ = psi(SUP_NORM, xi, t)
    moved, _ = psi(SUP_NORM, (xi[0] + shift[0], xi[1] + shift[1]), t)
    assert base == moved


@settings(deadline=None)
@given(pairs, st.integers(1, 6))
def test_weighted_equal_split_matches_sup(xi, t):
    eq = NormSpec("weighted", (F(1, 2), F(1, 2)))
    a, qa = psi(SUP_NORM, xi, t)
    b, qb = psi(eq, xi, t)
    assert a == b
    assert qa == qb


@settings(deadline=None)
@given(pairs, st.integers(1, 8))
def test_psi_enclosure_is_sound(xi, t):
    exact, _ = psi(SUP_NORM, xi, t)
    for bits in (16, 64):
        iv = psi_enclosure(SUP_NORM, xi, t, bits=bits)
        assert iv.lo <= exact.lo <= iv.hi


def test_psi_enclosure_zero_short_circuit():
    iv = psi_enclosure(SUP_NORM, (F(1, 2), F(1, 3)), 3)
    assert iv == RatInterval(F(0), F(0))
    with pytest.raises(EmptyRange):
        psi_enclosure(SUP_NORM, (F(1, 2),), F(1, 2))


# -- simultaneous --------------------------------------------------------


def test_simultaneous_frozen():
    value, q = psi_simultaneous((F(1, 2), F(1, 2)), 2)
    assert value == RatInterval(F(0), F(0))
    assert q == 2
    value, q = psi_simultaneous((F(1, 3), F(2, 3)), 2)
    assert value == RatInterval(F(1, 3), F(1, 3))
    assert q == 1
    with pytest.raises(EmptyRange):
        psi_simultaneous((F(1, 2),), F(1, 2))


def test_simultaneous_irrational():
    value, q = psi_simultaneous(("sqrt2",), 3)
    assert q == 2
    true = abs(2 * math.sqrt(2) - 3)
    assert float(value.lo) - 1e-12 <= true <= float(value.hi) + 1e-12


# -- pigeonhole checks ---------------------------------------------------


def test_dirichlet_check_frozen():
    assert dirichlet_check((F(1, 2), F(1, 3)), 3, "dual")
    assert dirichlet_check((F(1, 3), F(2, 3)), 2, "simultaneous")
    assert dirichlet_check(("sqrt2",), 3, "dual")
    with pytest.raises(UsageError):
        dirichlet_check((F(1, 2),), 2, "both")
    with pytest.raises(UsageError):
        dirichlet_check((F(1, 2),), F(1, 2))


@settings(deadline=None)
@given(pairs, st.integers(1, 10))
def test_dirichlet_check_holds_for_rationals(xi, t):
    assert dirichlet_check(xi, t, "dual")
    assert dirichlet_check(xi, t, "simultaneous")


@settings(deadline=None, derandomize=True, max_examples=200)
@given(
    st.integers(1, 3).flatmap(lambda n: st.lists(rationals, min_size=n, max_size=n)),
    st.fractions(min_value=1, max_value=4, max_denominator=12).filter(
        lambda t: t.denominator > 1
    ),
)
def test_dirichlet_check_agrees_with_the_value_comparison(xi, t):
    # off the integers t**(-n) sits below floor(t)**(-n), so both
    # answers occur
    n = len(xi)
    assert dirichlet_check(xi, t, "dual") == (psi(SUP_NORM, xi, t)[0].hi <= t**-n)
    bound = PowerValue(t, F(-1, n))
    assert dirichlet_check(xi, t, "simultaneous") == (
        psi_simultaneous(xi, t)[0].hi <= bound
    )


def test_dirichlet_suite_small_run():
    rep = dirichlet_suite(count=6, t_max=12, seed=7)
    assert rep.ok
    assert (rep.vectors, rep.t_max) == (6, 12)
    again = dirichlet_suite(count=6, t_max=12, seed=7)
    assert again == rep
    for bad in ({"count": 0}, {"dims": ()}, {"dims": (2, 0)}):
        with pytest.raises(UsageError):
            dirichlet_suite(**bad)


# -- records -------------------------------------------------------------


def test_record_sequence_frozen():
    seq = record_sequence(SUP_NORM, (F(1, 2), F(1, 3)), 4)
    assert len(seq.entries) == 2
    first, second = seq.entries
    assert first.threshold.as_fraction() == 1
    assert first.value == RatInterval(F(1, 6), F(1, 6))
    assert first.witness == (1, 1)
    assert second.threshold.as_fraction() == 2
    assert second.value == RatInterval(F(0), F(0))
    assert second.witness == (2, 0)


@settings(deadline=None)
@given(pairs, st.integers(1, 8))
def test_records_agree_with_psi(xi, t_max):
    seq = record_sequence(SUP_NORM, xi, t_max)
    assert seq.entries
    for entry in seq.entries:
        value, _ = psi(SUP_NORM, xi, entry.threshold.as_fraction())
        assert value == entry.value
    # last record is the value at t_max
    final, _ = psi(SUP_NORM, xi, t_max)
    assert final == seq.entries[-1].value


def test_records_zero_width_tie_is_decided():
    # (0, 1, 1) and (0, 1, -1) both land exactly on an integer, and with
    # dyadic rational coordinates both are zero-width at scale 2**bits:
    # a real tie, settled by witness_key instead of refinement
    seq = record_sequence(SUP_NORM, ("sqrt2", F(3, 2), F(1, 2)), 3)
    assert len(seq.entries) == 1
    (entry,) = seq.entries
    assert entry.threshold.as_fraction() == 1
    assert entry.value == RatInterval(F(0), F(0))
    assert entry.witness == (0, 1, 1)


def test_record_sequence_validation():
    one = RecordEntry(PowerValue(1), RatInterval(F(1, 4), F(1, 4)), (1,))
    worse = RecordEntry(PowerValue(2), RatInterval(F(1, 3), F(1, 3)), (2,))
    with pytest.raises(ValueError):
        RecordSequence(SUP_NORM, F(2), (one, worse))
    same_t = RecordEntry(PowerValue(1), RatInterval(F(1, 8), F(1, 8)), (1,))
    with pytest.raises(ValueError):
        RecordSequence(SUP_NORM, F(2), (one, same_t))


def test_exponent_estimate_frozen():
    seq = RecordSequence(
        SUP_NORM,
        F(4),
        (
            RecordEntry(PowerValue(2), RatInterval(F(1, 8), F(1, 8)), (2, 0)),
            RecordEntry(PowerValue(4), RatInterval(F(1, 64), F(1, 64)), (4, 1)),
        ),
    )
    least, slopes = exponent_estimate(seq)
    assert least == F(3, 2)
    assert slopes == (F(3, 2),)


def test_exponent_estimate_errors():
    single = RecordSequence(
        SUP_NORM,
        F(2),
        (RecordEntry(PowerValue(1), RatInterval(F(1, 4), F(1, 4)), (1,)),),
    )
    with pytest.raises(UsageError):
        exponent_estimate(single)
    touching = RecordSequence(
        SUP_NORM,
        F(3),
        (
            RecordEntry(PowerValue(1), RatInterval(F(1, 4), F(1, 4)), (1,)),
            RecordEntry(PowerValue(2), RatInterval(F(0), F(0)), (2,)),
        ),
    )
    with pytest.raises(DegenerateRecord):
        exponent_estimate(touching)


# -- affine families -----------------------------------------------------


def test_affine_spec_shapes():
    spec = AffineSubspaceSpec((F(1, 2),), ((F(1, 3),),))
    assert spec.subspace_dim == 1
    assert spec.ambient_dim == 2
    assert spec.exponent == F(2)
    with pytest.raises(UsageError):
        AffineSubspaceSpec((), ())
    with pytest.raises(UsageError):
        AffineSubspaceSpec((F(1), F(2)), ((F(1),),))
    with pytest.raises(UsageError):
        AffineSubspaceSpec((F(1), F(2)), ((F(1),), (F(1), F(2))))


def test_lift_affine_exact():
    spec = AffineSubspaceSpec((F(1, 3),), ((F(1, 2),),))
    point = lift_affine(spec, (F(2, 5),))
    assert [d.exact_value() for d in point] == [F(2, 5), F(1, 3) + F(1, 5)]
    with pytest.raises(UsageError):
        lift_affine(spec, (F(1), F(2)))


def test_lift_affine_quadratic():
    line = AffineSubspaceSpec(("0",), (("sqrt2",),))
    point = lift_affine(line, ("sqrt2",))
    assert len(point) == 2
    # second coordinate is the square: encloses 2 tightly
    iv = point[1].enclose(F(1, 10**9))
    assert iv.contains(F(2))


# -- badness scans -------------------------------------------------------


def test_badness_zero_hit():
    spec = AffineSubspaceSpec((F(1, 2),), ((F(1, 3),),))
    out = badness_infimum(spec, 5)
    assert out.value == RatInterval(F(0), F(0))
    assert out.witness == (0, 3)
    assert out.exponent == F(2)
    with pytest.raises(UsageError):
        badness_infimum(spec, 0)


def test_badness_exact_frozen():
    spec = AffineSubspaceSpec((F(2, 7),), ((F(3, 11),),))
    for cap in (2, 3, 4, 5, 6):
        out = badness_infimum(spec, cap)
        assert out.value == RatInterval(F(1, 77), F(1, 77))
        assert out.witness == (1, -1)
    hit = badness_infimum(spec, 7)
    assert out.value.lo > hit.value.hi == 0
    assert hit.witness == (7, 0)


def test_badness_matches_brute_force():
    spec = AffineSubspaceSpec((F(2, 7),), ((F(3, 11),),))
    for cap in (1, 2, 3, 4, 5):
        out = badness_infimum(spec, cap)
        best = None
        for q0 in range(-cap, cap + 1):
            for q1 in range(-cap, cap + 1):
                if q0 == 0 and q1 == 0:
                    continue
                r = (q0 * F(2, 7) + q1 * F(3, 11)) % 1
                d = min(r, 1 - r)
                v = d * max(abs(q0), abs(q1)) ** 2
                if best is None or v < best:
                    best = v
        assert out.value == RatInterval(best, best)


def test_badness_zero_shift_line_hits_zero():
    # with a rational shift the constant column alone lands on an
    # integer, so the infimum is exactly zero at once
    line = AffineSubspaceSpec(("0",), (("sqrt2",),))
    out = badness_infimum(line, 3)
    assert out.value == RatInterval(F(0), F(0))
    assert out.witness == (1, 0)


def test_badness_irrational_positive():
    # 1, sqrt2, cbrt2 admit no integer relation, so the scan minimum
    # stays positive and only creeps down as the cap grows
    fam = AffineSubspaceSpec(("sqrt2",), (("cbrt2",),))
    prev_hi = None
    for cap in (3, 6, 12):
        out = badness_infimum(fam, cap)
        assert out.value.lo > 0
        if prev_hi is not None:
            assert out.value.lo <= prev_hi
        prev_hi = out.value.hi
    assert out.witness == (10, 11)
    assert float(out.value.lo) == pytest.approx(0.153327881, abs=1e-6)


def test_simultaneous_badness_frozen():
    value, q = simultaneous_badness_min((F(1, 3), F(2, 5)), 2, 4)
    assert value == RatInterval(F(2, 5), F(2, 5))
    assert q == 1
    value, q = simultaneous_badness_min((F(1, 2), F(1, 3)), 1, 6)
    assert value == RatInterval(F(0), F(0))
    assert q == 6
    with pytest.raises(UsageError):
        simultaneous_badness_min((F(1, 2),), 1, 0)
    with pytest.raises(UsageError):
        simultaneous_badness_min((F(1, 2),), 0, 3)


def test_lower_bound_check():
    line = AffineSubspaceSpec(("0",), (("sqrt2",),))
    ok, bad = lower_bound_check(line, ("sqrt2",), 50, F(1, 100))
    assert ok and bad is None
    ok, bad = lower_bound_check(line, ("sqrt2",), 50, F(1))
    assert not ok and bad == 1
    exact = AffineSubspaceSpec((F(0),), ((F(1, 3),),))
    # lifted point (1/2, 1/6) first hits integers jointly at q = 6
    ok, bad = lower_bound_check(exact, (F(1, 2),), 6, F(1, 100))
    assert not ok and bad == 6
    ok, bad = lower_bound_check(exact, (F(1, 2),), 5, F(1, 100))
    assert ok and bad is None
    with pytest.raises(UsageError):
        lower_bound_check(line, ("sqrt2",), 10, F(0))


def test_lower_bound_check_reports_the_first_failure():
    # x = 3/7 + sqrt2/2000 and c just above x: q = 1 fails by about
    # 10**-40, undecided at 64 bits, while q = 7 (7x = 3 + 7 sqrt2/2000)
    # fails at once; the first failing q is the answer
    x = "alg:17999951/98000000,-6/7,1:0.429,0.43"
    iv = parse_real(x).enclose(F(1, 10**60))
    c = F(math.floor(iv.lo * 10**50), 10**50) + F(1, 10**40)
    line = AffineSubspaceSpec(("0",), (("1",),))
    assert lower_bound_check(line, (x,), 100, c) == (False, 1)


# (s, n) of the families: w = (s + 1)/(n - s) is 2/3, 3/2 and 1
_LOWER_BOUND_SHAPES = ((1, 4), (2, 4), (1, 3))


@st.composite
def lower_bound_cases(draw):
    s, n = draw(st.sampled_from(_LOWER_BOUND_SHAPES))
    small = st.fractions(min_value=0, max_value=1, max_denominator=30)
    x = tuple(draw(small) for _ in range(s))
    shift = tuple(draw(small) for _ in range(n - s))
    matrix = tuple(tuple(draw(small) for _ in range(s)) for _ in range(n - s))
    c = F(draw(st.integers(1, 20)), draw(st.integers(1, 400)))
    return shift, matrix, x, c, draw(st.integers(1, 40))


def _interval_dist(lo, hi):
    """Enclosure of <y> for y in [lo, hi], an interval that holds no
    multiple of 1/2 inside."""
    assert math.floor(2 * lo) == math.floor(2 * hi)
    ends = (_dist(lo), _dist(hi))
    return min(ends), max(ends)


def _first_below(shift, matrix, x, c, cap):
    """(False, the first q <= cap whose distance max_j <q * xi_j> is
    below c * q**(-w)), by PowerValue's order, else (True, None), for
    the family point xi = (x, shift + matrix . x).  An irrational shift
    is enclosed to 10**-100, far inside every gap the examples leave."""
    w = F(len(x) + 1, len(shift))
    xi = [(v, v) for v in x]
    for entry, row in zip(shift, matrix):
        iv = engine.as_descriptor(entry).enclose(F(1, 10**100))
        dot = sum(m * v for m, v in zip(row, x))
        xi.append((iv.lo + dot, iv.hi + dot))
    for q in range(1, cap + 1):
        ends = [_interval_dist(q * lo, q * hi) for lo, hi in xi]
        d_lo, d_hi = max(e[0] for e in ends), max(e[1] for e in ends)
        bound = PowerValue(q, -w, coef=c)
        if bound > d_hi:
            return False, q
        assert bound <= d_lo, "the oracle cannot decide this case"
    return True, None


@settings(deadline=None, derandomize=True, max_examples=300)
@given(lower_bound_cases())
# c * q**(-w) equals the distance: 8**(-2/3) = 1/4 at the q = 8 of
# (1/8, 1/512, 0, 0), and 4**(-3/2) = 1/8 at the q = 4 of (1/4, 1/512,
# 0, 0); a bound met with equality holds
@example(((F(1, 512), F(0), F(0)), ((F(0),),) * 3, (F(1, 8),), F(1, 16), 10))
@example(((F(0), F(0)), ((F(0), F(0)),) * 2, (F(1, 4), F(1, 512)), F(1, 16), 6))
# c lies 10**-40 below <sqrt2> at q = 1: undecided until the enclosure
# is finer than that, and then the bound holds
@example((("sqrt2", F(0), F(0)), ((F(0),),) * 3, (F(1, 3),),
          F((math.isqrt(2 * 10**100) - 10**50) // 10**10 - 1, 10**40), 6))
def test_lower_bound_check_matches_the_power_order(case):
    shift, matrix, x, c, cap = case
    spec = AffineSubspaceSpec(shift, matrix)
    assert lower_bound_check(spec, x, cap, c) == _first_below(shift, matrix, x, c, cap)


@st.composite
def lower_bound_walk_cases(draw):
    # the shapes above and the one-parameter line, (1, 2) with w = 2
    s, n = draw(st.sampled_from(_LOWER_BOUND_SHAPES + ((1, 2),)))
    # denominators up to 60 put exact zeros inside the cap; a named root
    # in the shift makes the scale 2**bits, with enclosures of width one
    x = tuple(F(draw(st.integers(0, den)), den)
              for den in draw(st.lists(st.integers(1, 60), min_size=s, max_size=s)))
    entry = st.one_of(
        st.fractions(min_value=0, max_value=1, max_denominator=12),
        st.sampled_from(["sqrt2", "cbrt2"]),
    )
    shift = tuple(draw(entry) for _ in range(n - s))
    small = st.fractions(min_value=0, max_value=1, max_denominator=6)
    matrix = tuple(tuple(draw(small) for _ in range(s)) for _ in range(n - s))
    # from no q to every q near the bound; the last branch sets c just
    # above <x_0>, whose scaled residue sits at the edge of the window
    c = draw(st.one_of(
        st.integers(2, 10**6).map(lambda m: F(1, m)),
        st.builds(F, st.integers(1, 20), st.integers(40, 10**6)),
        st.just(_dist(x[0]) + F(1, 10**30)),
    ))
    return shift, matrix, x, c, draw(st.integers(1, 400))


@settings(deadline=None, derandomize=True, max_examples=400)
@given(lower_bound_walk_cases())
# (1/2, 1/6) fails at q = 6 and q = 12, 18, ...; q = 2 and q = 4 come
# first in circle order and hold
@example(((F(0),), ((F(1, 3),),), (F(1, 2),), F(1, 100), 400))
# <2q/3> = 1/3 at q = 1, 2 and c just above it, with <cbrt2> below it:
# q = 1 fails at the window's edge, at a scale of 2**64, which 3 does
# not divide, and at the exact scale 3
@example((("cbrt2",), ((F(0),),), (F(2, 3),), F(1, 3) + F(1, 10**30), 7))
@example(((F(0),), ((F(0),),), (F(2, 3),), F(1, 3) + F(1, 10**30), 7))
# <3/7> < 1/2 fails at q = 1, the last q in circle order, while q = 7
# and q = 14 hit the integers first
@example(((F(0),), ((F(0),),), (F(3, 7),), F(1, 2), 20))
def test_lower_bound_walk_matches_every_q(case):
    # the walk decides only the q near the bound, and the least q it
    # cannot certify is the first failure of the loop over every q
    shift, matrix, x, c, cap = case
    spec = AffineSubspaceSpec(shift, matrix)
    assert lower_bound_check(spec, x, cap, c) == _first_below(shift, matrix, x, c, cap)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


@pytest.mark.parametrize(
    "spec, x, c, want",
    [
        ('(("0",), (("cbrt2",),))', '("cbrt2",)', "F(1, 1000)", (True, None)),
        # every even q has residue 0 in row 0: the walk's long zero class
        ('(("0",), (("1/3",),))', "(F(1, 2),)", "F(1, 100)", (False, 6)),
    ],
    ids=["cbrt2-line", "rational-line"],
)
def test_lower_bound_check_answers_at_a_million_in_time(spec, x, c, want):
    # the walk visits the q near the bound, not every q up to the cap,
    # and holds none of them
    code = (
        "import time\n"
        "from fractions import Fraction as F\n"
        "from singvec import AffineSubspaceSpec, lower_bound_check\n"
        f"spec = AffineSubspaceSpec(*{spec})\n"
        "t0 = time.perf_counter()\n"
        f"out = lower_bound_check(spec, {x}, 10**6, {c})\n"
        "print(out, time.perf_counter() - t0)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
    )
    assert out.returncode == 0, out.stderr
    answer, seconds = out.stdout.rsplit(" ", 1)
    assert ast.literal_eval(answer) == want
    assert float(seconds) < 1


# -- brute-force oracles ---------------------------------------------------
#
# Each oracle enumerates the whole integer box with plain Fraction
# arithmetic and shares no code with the engine's scan kernels.


def _dist(x):
    r = x % 1
    return min(r, 1 - r)


def _first_nonzero_positive(q):
    return next(c for c in q if c != 0) > 0


def _power_key(d, m, w):
    """Exact sort key for d * m**w with w = a/b: d**b * m**a orders the
    same way and is rational."""
    return d**w.denominator * F(m) ** w.numerator


def _brute_psi(xi, t):
    best, best_key, best_q = None, None, None
    for q in itertools.product(range(-t, t + 1), repeat=len(xi)):
        if not any(q) or not _first_nonzero_positive(q):
            continue
        d = _dist(sum(c * x for c, x in zip(q, xi)))
        if best is None or (d, witness_key(q)) < (best, best_key):
            best, best_key, best_q = d, witness_key(q), q
    return best, best_q


def test_psi_n3_matches_naive_triple_loop():
    rng = random.Random(31)
    for _ in range(25):
        den = rng.randint(2, 40)
        xi = tuple(F(rng.randint(0, den), den) for _ in range(3))
        t = rng.randint(1, 3)
        value, q = psi(SUP_NORM, xi, t)
        best, best_q = _brute_psi(xi, t)
        assert value == RatInterval(best, best)
        assert q == best_q


def _brute_badness(rows, cap, w):
    """Minimum of max_i <row_i . q> * |q|_inf**w over the box, exactly,
    as (distance, height, witness)."""
    best = None
    for q in itertools.product(range(-cap, cap + 1), repeat=len(rows[0])):
        if not any(q) or not _first_nonzero_positive(q):
            continue
        d = max(_dist(sum(c * x for c, x in zip(q, row))) for row in rows)
        m = max(abs(c) for c in q)
        key = (_power_key(d, m, w), witness_key(q))
        if best is None or key < best[0]:
            best = (key, d, m, q)
    return best[1], best[2], best[3]


def _assert_weighted_value(value, d, m, w):
    """value encloses d * m**w; it is the exact point when that number
    is rational."""
    exact = PowerValue(m, w, d).as_fraction() if d else F(0)
    if exact is not None:
        assert value == RatInterval(exact, exact)
    else:
        cube = _power_key(d, m, w)
        assert value.lo > 0
        assert value.lo**w.denominator <= cube <= value.hi**w.denominator


def test_badness_rational_s1_n4_matches_brute_force():
    rng = random.Random(47)
    w = F(2, 3)
    for _ in range(12):
        den = rng.randint(5, 30)
        shift = tuple(F(rng.randint(1, den - 1), den) for _ in range(3))
        matrix = tuple((F(rng.randint(1, den - 1), den),) for _ in range(3))
        spec = AffineSubspaceSpec(shift, matrix)
        assert spec.exponent == w
        cap = rng.randint(1, 6)
        out = badness_infimum(spec, cap)
        rows = tuple((s,) + r for s, r in zip(shift, matrix))
        d, m, q = _brute_badness(rows, cap, w)
        assert out.witness == q
        _assert_weighted_value(out.value, d, m, w)


def test_simultaneous_badness_w32_matches_brute_force():
    rng = random.Random(58)
    w = F(3, 2)
    for _ in range(40):
        den = rng.randint(3, 200)
        xi = tuple(F(rng.randint(0, den), den) for _ in range(2))
        cap = rng.randint(1, 40)
        value, q = simultaneous_badness_min(xi, w, cap)
        best = None
        for k in range(1, cap + 1):
            d = max(_dist(k * x) for x in xi)
            key = _power_key(d, k, w)
            if best is None or key < best[0]:
                best = (key, d, k)
        _, d, k = best
        assert q == k
        _assert_weighted_value(value, d, k, w)


_NAMED_ROOTS = ("sqrt2", "cbrt2", "alg:-3,0,1:1,2", "alg:-5,0,0,1:1,2")


@st.composite
def weighted_key_cases(draw):
    """(xi, w, cap) for simultaneous_badness_min, or (rows, None, cap)
    with rows [shift_i | matrix_i] of an s = 1 (w = 2/3) or s = 2
    (w = 3/2) family in four coordinates; at least one entry is a named
    root, the others rational."""
    shape = draw(st.sampled_from([None, (1, 4), (2, 4)]))
    if shape is None:
        size = draw(st.integers(1, 3))
    else:
        s, n = shape
        size = (n - s) * (s + 1)
    entry = st.one_of(
        st.sampled_from(_NAMED_ROOTS),
        st.fractions(min_value=-2, max_value=2, max_denominator=30),
    )
    entries = draw(st.lists(entry, min_size=size, max_size=size))
    if all(isinstance(x, F) for x in entries):
        entries[draw(st.integers(0, size - 1))] = draw(st.sampled_from(_NAMED_ROOTS))
    if shape is None:
        w = draw(st.sampled_from([F(1, 3), F(1, 2), F(2, 3), F(3, 2), F(5, 3), F(7, 4)]))
        return tuple(entries), w, draw(st.integers(1, 40))
    rows = [tuple(entries[i:i + s + 1]) for i in range(0, size, s + 1)]
    return rows, None, draw(st.integers(1, 5))


def _dist_range(lo, hi):
    """Enclosure of <y> for y in [lo, hi]."""
    ends = (_dist(lo), _dist(hi))
    d_lo = F(0) if math.ceil(lo) <= hi else min(ends)
    d_hi = F(1, 2) if math.ceil(lo - F(1, 2)) + F(1, 2) <= hi else max(ends)
    return d_lo, d_hi


@settings(deadline=None, derandomize=True, max_examples=200)
@given(weighted_key_cases())
# the b-th root of the winner's upper key is less than one unit above
# the minimum at scale 2**64 (sqrt3 at q = 4, cbrt5 at q = 3), so that
# root rounded down would end below it
@example((("alg:-3,0,1:1,2",), F(1, 3), 4))
@example((("alg:-5,0,0,1:1,2",), F(2, 3), 3))
def test_weighted_key_encloses_the_brute_force_minimum(case):
    # the engine orders d * m**(a/b) by the integer key d**b * m**a; the
    # oracle encloses each q's value at 256 bits through PowerValue
    target, w, cap = case
    if w is None:
        rows = target
        spec = AffineSubspaceSpec([r[0] for r in rows], [r[1:] for r in rows])
        out = badness_infimum(spec, cap)
        value, witness, w = out.value, out.witness, out.exponent
        box = [q for q in itertools.product(range(-cap, cap + 1), repeat=len(rows[0]))
               if any(q) and _first_nonzero_positive(q)]
    else:
        rows = [(x,) for x in target]
        value, q = simultaneous_badness_min(target, w, cap)
        witness, box = (q,), [(k,) for k in range(1, cap + 1)]
    ends = [[engine.as_descriptor(x).enclose(F(1, 2**256)) for x in row] for row in rows]

    def bracket(q):
        d_lo = d_hi = F(0)
        for row in ends:
            lo = sum(c * (iv.lo if c > 0 else iv.hi) for c, iv in zip(q, row))
            hi = sum(c * (iv.hi if c > 0 else iv.lo) for c, iv in zip(q, row))
            a, b = _dist_range(lo, hi)
            d_lo, d_hi = max(d_lo, a), max(d_hi, b)
        m = max(map(abs, q))
        return (PowerValue(m, w, d_lo).enclose(256).lo if d_lo else F(0),
                PowerValue(m, w, d_hi).enclose(256).hi if d_hi else F(0))

    brackets = {q: bracket(q) for q in box}
    low = min(lo for lo, _ in brackets.values())
    high = min(hi for _, hi in brackets.values())
    assert value.lo <= high and low <= value.hi
    assert value.lo <= brackets[witness][1]
    assert brackets[witness][0] <= value.hi


@pytest.mark.parametrize(
    "w, cap, want, limit",
    [("F(1, 2)", "10**6", 470832, 1), ("F(1, 10000)", "1000", 985, 2)],
    ids=["half-to-a-million", "tiny-exponent"],
)
def test_simultaneous_badness_answers_in_time(w, cap, want, limit):
    # the key is built for the candidates the walk yields, with no table
    # of m**w up to the cap: the witnesses are Pell denominators of sqrt2
    code = (
        "import time\n"
        "from fractions import Fraction as F\n"
        "from singvec import simultaneous_badness_min\n"
        "t0 = time.perf_counter()\n"
        f"_, q = simultaneous_badness_min(('sqrt2',), {w}, {cap})\n"
        "print(q, time.perf_counter() - t0)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
    )
    assert out.returncode == 0, out.stderr
    q, seconds = out.stdout.split()
    assert int(q) == want
    assert float(seconds) < limit


def _breaks_bound(v, t, e):
    # v > (1/t)**(1/e): v * t**n > 1 for e = 1/n, v**n * t > 1 for e = n
    if e.denominator == 1:
        return v**e.numerator * t > 1
    return v * t**e.denominator > 1


def test_failing_thresholds_match_every_threshold():
    rng = random.Random(20261018)
    failures = jumps = zeros = 0
    for _ in range(600):
        n = rng.randint(1, 4)
        e = rng.choice([F(1, n), F(n)])
        t_max = rng.randint(1, 60)
        # a non-increasing staircase near the bound: flat runs and steps
        # above it break the bound, and it may drop to zero
        stair, v = [], F(1)
        for t in range(1, t_max + 1):
            if rng.random() < 0.02:
                v = F(0)
            elif rng.random() < 0.5:
                near = F(1, max(1, round(t ** float(1 / e))))
                v = min(v, near * F(rng.randint(5, 20), 10))
            stair.append(v)
        calls = []

        def value(t):
            calls.append(t)
            return stair[t - 1]

        want = [
            (t, v) for t, v in enumerate(stair, 1) if _breaks_bound(v, t, e)
        ]
        assert _failing_thresholds(value, e, t_max) == want
        failures += len(want)
        jumps += len(calls) < t_max
        zeros += F(0) in stair
    assert failures and jumps and zeros


def test_dirichlet_suite_reports_what_the_kernel_gives(monkeypatch):
    # no real target breaks the bound, so hand the suite a kernel that
    # does: distance 1 at every threshold fails every t >= 2
    one = (RatInterval(F(1), F(1)), None)
    monkeypatch.setattr(engine, "psi", lambda norm, xi, t: one)
    monkeypatch.setattr(engine, "psi_simultaneous", lambda xi, t: one)
    rep = dirichlet_suite(count=3, dims=(1, 2), t_max=4, seed=5)
    assert not rep.ok
    for got in (rep.dual_violations, rep.simultaneous_violations):
        dens = [item["den"] for item in got[::3]]
        assert got == tuple(
            {"vector": idx, "t": t, "num": den, "den": den, "n": 1 + idx % 2}
            for idx, den in enumerate(dens)
            for t in (2, 3, 4)
        )


def test_psi_mixed_two_exact_zeros_takes_smaller_witness():
    # (0, 2) and (0, 4) both land exactly on an integer
    value, q = psi(SUP_NORM, ("sqrt2", F(1, 2)), 4)
    assert value == RatInterval(F(0), F(0))
    assert q == (0, 2)
    # (0, 1, 1) and its double (0, 2, 2) both hit zero, as do
    # (0, 2, -1) and (0, 1, -2); the least witness_key wins
    value, q = psi(SUP_NORM, ("sqrt2", F(1, 3), F(2, 3)), 2)
    assert value == RatInterval(F(0), F(0))
    assert q == (0, 1, 1)


# -- weighted records and height order against brute force ---------------


def _records_oracle(norm, xi, t_max):
    """Every nonzero vector in the caps with first nonzero coordinate
    positive, sorted by (phi, witness_key) and grouped by equal phi,
    with a running exact minimum of plain fractional-part distances.
    A group's threshold is the phi of its first member."""
    caps = norm.coordinate_caps(F(t_max), len(xi))
    cands = []
    for q in itertools.product(*(range(-c, c + 1) for c in caps)):
        if not any(q) or next(c for c in q if c) < 0:
            continue
        phi = norm.phi(q)
        assert phi <= t_max
        r = sum(c * x for c, x in zip(q, xi)) % 1
        cands.append((phi, witness_key(q), min(r, 1 - r), q))
    cands.sort(key=lambda it: (it[0], it[1]))
    out = []
    best = None
    i = 0
    while i < len(cands):
        j = i
        while j < len(cands) and cands[j][0] == cands[i][0]:
            j += 1
        group = cands[i:j]
        low = min(d for _, _, d, _ in group)
        if best is None or low < best:
            best = low
            witness = next(q for _, _, d, q in group if d == low)
            out.append((str(group[0][0]), RatInterval(low, low), witness))
        i = j
    return out


@pytest.mark.parametrize(
    "weights,t_values",
    [
        ((F(2, 3), F(1, 3)), (3, F(9, 2), 8, 13)),
        ((F(1, 4), F(3, 4)), (2, 5, F(11, 2), 9)),
        ((F(1, 6), F(1, 3), F(1, 2)), (2, 3, F(7, 2), 4)),
    ],
)
def test_weighted_records_match_brute_force(weights, t_values):
    norm = NormSpec("weighted", weights)
    rng = random.Random(len(weights) * 1000 + weights[0].denominator)
    for t_max in t_values:
        for _ in range(3):
            den = rng.randrange(2, 60)
            xi = tuple(F(rng.randrange(0, den), den) for _ in weights)
            seq = record_sequence(norm, xi, t_max)
            got = [(str(e.threshold), e.value, e.witness) for e in seq.entries]
            assert got == _records_oracle(norm, xi, t_max), (xi, t_max)


def _key_power(weights):
    """n*E/B for weights s_j, B = lcm of their denominators and E =
    lcm(s_j * B): the power of phi that the least record key is."""
    big_b = math.lcm(*(s.denominator for s in weights))
    big_e = math.lcm(*(int(s * big_b) for s in weights))
    return F(len(weights) * big_e, big_b)


def _phi_power(weights, q):
    """phi(q)**(n*E/B), as _key_power, as an integer: max_j
    |q_j|**(E/(s_j * B)), whose exponents are the least integers."""
    k = _key_power(weights)
    return max(abs(c) ** int(k / (len(weights) * s)) for c, s in zip(q, weights))


_weight_sets = st.sampled_from(
    [
        (F(1, 2), F(1, 2)),
        (F(2, 3), F(1, 3)),
        (F(1, 4), F(3, 4)),
        (F(2, 5), F(3, 5)),
        (F(1, 6), F(1, 3), F(1, 2)),
        (F(2, 7), F(3, 7), F(2, 7)),
    ]
)


@settings(deadline=None, max_examples=200)
@given(_weight_sets, st.data())
def test_phi_power_orders_and_ties_like_phi(weights, data):
    n = len(weights)
    vec = st.tuples(*[st.integers(-40, 40)] * n).filter(any)
    q = data.draw(vec)
    r = data.draw(vec)
    norm = NormSpec("weighted", weights)
    kq, kr = _phi_power(weights, q), _phi_power(weights, r)
    assert norm.phi(q).pow(_key_power(weights)) == kq
    assert (kq < kr) == (norm.phi(q) < norm.phi(r))
    assert (kq == kr) == (norm.phi(q) == norm.phi(r))


@pytest.mark.parametrize("xi", [("sqrt2", F(1, 2)), (F(1, 2), "sqrt2")])
def test_dirichlet_check_mixed_target(xi):
    # the pigeonhole bounds hold for every real target and every real
    # t >= 1; the exact coordinate 1/2 gives exact zeros from t = 2 on
    for t in (1, F(3, 2), 2, F(5, 2), 3, 5, 8):
        assert dirichlet_check(xi, t, "dual")
        assert dirichlet_check(xi, t, "simultaneous")


@settings(deadline=None, max_examples=100)
@given(_weight_sets, st.data())
def test_height_key_is_phi_power(weights, data):
    n = len(weights)
    q = data.draw(st.tuples(*[st.integers(-40, 40)] * n).filter(any))
    for norm, want in (
        (NormSpec("weighted", weights), _phi_power(weights, q)),
        (SUP_NORM, max(abs(c) for c in q)),
    ):
        exps = _height_key(norm, n)
        assert max(abs(c) ** e for c, e in zip(q, exps)) == want
        # the caps of the keys up to want - 1 leave q out, those of
        # want keep it
        for h, inside in ((want - 1, False), (want, True)):
            caps = [iroot(h, e) for e in exps]
            assert all(abs(c) <= m for c, m in zip(q, caps)) == inside


# -- records from the top against the upward grouped walk ----------------


def _upward_records(norm, xi, t_max):
    """Records by an upward walk, as an oracle: every vector of the box
    grouped by height, one _scan per group in increasing height, a group
    a record when its lower end is below the running upper end, each
    round refined by _refine."""
    row = _scan_row(xi)
    caps = norm.coordinate_caps(F(t_max), len(row))
    if norm.kind == "sup":
        key = lambda q: max(abs(c) for c in q)  # noqa: E731
    else:
        key = lambda q: _phi_power(norm.weights, q)  # noqa: E731
    by_height = {}
    for q in signed_box(caps):
        by_height.setdefault(key(q), []).append(q)
    groups = [by_height[h] for h in sorted(by_height)]

    def step(bits, last):
        table, scale = _scaled_rows([row], bits)
        entries = []
        cur_lo = cur_hi = math.inf
        for group in groups:
            g_lo, g_hi, pool = _scan(group, table, scale)
            if g_lo >= cur_hi:
                continue
            decided = len(pool) == 1 or all(lo == hi for lo, hi, _ in pool)
            if g_hi >= cur_lo or not decided:
                return None
            value = RatInterval(F(g_lo, scale), F(g_hi, scale))
            phi = norm.phi(min(group, key=witness_key))
            witness = min((q for _, _, q in pool), key=witness_key)
            entries.append(RecordEntry(phi, value, witness))
            cur_lo, cur_hi = g_lo, g_hi
        return entries

    return engine._refine(step, 64, 4096, "undecided at {bits} bits")


def _record_outcome(walk):
    try:
        entries = walk()
    except PrecisionExhausted:
        return "refused"
    return [(str(e.threshold), e.threshold, e.value, e.witness) for e in entries]


_IRRATIONALS = (
    "sqrt2", "cbrt2", "alg:-3,0,1:1,2", "alg:-1,-1,1:1,2",
    "alg:-5,0,1:2,3", "alg:-7,0,0,1:1,2",
)
_RECORD_NORMS = {
    1: (SUP_NORM,),
    2: (SUP_NORM, W23, NormSpec("weighted", (F(1, 4), F(3, 4)))),
    3: (SUP_NORM, NormSpec("weighted", (F(1, 6), F(1, 3), F(1, 2)))),
}
_RECORD_T = {1: (5, 17, 60), 2: (3, F(11, 2), 9), 3: (2, 3, F(7, 2))}


@pytest.mark.parametrize("kind", ["rational", "algebraic", "mixed"])
def test_records_from_the_top_match_the_upward_walk(kind):
    # entries and refusals alike, bit for bit, on seeded targets
    rng = random.Random(kind)
    refused = 0
    for _ in range(30):
        n = rng.randrange(1, 4)
        den = rng.randrange(2, 40)
        xi = []
        for j in range(n):
            exact = kind == "rational" or (kind == "mixed" and j % 2 == 0)
            if kind == "mixed" and rng.random() < 0.3:
                exact = not exact
            xi.append(
                F(rng.randrange(den), den) if exact
                else rng.choice(_IRRATIONALS)
            )
        xi = tuple(xi)
        norm = rng.choice(_RECORD_NORMS[n])
        t_max = rng.choice(_RECORD_T[n])
        got = _record_outcome(lambda: record_sequence(norm, xi, t_max).entries)
        want = _record_outcome(lambda: _upward_records(norm, xi, t_max))
        assert got == want, (norm, xi, t_max)
        refused += got == "refused"
    if kind == "rational":
        assert refused == 0


def test_records_of_a_box_larger_than_the_scan_budget():
    # the box of height 3000 holds 1.8 * 10**7 vectors, more than
    # MAX_SCAN_WORK, but each sorted scan takes about 9000 steps, and the
    # irrational pair's big boxes take the lattice
    for xi, count in [((F(1234, 4567), F(2345, 6789)), 13), (("sqrt2", "cbrt2"), 15)]:
        seq = record_sequence(SUP_NORM, xi, 3000)
        assert len(seq.entries) == count
        for entry in seq.entries:
            value, witness = psi(SUP_NORM, xi, entry.threshold.as_fraction())
            assert witness == entry.witness
            assert value.lo <= entry.value.hi and entry.value.lo <= value.hi
            assert max(abs(c) for c in entry.witness) == entry.threshold


# -- sorted-neighbour candidate source -----------------------------------

_sorted_targets = st.sampled_from(
    [
        (F(1, 2), F(1, 2)),
        ("cbrt2", "cbrt2"),
        (F(2, 7), F(5, 11)),
        (F(-3, 4), F(9, 5), F(1, 6)),
        ("sqrt2", "cbrt2"),
        ("sqrt2", "cbrt2", "alg:-3,0,1:1,2"),
        ("sqrt2", F(1, 3)),
        (F(1, 3), "sqrt2"),
        ("cbrt2", F(0), "sqrt2"),
        (F(0), F(0)),
    ]
)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(
    _sorted_targets,
    st.sampled_from([None, F(1, 3), "sqrt2"]),
    st.sampled_from([1, 3, 64]),
    st.sampled_from([None, F(1), F(2), F(1, 2), F(3, 2)]),
    st.data(),
)
def test_sorted_source_matches_signed_box(xi, second, bits, w, data):
    # signed_box is the oracle: the same minimum, both ends, and the same
    # pool as a set, at the lcm scale of a rational target and at 2**bits
    n = len(xi)
    cap = st.integers(0, 9 if n == 2 else 4)
    caps = data.draw(st.lists(cap, min_size=n, max_size=n))
    rows = [_scan_row(xi)]
    if second is not None:
        rows.append(_scan_row((second,) * n))
    table, scale = _scaled_rows(rows, bits)
    want = _scan(signed_box(caps), table, scale, w)
    got = _scan(_sorted_box(caps, table, scale, w), table, scale, w)
    assert got[:2] == want[:2]
    assert len(got[2]) == len(want[2])
    assert set(got[2]) == set(want[2])


@settings(deadline=None, derandomize=True, max_examples=300)
@given(
    _sorted_targets,
    st.sampled_from([1, 3, 64]),
    st.sampled_from([None, F(1), F(2), F(1, 2), F(3, 2)]),
    st.data(),
)
def test_sorted_source_matches_signed_box_one_column(xi, bits, w, data):
    # the same oracle on a box of one column with one row per coordinate
    # of a prefix of xi: the shape of psi_simultaneous and, with weights,
    # of simultaneous_badness_min
    rows = [_scan_row((x,)) for x in xi[: data.draw(st.integers(1, len(xi)))]]
    caps = [data.draw(st.integers(0, 60))]
    table, scale = _scaled_rows(rows, bits)
    want = _scan(signed_box(caps), table, scale, w)
    got = _scan(_sorted_box(caps, table, scale, w), table, scale, w)
    assert got[:2] == want[:2]
    assert len(got[2]) == len(want[2])
    assert set(got[2]) == set(want[2])


def _one_column_case(data):
    scale = data.draw(st.one_of(
        st.just(1), st.integers(2, 10**4), st.sampled_from([2**64, 2**128])
    ))
    # a multiple of scale // g has period at most g, often below c
    g = data.draw(st.integers(1, 60))
    a = data.draw(st.one_of(
        st.just(0),
        st.just(scale - 1),
        st.integers(0, scale - 1),
        st.integers(0, g).map(lambda k: k * (scale // g)),
    ))
    # an enclosure's lower end need not lie in [0, scale)
    return a + data.draw(st.integers(-2, 2)) * scale, scale


@settings(deadline=None, derandomize=True, max_examples=300)
@given(st.data(), st.integers(1, 2000))
def test_one_column_walk_is_the_sorted_circle(data, c):
    # with the running bound at infinity the source yields each v in
    # 1..c once, in nondecreasing circular distance of v*a from 0
    a, scale = _one_column_case(data)
    source = _sorted_box([c], [[(a, a)]], scale)
    got = [v for (v,) in source(lambda: math.inf)]
    assert sorted(got) == list(range(1, c + 1))
    dists = [min(v * a % scale, -v * a % scale) for v in got]
    assert dists == sorted(dists)


# -- lattice candidate source ------------------------------------------


def _lattice_scan(caps, table, scale):
    """_scan fed by the lattice source of any size with no cap, or None
    for a box of fewer than two nonzero caps, which it never takes."""
    with mock.patch.object(lattice, "MIN_PREFIXES", 0):
        source = lattice.box_source(caps, table[0], scale, 10**18)
    return source and _scan(source, table, scale)


def _rational_targets(low, high, dims):
    """Tuples of dims coordinates a/d in [0, 1), each of denominator d
    in [low, high] in lowest terms."""
    den = st.integers(low, high)
    x = den.flatmap(lambda d: st.integers(0, d - 1).map(lambda a: (a, d)))
    x = x.filter(lambda ad: math.gcd(*ad) == 1).map(lambda ad: F(*ad))
    return dims.flatmap(lambda n: st.lists(x, min_size=n, max_size=n).map(tuple))


@settings(deadline=None, derandomize=True, max_examples=400)
@given(
    st.one_of(_sorted_targets, _rational_targets(1, 10**6, st.integers(2, 4))),
    st.sampled_from([None, F(1, 3), "sqrt2"]),
    st.sampled_from([3, 64, 128]),
    st.data(),
)
def test_lattice_source_matches_signed_box(xi, second, bits, data):
    # the oracle of the sorted source: the same minimum, both ends, and
    # the same pool as a set, each vector once
    n = len(xi)
    cap = st.integers(0, 9 if n == 2 else 4)
    caps = data.draw(st.lists(cap, min_size=n, max_size=n))
    rows = [_scan_row(xi)]
    if second is not None:
        rows.append(_scan_row((second,) * n))
    table, scale = _scaled_rows(rows, bits)
    got = _lattice_scan(caps, table, scale)
    if got is None:
        assert sum(map(bool, caps)) < 2
        return
    want = _scan(signed_box(caps), table, scale)
    assert got[:2] == want[:2]
    assert len(got[2]) == len(want[2])
    assert set(got[2]) == set(want[2])


_mid_size_targets = st.one_of(
    st.sampled_from([
        ("sqrt2", "cbrt2"),
        ("cbrt2", "cbrt2"),
        ("sqrt2", "cbrt2", "alg:-3,0,1:1,2"),
        ("sqrt2", F(1, 3)),
    ]),
    _rational_targets(10**3, 10**6, st.integers(2, 3)),
)


def _mid_size_box(xi, data):
    n = len(xi)
    cap = st.integers(0, 2500 if n == 2 else 70)
    return data.draw(st.lists(cap, min_size=n, max_size=n))


@settings(deadline=None, derandomize=True, max_examples=120)
@given(_mid_size_targets, st.sampled_from([64, 128]), st.data())
def test_lattice_source_matches_the_sorted_walk_on_mid_size_boxes(xi, bits, data):
    caps = _mid_size_box(xi, data)
    table, scale = _scaled_rows([_scan_row(xi)], bits)
    got = _lattice_scan(caps, table, scale)
    if got is None:
        assert sum(map(bool, caps)) < 2
        return
    want = _scan(_sorted_box(caps, table, scale), table, scale)
    assert got[:2] == want[:2]
    assert len(got[2]) == len(want[2])
    assert set(got[2]) == set(want[2])


@settings(deadline=None, derandomize=True, max_examples=120)
@given(_mid_size_targets, st.sampled_from([64, 128]), st.integers(0, 50), st.data())
def test_a_capped_race_starts_over_on_the_sorted_walk(xi, bits, cap, data):
    # with the walk's charge cut to cap, most races stop part way and
    # the box is scanned again from nothing: the same minimum, both ends,
    # and the same pool as a set, each vector once
    caps = _mid_size_box(xi, data)
    table, scale = _scaled_rows([_scan_row(xi)], bits)
    with mock.patch.object(lattice, "MIN_PREFIXES", 0), \
            mock.patch.object(engine, "_scan_work", lambda caps: cap):
        got = engine._box_scan(caps, table, scale)
    want = _scan(_sorted_box(caps, table, scale), table, scale)
    assert got[:2] == want[:2]
    assert len(got[2]) == len(want[2])
    assert set(got[2]) == set(want[2])


def _sup_spot_box():
    """The 6-step sup certificate's spot box at t = 2187: its caps, and
    the 128-bit table and scale of the last step's midpoint, a point of
    denominator 3**k."""
    thirds = DigitSystem(3, (0, 2))
    cert = construct(ConstructionSpec(
        ProductSet((thirds, thirds)), SUP_NORM, PhiSpec("pow", exponent=F(5)), 6
    ))
    midpoint = [c.midpoint() for c in cert.steps[-1].cylinders]
    return (2187, 2187), [_fixed_pairs(midpoint, 128)], 2**128


def _coordinates_tried(scan):
    """scan(), and the coordinates lattice.ball tried in it, counted by a
    line trace on the one statement that sets a coordinate."""
    lines, first = inspect.getsourcelines(lattice.ball)
    target = first + next(i for i, s in enumerate(lines) if s.strip() == "y[i] = v")
    tried = 0

    def trace(frame, event, arg):
        nonlocal tried
        if event == "line" and frame.f_lineno == target and frame.f_code.co_name == "level":
            tried += 1
        return trace

    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        out = scan()
    except lattice.Capped:
        out = lattice.Capped
    finally:
        sys.settrace(outer)
    return out, tried


def test_a_capped_source_tries_at_most_its_cap():
    caps, table, scale = _sup_spot_box()

    def scan(cap):
        source = lattice.box_source(caps, table[0], scale, cap)
        return _coordinates_tried(lambda: _scan(source, table, scale))

    want, total = scan(10**18)
    assert want[:2] == _scan(_sorted_box(caps, table, scale), table, scale)[:2]
    for cap in (0, 1, total // 2, total - 1):
        got, tried = scan(cap)
        assert got is lattice.Capped and tried <= cap
    assert scan(total) == (want, total)


def test_the_chooser_decisions_on_pinned_boxes():
    # the 6-step sup certificate's spot box at t = 2187: its worst-case
    # node bound is about 12 times its 2188 prefixes, but the lattice
    # finishes under the walk's charge of 6563 steps in a few dozen
    # coordinates
    caps, table, scale = _sup_spot_box()
    source = lattice.box_source(caps, table[0], scale, engine._scan_work(caps))
    want = _scan(_sorted_box(caps, table, scale), table, scale)
    assert source is not None and _scan(source, table, scale)[:2] == want[:2]
    # a box of at most MIN_PREFIXES = 200 prefixes takes no reduction
    pairs = _fixed_pairs(_scan_row(("sqrt2", "cbrt2", "alg:-3,0,1:1,2")), 64)
    assert lattice.box_source((199, 5000), pairs[:2], 2**64, 10**7) is None
    assert lattice.box_source((9, 9, 5000), pairs, 2**64, 10**7) is None
    assert lattice.box_source((200, 5000), pairs[:2], 2**64, 10**7) is not None
    assert lattice.box_source((10, 10, 5000), pairs, 2**64, 10**7) is not None
    # psi at n = 3 and t = 30 takes the lattice, weighted keys never
    # ask, and a box of one column is declined
    chosen, real = [], lattice.box_source

    def spy(*args):
        chosen.append(real(*args))
        return chosen[-1]

    with mock.patch.object(engine, "box_source", spy):
        psi(SUP_NORM, ("sqrt2", "cbrt2", "alg:-3,0,1:1,2"), 30)
        assert chosen and all(chosen)
        chosen.clear()
        badness_infimum(AffineSubspaceSpec(("0",), (("cbrt2",),)), 300)
        assert not chosen
        psi_simultaneous(("sqrt2", "cbrt2"), 1000)
        assert chosen and not any(chosen)


def test_lattice_scans_answer_big_boxes_in_time():
    # the sorted walk took 17.6 s and 11.1 s (162 MiB) on these boxes;
    # the lattice enumerates a few dozen points of each
    code = (
        "import time\n"
        "from singvec import SUP_NORM, psi\n"
        "t0 = time.perf_counter()\n"
        "three = psi(SUP_NORM, ('sqrt2', 'cbrt2', 'alg:-3,0,0,1:1,2'), 2000)[1]\n"
        "t1 = time.perf_counter()\n"
        "two = psi(SUP_NORM, ('sqrt2', 'cbrt2'), 10**6)[1]\n"
        "t2 = time.perf_counter()\n"
        "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
        "print(three, two, t1 - t0, t2 - t1, int(status.split()[0]) / 1024)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    three, two, three_s, two_s, rss = out.stdout.replace(", ", ",").split()
    assert ast.literal_eval(three) == (160, -1839, 836)
    assert ast.literal_eval(two) == (726660, -97185)
    assert float(three_s) < 1 and float(two_s) < 1 and float(rss) < 50


@pytest.mark.parametrize(
    "norm, t, last",
    [
        ("SUP_NORM", "10**6", (726660, -97185)),
        ("NormSpec('weighted', (F(1, 3), F(2, 3)))", "10**5", (474, 1439355)),
    ],
    ids=["sup", "weighted"],
)
def test_records_answer_past_the_lattice_threshold_in_time(norm, t, last):
    # each small record box below a lattice box sorts only its own
    # column; one sort of the top cap's column, filtered for every box,
    # took 7.1 s (133 MiB) and 59 s (555 MiB) on these calls
    code = (
        "import time\n"
        "from fractions import Fraction as F\n"
        "from singvec import NormSpec, SUP_NORM, record_sequence\n"
        "t0 = time.perf_counter()\n"
        f"seq = record_sequence({norm}, ('sqrt2', 'cbrt2'), {t})\n"
        "t1 = time.perf_counter()\n"
        "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
        "print(seq.entries[-1].witness, t1 - t0, int(status.split()[0]) / 1024)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=20,
    )
    assert out.returncode == 0, out.stderr
    witness, records_s, rss = out.stdout.replace(", ", ",").split()
    assert ast.literal_eval(witness) == last
    assert float(records_s) < 1 and float(rss) < 50


def test_one_column_scans_answer_at_any_height_in_time():
    # the n = 1 records are the convergent denominators of sqrt2, the
    # Pell numbers q' = 2q + q'', and the simultaneous minimum's witness
    # is fixed; each call walks a few neighbours of 0, not 10**6 keys
    code = (
        "import time\n"
        "from singvec import SUP_NORM, psi_simultaneous, record_sequence\n"
        "t0 = time.perf_counter()\n"
        "seq = record_sequence(SUP_NORM, ('sqrt2',), 10**6)\n"
        "t1 = time.perf_counter()\n"
        "_, q = psi_simultaneous(('sqrt2', 'cbrt2'), 10**6)\n"
        "t2 = time.perf_counter()\n"
        "print([e.witness for e in seq.entries], q, t1 - t0, t2 - t1)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    witnesses, q, records_s, simultaneous_s = out.stdout.rsplit(" ", 3)
    pell = [1, 2]
    while pell[-1] * 2 + pell[-2] <= 10**6:
        pell.append(pell[-1] * 2 + pell[-2])
    assert len(pell) == 16
    assert ast.literal_eval(witnesses) == [(p,) for p in pell]
    assert int(q) == 219382
    assert float(records_s) < 1 and float(simultaneous_s) < 1


def test_sorted_source_scans_a_big_box_in_time():
    # a scan of all 2 * 10**10 vectors would never finish in the timeout
    code = (
        "from singvec import SUP_NORM, psi\n"
        "print(psi(SUP_NORM, ('sqrt2', 'cbrt2'), 10**5)[1])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    q = ast.literal_eval(out.stdout.strip())
    assert len(q) == 2 and max(abs(c) for c in q) <= 10**5


def test_scan_work_budget():
    with pytest.raises(UsageError, match="over budget"):
        engine._height_caps(SUP_NORM, 2, 10**40)
    with pytest.raises(UsageError, match="over budget"):
        psi(SUP_NORM, ("sqrt2", "cbrt2"), 10**40)
    with pytest.raises(UsageError, match="over budget"):
        record_sequence(SUP_NORM, ("sqrt2", "cbrt2"), 10**40)
    with pytest.raises(UsageError, match="over budget"):
        psi_simultaneous(("sqrt2",), 10**40)
    # the sorted source walks prefixes and one sorted column; one column
    # is charged c + 1, a bound on the box and not on its walk
    assert engine._height_caps(SUP_NORM, 2, 10**6) == (10**6, 10**6)
    assert engine._height_caps(SUP_NORM, 1, 10**7 - 1) == (10**7 - 1,)
    with pytest.raises(UsageError, match="over budget"):
        engine._height_caps(SUP_NORM, 1, 10**7)


_LINE = AffineSubspaceSpec(("0",), (("cbrt2",),))


@pytest.mark.parametrize(
    "scan",
    [
        lambda t: psi(SUP_NORM, ("sqrt2", "cbrt2"), t),
        lambda t: psi_enclosure(SUP_NORM, ("sqrt2", "cbrt2"), t),
        lambda t: record_sequence(SUP_NORM, ("sqrt2", "cbrt2"), t),
        lambda t: psi_simultaneous(("sqrt2", "cbrt2"), t),
        lambda t: dirichlet_check(("sqrt2", "cbrt2"), t, "dual"),
        lambda t: dirichlet_check(("sqrt2", "cbrt2"), t, "simultaneous"),
        lambda t: badness_infimum(_LINE, t),
        lambda t: simultaneous_badness_min(("sqrt2",), F(1, 2), t),
        lambda t: lower_bound_check(_LINE, ("cbrt2",), t, F(1, 1000)),
    ],
    ids=["psi", "psi_enclosure", "records", "simultaneous", "dirichlet-dual",
         "dirichlet-simultaneous", "badness", "simultaneous-badness",
         "lower-bound"],
)
def test_every_scan_is_admitted_by_one_rule(monkeypatch, scan):
    # _height_caps sizes, empties and charges every scan's box, before
    # either source is asked for a candidate
    def no_source(*args, **kwargs):
        raise AssertionError("a source ran before the box was admitted")

    monkeypatch.setattr(engine, "_box_scan", no_source)
    monkeypatch.setattr(engine, "_sorted_box", no_source)
    for t in (10**7, 10**8, 10**40):
        with pytest.raises(UsageError, match="over budget"):
            scan(t)
    for t in (0, F(1, 2)):
        with pytest.raises(EmptyRange, match=(
                f"^no nonzero integer vector has height <= {t}$")):
            scan(t)


def test_height_is_sized_before_any_cap(monkeypatch):
    # the caps of 10**1000 would be the powers t**(19998/10000) and
    # t**(2/10000): the size of t alone puts the scan over budget
    made = []
    monkeypatch.setattr(engine, "power_floor", lambda t, e: made.append(t))
    norm = NormSpec("weighted", (F(9999, 10000), F(1, 10000)))
    for call in (psi, psi_enclosure, record_sequence):
        with pytest.raises(UsageError, match="over budget: .* past 10000000 steps$"):
            call(norm, ("sqrt2", "cbrt2"), 10**1000)
    assert made == []


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([SUP_NORM, W23, NormSpec("weighted", (F(1, 4), F(3, 4)))]),
    st.fractions(min_value=1, max_value=2**40, max_denominator=2**12),
)
@example(SUP_NORM, F(2**24 - 1))
@example(SUP_NORM, F(2**24))
@example(W23, F(2**18))
def test_height_size_rule_refuses_only_over_budget_caps(norm, t):
    # _height_caps refuses a t by its size alone only where the caps
    # themselves are over budget
    def refused(check, *args):
        try:
            check(*args)
        except UsageError:
            return True
        return False

    caps = norm.coordinate_caps(t, 2)
    caps_refused = engine._scan_work(caps) > engine.MAX_SCAN_WORK
    assert refused(engine._height_caps, norm, 2, t) == caps_refused


def test_weight_height_exponents_are_budgeted():
    # 1/(2 * 9999999/10000000) = 5000000/9999999: phi would make powers
    # of |q_j| with that exponent, and caps with its inverse
    with pytest.raises(UsageError, match="weight 9999999/10000000: height "
                       "exponent 5000000/9999999 is over budget"):
        NormSpec("weighted", (F(9999999, 10**7), F(1, 10**7)))
    # phi would raise |q_1| to the power 40000 before its square root
    with pytest.raises(UsageError, match="weight 1/40000: height exponent 20000 "):
        NormSpec.parse("weighted:1/40000,39999/40000")
    # exponents 5000/9999 and 5000, and 100/101 and 100/99, are inside it
    norm = NormSpec("weighted", (F(9999, 10000), F(1, 10000)))
    assert psi(norm, ("sqrt2", "cbrt2"), 30)[1] == (38, 1)
    norm = NormSpec("weighted", (F(101, 200), F(99, 200)))
    assert record_sequence(norm, ("sqrt2", "cbrt2"), 300).entries


def test_psi_enclosure_needs_a_bit():
    # the value is 3 - 2 * sqrt2 = 0.17157...; at scale 1 the tent
    # function has no room and the enclosure would read [0, 0]
    iv = psi_enclosure(SUP_NORM, ("sqrt2",), 3, bits=1)
    assert iv.lo <= F(1715, 10000) and iv.hi >= F(1716, 10000)
    for bits in (0, -1):
        with pytest.raises(UsageError):
            psi_enclosure(SUP_NORM, ("sqrt2",), 3, bits=bits)
