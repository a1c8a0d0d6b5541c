"""Minimal-distance engine: exact rational paths, rigorous enclosures,
records, affine families, weighted scans."""
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singvec import (
    SUP_NORM,
    AffineSubspaceSpec,
    DegenerateRecord,
    EmptyRange,
    NormSpec,
    PowerValue,
    RatInterval,
    RecordEntry,
    RecordSequence,
    UsageError,
    badness_infimum,
    dirichlet_check,
    dirichlet_suite,
    exponent_estimate,
    lift_affine,
    lower_bound_check,
    power_floor,
    psi,
    psi_enclosure,
    psi_simultaneous,
    record_sequence,
    signed_box,
    simultaneous_badness_min,
    witness_key,
)
from singvec.engine import _dual_staircase, _height_key

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
    exact = PowerValue(m, w).mul_fraction(d).as_fraction() if d else F(0)
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


@pytest.mark.parametrize("n,cap", [(2, 9), (3, 5), (4, 3)])
def test_dual_staircase_matches_brute_force(n, cap):
    rng = random.Random(n * 100 + cap)
    for _ in range(6):
        den = rng.randrange(11, 300)
        nums = [rng.randrange(0, den) for _ in range(n)]
        want = [den] * (cap + 1)
        for q in itertools.product(range(-cap, cap + 1), repeat=n):
            if not any(q):
                continue
            r = sum(c * a for c, a in zip(q, nums)) % den
            m = max(abs(c) for c in q)
            want[m] = min(want[m], r, den - r)
        assert _dual_staircase(nums, den, cap) == want


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


def _phi_power(weights, q):
    """phi(q)**(n*L) for weights a_j/b_j and L = lcm(a_j), as an integer:
    max_j |q_j|**(L*b_j/a_j)."""
    big_l = math.lcm(*(s.numerator for s in weights))
    return max(
        abs(c) ** (big_l * s.denominator // s.numerator)
        for c, s in zip(q, weights)
    )


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
    big_l = math.lcm(*(s.numerator for s in weights))
    kq, kr = _phi_power(weights, q), _phi_power(weights, r)
    assert norm.phi(q).pow(n * big_l) == kq
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
    q = data.draw(st.tuples(*[st.integers(-40, 40)] * len(weights)).filter(any))
    assert _height_key(NormSpec("weighted", weights))(q) == _phi_power(weights, q)
    assert _height_key(SUP_NORM)(q) == max(abs(c) for c in q)
