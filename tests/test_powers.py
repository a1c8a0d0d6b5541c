"""Exact coef * base**exp values: normalization, comparisons,
enclosures, integer roots."""
import itertools
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from singvec import PowerValue, iroot, powers
from singvec.powers import _IROOT_LEAF_BITS, _is_perfect_power, _witnesses, exceeds

from helpers import contains_interval, digit_limit

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


# Root sizes around the leaf, where iroot starts recursing on the top
# bits, and around its doubles, where the recursion gets one level deeper.
ROOT_BITS = [
    (_IROOT_LEAF_BITS << j) + d for j in range(4) for d in (-1, 0, 1)
]


@settings(deadline=None, derandomize=True, max_examples=200)
@given(
    st.integers(min_value=2, max_value=7),
    st.sampled_from(ROOT_BITS) | st.integers(min_value=1, max_value=40_000 // 2),
    st.randoms(use_true_random=False),
    st.sampled_from([-1, 0, 1, None]),
)
@example(3, 40_000 // 3, random.Random(0), -1)
@example(7, 40_000 // 7, random.Random(0), None)
def test_iroot_is_floor_root_on_big_radicands(k, root_bits, rnd, offset):
    # offset None draws a radicand of k * root_bits bits (capped at 40k);
    # otherwise the radicand is an exact power r**k moved by offset
    if offset is None:
        bits = min(k * root_bits, 40_000)
        n = rnd.getrandbits(bits) | 1 << (bits - 1)
    else:
        root = rnd.getrandbits(root_bits) | 1 << (root_bits - 1)
        n = root**k + offset
    r = iroot(n, k)
    assert r**k <= n < (r + 1) ** k
    if offset == 0:
        assert r == root


@st.composite
def radicands(draw):
    """(k, n, r): n up to 2**20000, r its k-th root when n is r**k or
    r**k +- 1, else None."""
    k = draw(st.integers(min_value=3, max_value=12) | st.sampled_from((9999, 10000)))
    offset = draw(st.sampled_from((-1, 0, 1, None)))
    if offset is None:
        return k, draw(st.integers(min_value=0, max_value=2**20000)), None
    root = draw(st.integers(min_value=1, max_value=2 ** max(1, 20000 // k)))
    return k, root**k + offset, root


@settings(deadline=None, derandomize=True, max_examples=200)
@given(radicands())
@example((10000, 99999**10000, 99999))  # a start a power of two up took 8.7 s
@example((10000, 2**10000 - 1, 2))
def test_iroot_is_floor_root_for_any_order(case):
    k, n, root = case
    r = iroot(n, k)
    assert r**k <= n < (r + 1) ** k
    if root is not None:
        assert r == (root if root**k <= n else root - 1)


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


def root_rule(base: Fraction, exp: Fraction, coef: Fraction) -> Fraction | None:
    """coef * base**exp when it is rational, else None, by the direct
    rule: a c-th root of the base's numerator and of its denominator,
    c the exponent's denominator."""
    c = exp.denominator
    p, q = iroot(base.numerator, c), iroot(base.denominator, c)
    if p**c != base.numerator or q**c != base.denominator:
        return None
    return coef * Fraction(p, q) ** exp.numerator


def kept_triple(base: Fraction, exp: Fraction, coef: Fraction):
    """(coef, base, exp) of an irrational value as written: its base
    turned above 1."""
    return (coef, base, exp) if base > 1 else (coef, 1 / base, -exp)


@settings(deadline=None, derandomize=True, max_examples=400)
@given(
    st.integers(min_value=1, max_value=12),  # c, the exponent's denominator
    st.integers(min_value=-9, max_value=9),  # the exponent's numerator
    st.integers(min_value=1, max_value=30),  # r and s: bases r**c*u / s**c*v
    st.integers(min_value=1, max_value=30),
    st.sampled_from([1, 1, 1, 2, 3, 6, 12, 2**64 + 1]),  # u and v
    st.sampled_from([1, 1, 2, 5, 10]),
    st.fractions(min_value=Fraction(1, 50), max_value=50).filter(lambda f: f > 0),
)
@example(2, 1, 2, 1, 1, 1, Fraction(1))  # 4**(1/2)
@example(3, -2, 3, 2, 1, 1, Fraction(5, 7))  # (27/8)**(-2/3)
@example(6, 5, 1, 1, 2, 1, Fraction(1))  # 2**(5/6)
def test_rational_values_have_one_form(c, a, r, s, u, v, coef):
    base = Fraction(r**c * u, s**c * v)
    exp = Fraction(a, c)
    value = PowerValue(base, exp, coef)
    want = root_rule(base, exp, coef)
    assert value.as_fraction() == want
    rational = value.exp == 0 and value.base == 1
    assert rational == (want is not None)
    if rational:
        # spelled otherwise, one triple: the value as its coefficient
        for other in (
            PowerValue(want),
            PowerValue(base**2, exp / 2, coef),
            PowerValue(want**c, Fraction(1, c)),
            PowerValue(base, exp * c, coef**c).pow(Fraction(1, c)),
        ):
            assert (other.coef, other.base, other.exp) == (want, 1, 0)
    else:
        assert (value.coef, value.base, value.exp) == kept_triple(base, exp, coef)


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


def exact_cmp(a: PowerValue, b: PowerValue) -> int:
    """Order by raising both sides to the lcm of the exponent
    denominators: no float anywhere."""
    m = math.lcm(a.exp.denominator, b.exp.denominator)
    lhs = a.coef**m * a.base ** int(a.exp * m)
    rhs = b.coef**m * b.base ** int(b.exp * m)
    return (lhs > rhs) - (lhs < rhs)


small_exp = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6
)
positive = st.fractions(
    min_value=Fraction(1, 10**6), max_value=Fraction(10**6), max_denominator=10**6
)
huge_base = st.integers(min_value=2, max_value=2**2000)


@st.composite
def power_pairs(draw):
    """Two values that are unrelated, equal but written two ways, a
    near-tie a relative 10**-k apart, or built on huge bases."""
    kind = draw(st.sampled_from(["free", "equal", "near", "huge"]))
    base = draw(huge_base if kind == "huge" else positive)
    a = PowerValue(base, draw(small_exp), draw(positive))
    if kind == "free":
        return a, PowerValue(draw(positive), draw(small_exp), draw(positive))
    if kind == "huge":
        return a, PowerValue(draw(huge_base), draw(small_exp), draw(positive))
    if kind == "equal":
        k = draw(st.integers(min_value=2, max_value=4))
        return a, PowerValue(a.base**k, a.exp / k, a.coef)
    near = 1 + draw(st.sampled_from([1, -1])) * Fraction(
        1, 10 ** draw(st.integers(min_value=8, max_value=60))
    )
    return a, PowerValue(a.base, a.exp, a.coef * near)


@given(power_pairs())
@example((PowerValue(27, Fraction(1, 2)), PowerValue(9, Fraction(3, 4))))
@example((PowerValue(2, Fraction(1, 2)), Fraction(14142135623730951, 10**16)))
@example((PowerValue(10**400, Fraction(1, 3)), PowerValue(10**200, Fraction(2, 3))))
@example((
    PowerValue(10**400 + 1, Fraction(1, 3)),
    PowerValue(10**200, Fraction(2, 3)),
))
def test_comparison_matches_exact_powers(pair):
    a, b = pair
    want = exact_cmp(a, b if isinstance(b, PowerValue) else PowerValue(b))
    assert (a < b, a == b, a > b) == (want < 0, want == 0, want > 0)
    assert (b < a, b == a, b > a) == (want > 0, want == 0, want < 0)


def test_identical_triples_are_equal_before_any_log_or_power(monkeypatch):
    # a pin height at the 15th power is the cost the shortcut skips
    heights = [
        PowerValue(3**5000 + 2, Fraction(1, 15)),
        PowerValue(10**400 + 1, Fraction(2, 3), Fraction(5, 7)),
        PowerValue(Fraction(22, 7)),
    ]
    copies = [PowerValue(h.base, h.exp, h.coef) for h in heights]

    def refuse(self):
        raise AssertionError("identical triples took the float-log path")

    monkeypatch.setattr(PowerValue, "_log_terms", refuse)
    for a, b in zip(heights, copies):
        assert a is not b
        assert a == b and a <= b and a >= b
        assert not (a < b or a > b or a != b)


def test_equal_values_written_apart_take_the_exact_path(monkeypatch):
    taken = []
    log_terms = PowerValue._log_terms

    def spy(self):
        taken.append(self)
        return log_terms(self)

    monkeypatch.setattr(PowerValue, "_log_terms", spy)
    # float logs cannot settle an equality, so reaching them means the
    # exact powers decide; a rational value has one form, so two
    # spellings of it are one triple and reach no log
    assert PowerValue(4, Fraction(1, 2)) == PowerValue(2)
    assert taken == []
    assert PowerValue(9, Fraction(3, 4)) == PowerValue(3, Fraction(3, 2))
    assert PowerValue(2, Fraction(1, 2), 2) == PowerValue(8, Fraction(1, 2))
    assert len(taken) == 4


@given(
    base=st.fractions(min_value=Fraction(1, 10**6), max_value=10**6).filter(
        lambda x: x > 0 and x != 1
    ),
    exp=st.fractions(min_value=-8, max_value=8, max_denominator=30).filter(
        lambda e: e.denominator > 1
    ),
    k=st.integers(min_value=50, max_value=80),
    sign=st.sampled_from([1, -1]),
)
def test_neighbours_an_ulp_apart_still_order(base, exp, k, sign):
    # same base and exponent, coefficients a relative 2**-k apart: float
    # logs cannot tell them apart, the exact powers must
    a = PowerValue(base, exp)
    b = PowerValue(base, exp, 1 + sign * Fraction(1, 2**k))
    assert (a < b, a == b, a > b) == (sign > 0, False, sign < 0)
    assert (b > a, b != a) == (sign > 0, True)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(
    power_pairs(),
    st.sampled_from(["free", "exact", "lo", "hi"]),
    positive,
    st.integers(min_value=8, max_value=200),
    st.sampled_from([1, 6, 3**300 * 2**77]) | st.integers(1, 10**40),
)
@example((PowerValue(2, Fraction(1, 2)), None), "hi", Fraction(1), 60, 7**200)
def test_exceeds_matches_exact_powers(pair, kind, free, bits, g):
    # a ratio unrelated to the value, equal to it, or an end of its
    # enclosure, written over a common factor g
    value = free if kind == "exact" else pair[0]
    ratio = free if kind in ("free", "exact") else getattr(value.enclose(bits), kind)
    assume(ratio > 0)
    power = value if isinstance(value, PowerValue) else PowerValue(value)
    want = exact_cmp(power, PowerValue(ratio)) > 0
    assert exceeds(value, ratio.numerator * g, ratio.denominator * g) == want


def test_equal_values_hash_equal():
    # each group is one value written several ways
    F = Fraction
    groups = [
        # 3^(3/2)
        [PowerValue(27, F(1, 2)), PowerValue(9, F(3, 4)),
         PowerValue(3, F(3, 2)), PowerValue(3, F(1, 2), coef=3)],
        # 2 * 2^(1/2)
        [PowerValue(2, F(1, 2), coef=2), PowerValue(8, F(1, 2)),
         PowerValue(4, F(3, 4)), PowerValue(F(1, 2), F(-3, 2))],
        # 3^(-2/3)
        [PowerValue(3, F(1, 3), coef=F(1, 3)), PowerValue(F(1, 9), F(1, 3)),
         PowerValue(3, F(-2, 3))],
        # 2
        [PowerValue(4, F(1, 2)), PowerValue(8, F(1, 3)), F(2), 2],
        # 2 * 3^(1/9999): an exponent denominator near the certificate
        # budget of 10**4, which an enclosure at 64 bits takes far too
        # long to root
        [PowerValue(3, F(1, 9999), coef=2), PowerValue(2**9999 * 3, F(1, 9999)),
         PowerValue(2**19998 * 9, F(1, 19998))],
    ]
    start = time.perf_counter()
    for group in groups:
        for a, b in itertools.combinations(group, 2):
            assert a == b
            assert hash(a) == hash(b)
        assert len(set(group)) == 1
    assert len({group[0] for group in groups}) == len(groups)
    assert time.perf_counter() - start < 5


@given(
    st.integers(min_value=2, max_value=30),
    st.fractions(
        min_value=Fraction(-3), max_value=Fraction(3), max_denominator=12
    ).filter(lambda e: e.denominator > 1),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=20),
)
def test_hash_follows_value(base, exp, k, coef):
    # base**exp == (base**k)**(exp/k), and coef * base**(1/d) ==
    # (coef**d * base)**(1/d)
    a = PowerValue(base, exp)
    b = PowerValue(base**k, exp / k)
    assert a == b and hash(a) == hash(b)
    d = exp.denominator
    c = PowerValue(base, Fraction(1, d), coef=coef)
    e = PowerValue(coef**d * base, Fraction(1, d))
    assert c == e and hash(c) == hash(e)


def test_pow_and_reciprocal():
    v = PowerValue(8, Fraction(1, 2))
    assert v.pow(Fraction(2, 3)) == PowerValue(8, Fraction(1, 3))
    assert v.pow(2) == 8
    scaled = PowerValue(v.base, v.exp, v.coef * Fraction(3, 7))
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
    assert contains_interval(wide, tight)
    assert tight.width < Fraction(1, 10**18)
    root2 = math.sqrt(2)
    assert float(tight.lo) <= root2 <= float(tight.hi)


def test_log_float():
    huge = PowerValue(10, Fraction(10**6))
    assert huge.log_float() == pytest.approx(10**6 * math.log(10))


def test_str_irrational_form():
    assert str(PowerValue(8, Fraction(1, 2))) == "(8)^(1/2)"
    assert str(PowerValue(8, Fraction(1, 2), coef=Fraction(3, 2))) \
        == "3/2*(8)^(1/2)"


def test_text_needs_no_raised_digit_limit():
    # 3**20000 has 9543 digits, over the interpreter's default guard
    big = 3**20000
    with digit_limit(4300):
        exact = str(PowerValue(Fraction(big)))
        irrational = str(
            PowerValue(big + 1, Fraction(1, 2), coef=Fraction(1, big))
        )
        shown = repr(PowerValue(big + 1, Fraction(1, 2)))
    with digit_limit(0):
        assert exact == str(big)
        assert irrational == f"1/{big}*({big + 1})^(1/2)"
        assert shown == f"PowerValue({big + 1}, 1/2)"


# -- perfect powers, decided by residues before any root -------------------


def euler_passes(n: int, k: int) -> bool:
    """n is a k-th power residue modulo every witness prime it is prime to."""
    return all(n % p == 0 or pow(n, (p - 1) // k, p) == 1 for p in _witnesses(k))


@st.composite
def power_cases(draw):
    """(n, k): r**k, r**k + 1, r**k - 1 or r**k * p for a witness prime
    p or a small prime, k = 2..12 with n up to about 2**20000, or k = 9999
    and 10000, the largest root orders MAX_PHI_EXPONENT admits, over
    the small r whose roots iroot takes at once."""
    k = draw(st.integers(2, 12) | st.sampled_from((9999, 10000)))
    top = 64 if k > 12 else 2 ** (20000 // k)
    r = draw(st.integers(0, top) | st.sampled_from((0, 1, 2, top)))
    p = draw(st.sampled_from(_witnesses(k) + (2, 3, 5, 7)))
    n = draw(st.sampled_from((r**k, r**k + 1, abs(r**k - 1), r**k * p)))
    return n, k


@settings(deadline=None, derandomize=True, max_examples=400)
@given(power_cases())
@example((0, 2))
@example((1, 10000))
@example((3**20000, 2))
@example((2**20000 - 1, 2))
@example((7**10000 * 70001, 10000))  # a witness of 10000 divides n
def test_perfect_power_test_matches_iroot(case):
    n, k = case
    root = iroot(n, k)
    assert _is_perfect_power(n, k) == (root if root**k == n else None)


def test_only_numbers_passing_every_euler_test_reach_iroot(monkeypatch):
    reached = []

    def spy(n, k):
        reached.append((n, k))
        return iroot(n, k)

    monkeypatch.setattr(powers, "iroot", spy)
    cases = [(n, k) for k in (2, 3, 5, 12) for n in range(2000)]
    found = {case for case in cases if _is_perfect_power(*case) is not None}
    assert found == {(r**k, k) for k in (2, 3, 5, 12) for r in range(45) if r**k < 2000}
    assert all(euler_passes(n, k) for n, k in reached)
    # few impostors: about one in 2**8 of the squares, fewer for higher k
    assert len(reached) < 2 * len(found) + 40


def test_import_builds_no_witness_table():
    code = "import singvec.powers as p; print(p._witnesses.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.stdout.strip() == "0", out.stderr
