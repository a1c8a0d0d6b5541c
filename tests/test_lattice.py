"""Integral LLL and Fincke-Pohst enumeration of the lattice source,
checked on integers against a rational Gram-Schmidt and a brute-force
count of the ball."""
import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from singvec.lattice import ball, reduce

F = Fraction


def nodes(d, bound) -> int:
    """A bound on the coordinates ball tries at its last level: the
    product over levels of the most integers a level's range can hold,
    at most 2 sqrt(bound * d[i] / d[i + 1]) wide."""
    return math.prod(
        1 + math.isqrt(4 * bound * d[i] // d[i + 1]) for i in range(len(d) - 1)
    )


def _bases(max_dim=4, entries=30):
    """A square integer basis with nonzero determinant and positive
    weights for its form."""
    def build(n):
        row = st.lists(st.integers(-entries, entries), min_size=n, max_size=n)
        weights = st.lists(st.integers(1, 9), min_size=n, max_size=n)
        return st.tuples(st.lists(row, min_size=n, max_size=n), weights)

    return (
        st.integers(2, max_dim)
        .flatmap(build)
        .filter(lambda bw: _det(bw[0]) != 0)
    )


def _det(rows) -> Fraction:
    m = [[F(x) for x in row] for row in rows]
    n, det = len(m), F(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return F(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _gram_schmidt(rows, weights):
    """Squared lengths B_i and coefficients mu_ij in Fractions."""
    def dot(x, y):
        return sum(w * p * q for w, p, q in zip(weights, x, y))

    stars, lengths, mu = [], [], {}
    for i, row in enumerate(rows):
        v = [F(x) for x in row]
        for j in range(i):
            mu[i, j] = dot(row, stars[j]) / lengths[j]
            v = [a - mu[i, j] * b for a, b in zip(v, stars[j])]
        stars.append(v)
        lengths.append(dot(v, v))
    return lengths, mu


@settings(deadline=None, derandomize=True, max_examples=200)
@given(_bases())
def test_reduce_keeps_the_lattice_and_meets_lll_on_its_integers(case):
    rows, weights = case
    b, d, lam = reduce(rows, weights)
    n = len(rows)
    assert abs(_det(b)) == abs(_det(rows))
    # the integers are those of the reduced basis: d[i] the Gram
    # determinant of its first i vectors, lam[k][j] = d[j + 1] mu_kj
    lengths, mu = _gram_schmidt(b, weights)
    assert d[0] == 1
    for i in range(n):
        assert d[i + 1] == math.prod(lengths[: i + 1])
        for j in range(i):
            assert lam[i][j] == d[j + 1] * mu[i, j]
    for k in range(1, n):
        # size reduction |mu_kj| <= 1/2, and Lovasz at 3/4
        assert all(2 * abs(lam[k][j]) <= d[j + 1] for j in range(k))
        assert 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2


@settings(deadline=None, derandomize=True, max_examples=150)
@given(_bases(entries=6), st.integers(1, 150))
def test_ball_is_the_brute_force_ball(case, bound):
    rows, weights = case
    b, d, lam = reduce(rows, weights)
    got = [tuple(x) for x in ball(b, d, lam, bound)]
    # every x with form at most bound, up to sign, that solves
    # x = sum_i y_i rows[i] in integers
    n = len(rows)
    det = int(_det(rows))
    # y = adjugate . x / det, with the adjugate of the columns in integers
    inverse = _inverse([[F(rows[i][j]) for i in range(n)] for j in range(n)])
    adjugate = [[int(a * det) for a in row] for row in inverse]
    want = set()
    reach = [range(-math.isqrt(bound // w), math.isqrt(bound // w) + 1) for w in weights]
    for x in itertools.product(*reach):
        if not any(x) or sum(w * v * v for w, v in zip(weights, x)) > bound:
            continue
        if all(sum(a * v for a, v in zip(row, x)) % det == 0 for row in adjugate):
            want.add(max(x, tuple(-v for v in x)))
    assert len(got) == len(want)
    assert {max(x, tuple(-v for v in x)) for x in got} == want
    assert len(got) <= nodes(d, bound)


def _inverse(m):
    n = len(m)
    a = [row[:] + [F(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [v / a[c][c] for v in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]
