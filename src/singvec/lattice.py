"""Lattice candidate source for box scans of two or more columns.

A scan of signed_box(caps) needs every q whose row-0 form u(q) =
sum_j q_j A_j comes within R of a multiple of the scale, for a radius R
set by the running minimum.  Those q are the short points of the
lattice of (q, u(q) - k * scale), k an integer, under the quadratic
form sum_j (R L / c_j)**2 q_j**2 + L**2 t**2, L = lcm(c_j): the box
|q_j| <= c_j times the slab |t| <= R lies in its ball of squared radius
(m + 1) (R L)**2.  By Dirichlet's theorem that ball holds O(1) points
once R is near scale / prod(c_j + 1), while the sorted walk visits
every prefix of the box.

reduce is Cohen's integral LLL (A Course in Computational Algebraic
Number Theory, Alg. 2.6.7): it keeps the Gram-Schmidt data as integers,
d[i] the Gram determinant of the first i basis vectors and lam[k][j] =
d[j + 1] * mu_kj.  ball is Fincke-Pohst enumeration on the same
integers: with E the Gram determinant d[i + 1] times the squared length
of the part of x above level i, the level-i coordinate y of x meets
(d[i + 1] y + sum_k lam[k][i] y_k)**2 <= d[i] (d[i + 1] bound - E), and
the next E is exact: (d[i] E + N**2) / d[i + 1].  No decision is made
on a float.

box_source races the sorted walk rather than ask a node bound, which is
loosest on the near-rational points certificates are built on: its
balls count every coordinate they try and raise Capped past the walk's
own charge, and engine._box_scan then starts over on the walk.
"""
from __future__ import annotations

import math
from itertools import count

# Boxes with at most this many prefixes take the sorted walk without a
# reduction: the reduction alone costs about as much as their walk.
MIN_PREFIXES = 200
# The Lovasz constant 3/4 of Cohen's algorithm.
_DELTA = (3, 4)


class Capped(Exception):
    """A box_source tried its cap of coordinates without finishing."""


def reduce(basis, weights):
    """LLL-reduce integer basis vectors under the form sum_i weights[i]
    x_i y_i.  Returns the reduced basis and its integers d and lam."""
    b = [list(v) for v in basis]
    n = len(b)

    def dot(x, y):
        return sum(w * p * q for w, p, q in zip(weights, x, y))

    d = [1, dot(b[0], b[0])] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]

    def size_reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            r = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - r * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= r * d[l + 1]
            for i in range(l):
                lam[k][i] -= r * lam[l][i]

    k, top = 1, 0
    num, den = _DELTA
    while k < n:
        if k > top:
            top = k
            for j in range(k + 1):
                u = dot(b[k], b[j])
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k + 1] = u
        size_reduce(k, k - 1)
        lm = lam[k][k - 1]
        if den * d[k + 1] * d[k - 1] < num * d[k] ** 2 - den * lm * lm:
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            new = (d[k - 1] * d[k + 1] + lm * lm) // d[k]
            for i in range(k + 1, top + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lm * t) // d[k]
                lam[i][k - 1] = (new * t + lm * lam[i][k]) // d[k + 1]
            d[k] = new
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return b, d, lam


def ball(basis, d, lam, bound, tries=None):
    """Each nonzero x = sum_i y_i basis[i] of squared length at most
    bound, one of each pair x, -x, from the data of reduce.  Each
    coordinate tried takes an item of the iterator tries, unbounded by
    default; past its end ball raises Capped."""
    tries = count() if tries is None else tries
    n = len(basis)
    y = [0] * n

    def level(i, e, x, upper_zero):
        c = sum(lam[k][i] * y[k] for k in range(i + 1, n))
        s = math.isqrt(d[i] * (d[i + 1] * bound - e))
        lo, hi = -((s + c) // d[i + 1]), (s - c) // d[i + 1]
        for v in range(max(lo, 0) if upper_zero else lo, hi + 1):
            if next(tries, None) is None:
                raise Capped
            y[i] = v
            z = [p + v * q for p, q in zip(x, basis[i])]
            if i:
                big = d[i + 1] * v + c
                e2 = (d[i] * e + big * big) // d[i + 1]
                yield from level(i - 1, e2, z, upper_zero and not v)
            elif v or not upper_zero:
                yield z

    return level(n - 1, 0, [0] * len(basis[0]), True)


def _reduced(basis, caps, radius):
    """reduce under the form whose ball holds the box of caps times the
    slab of radius, and that ball's squared radius."""
    big_l = math.lcm(*caps)
    weights = [(radius * big_l // c) ** 2 for c in caps] + [big_l**2]
    bound = (len(caps) + 1) * (radius * big_l) ** 2
    return (*reduce(basis, weights), bound)


def box_source(caps, pairs, scale, cap):
    """A candidate source for engine._scan over signed_box(caps) with
    row 0 of its table the enclosures pairs, or None for a box of under
    two nonzero caps or at most MIN_PREFIXES prefixes.  The source raises
    Capped rather than try more than cap coordinates, counted over all
    its balls and reductions.

    A vector's scaled interval holds u(q) and is no wider than slack =
    sum_j c_j (B_j - A_j), so one whose lower end reaches min_hi has u(q)
    within min_hi + slack of a multiple of the scale.  Two of the N =
    prod(c_j + 1) vectors 0 <= q_j <= c_j have u within scale / N of
    each other, and their difference puts the final min_hi at most
    scale // (N - 1) + slack: the first radius is that plus slack, plus
    1.  The source yields each in-box point of the ball once.  Once the
    running min_hi + slack + 1 is under half the radius it reduces again
    at that radius; after a whole ball it stops if min_hi + slack is
    within the radius, else goes on at that radius, which only a second
    row can need."""
    cols = [j for j, c in enumerate(caps) if c]
    prefixes = (math.prod(2 * c + 1 for c in caps[:-1]) + 1) // 2
    if len(cols) < 2 or prefixes <= MIN_PREFIXES:
        return None
    cs = [caps[j] for j in cols]
    m = len(cs)
    slack = sum(c * (pairs[j][1] - pairs[j][0]) for j, c in zip(cols, cs))
    radius = scale // (math.prod(c + 1 for c in cs) - 1) + 2 * slack + 1
    basis = [[int(i == j) for i in range(m)] + [pairs[col][0] % scale]
             for j, col in enumerate(cols)] + [[0] * m + [scale]]

    def source(running):
        seen, tries = set(), iter(range(cap))
        r, reduced = radius, _reduced(basis, cs, radius)
        while True:
            for x in ball(*reduced, tries):
                if any(abs(v) > c for v, c in zip(x, cs)) or not any(x[:m]):
                    continue
                sign = 1 if next(v for v in x if v) > 0 else -1
                it = iter(x)
                q = tuple(sign * next(it) if c else 0 for c in caps)
                if q in seen:
                    continue
                seen.add(q)
                yield q
                nxt = running() + slack + 1
                if 2 * nxt < r:
                    break
            else:
                nxt = running() + slack
                if nxt <= r:
                    return
            r = nxt
            reduced = _reduced(reduced[0], cs, r)

    return source
