"""Minimal integer-form distances under height cutoffs.

The central quantity: given a norm-like height Phi on integer vectors
and a real target vector xi, the function psi(t) is the smallest
nearest-integer distance of the dot product q . xi over nonzero integer
q with Phi(q) <= t.  Everything else in the module is built around
evaluating psi exactly (rational targets), enclosing it rigorously
(algebraic targets), walking its record thresholds, and scanning
weighted variants over affine families.

The scans share one scaled-integer kernel.  Each target coordinate x
becomes integers A <= scale * x <= B, and nearest-integer distances are
bounded by exact interval arithmetic on those integers.  A target whose
coordinates are all rational is a zero-width enclosure: the scale is the
lcm of the denominators and A == B, so a single pass is exact and
candidates that tie are real ties, broken by witness_key.  Any
irrational coordinate puts the whole target at scale 2**bits.

Every minimum over candidate vectors is one loop, _scan.  Its pool
keeps each candidate whose lower end reaches the final upper end of the
minimum, since any of them may attain it; the witness is the least
witness_key there.  A candidate whose lower end is above the running
upper end can change nothing and costs one comparison.  So the minimum,
both of its ends and the pool as a set do not depend on which other
candidates are seen, or in which order.

_scan takes a whole box from one of two sources.  The sorted walk,
_sorted_box, walks each prefix of the other columns outward from its
own target through the circular order of the last column's scaled
residues, and visits only the neighbours that can still reach the
running minimum: all prefixes share one sort, and by the three-distance
theorem a box of caps T costs about T**(n-1) log T steps.  A box of one
column sorts nothing: Sos's form of the theorem gives each next residue
from two Farey neighbours of the column's residue over the scale
(exact.circle_order).  By Dirichlet's theorem only O(1) vectors reach
the minimum: an unweighted box of two or more nonzero caps takes them
from an exact LLL and Fincke-Pohst enumeration, lattice.box_source,
past lattice.MIN_PREFIXES prefixes, raced under the walk's own charge;
a race lost starts over on the walk, so the pool holds each q once.
record_sequence takes one box scan per record, from the top.
lower_bound_check and hyperplanes_meeting call the sorted walk with
their running bound held fixed.

The pigeonhole suite checks psi and psi_simultaneous themselves.  They
do not increase with t, so one value settles every threshold up to the
last one its bound holds at, and the suite calls them only past it.

Precision has one rule, _refine: bits double from a start value until
the query is decided; a query still undecided at its cap raises
PrecisionExhausted rather than ever guessing.  psi, records,
psi_simultaneous, dirichlet_check and lower_bound_check go from 64 to
4096 bits; the badness scans go from 64 to 1024 bits and then report
their honest enclosure.

The scans and the bound checks decide on integers, and make a Fraction
or PowerValue only for a value they return or to enclose an irrational
number.  A bound c * x**(-a/b) meets a distance d / scale, d >= 0, by
raising both to the power b: (c.numerator * scale)**b * x.denominator**a
against d**b * x.numerator**a * c.denominator**b.  The weighted scans
order d * m**(a/b), m = |q|_inf, by the same power, the integer key
d**b * m**a, made per candidate from each end of d's enclosure.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from typing import Iterator, Sequence

from .bounds import badness_exponent
from .errors import (
    DegenerateRecord,
    EmptyRange,
    PrecisionExhausted,
    UsageError,
)
from .exact import RatInterval, circle_order, dist_scaled, rat, rat_str, size_str
from .lattice import Capped, box_source
from .powers import PowerValue, _is_perfect_power, iroot
from .realdesc import (
    ExactReal,
    LinearCombinationReal,
    ProductReal,
    RealDescriptor,
    parse_real,
)

_START_BITS = 64
_MAX_BITS = 4096
_DEFAULT_TOL = Fraction(1, 10**30)

# Budgets, checked before anything they bound is made: the steps of one
# scan or plane walk (_height_caps, _scan_work, hyperplanes._check_walk),
# and the numerator and denominator of an exponent a power is made with
# (check_exponent): a pow bound's, a weight's height exponent, a recorded
# power's.
MAX_SCAN_WORK = 10**7
MAX_PHI_EXPONENT = 10**4


def check_exponent(exp: Fraction, error=UsageError) -> Fraction:
    """exp, or error when its numerator or denominator is over budget."""
    if max(abs(exp.numerator), exp.denominator) > MAX_PHI_EXPONENT:
        raise error(f"exponent {rat_str(exp)} is over budget: numerator and "
                    f"denominator must be at most {MAX_PHI_EXPONENT}")
    return exp


# -- heights -----------------------------------------------------------


@dataclass(frozen=True)
class NormSpec:
    """Height function on integer vectors: either the sup norm, or the
    weighted variant (max_j |q_j|**(1/s_j))**(1/n) for positive rational
    weights s summing to 1.  Both are max-type, so the sublevel set
    {Phi(q) <= t} is an axis-aligned box with exactly computable
    integer caps."""

    kind: str
    weights: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if self.kind == "sup":
            if self.weights is not None:
                raise UsageError("sup norm takes no weights")
            return
        if self.kind != "weighted":
            raise UsageError(f"unknown norm kind: {self.kind!r}")
        if not self.weights:
            raise UsageError("weighted norm needs weights")
        ws = tuple(Fraction(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if any(not 0 < w < 1 for w in ws):
            raise UsageError("weights must lie strictly between 0 and 1")
        if sum(ws) != 1:
            raise UsageError("weights must sum to 1")
        for s in ws:  # its height exponent, the power phi raises |q_j| to
            check_exponent(1 / (len(ws) * s), lambda message: UsageError(
                f"weight {rat_str(s)}: height {message}"))

    def check_dim(self, n: int) -> None:
        if self.kind == "weighted" and len(self.weights) != n:
            raise UsageError(
                f"norm has {len(self.weights)} weights but vectors have "
                f"{n} coordinates"
            )

    def coordinate_caps(self, t: Fraction, n: int) -> tuple[int, ...]:
        """Per-coordinate bound T_j such that Phi(q) <= t iff
        |q_j| <= T_j for every j."""
        self.check_dim(n)
        t = Fraction(t)
        if t <= 0:
            return (0,) * n
        if self.kind == "sup":
            cap = t.numerator // t.denominator
            return (cap,) * n
        return tuple(power_floor(t, n * s) for s in self.weights)

    def phi(self, q: Sequence[int]) -> PowerValue:
        """Height of a nonzero integer vector, exact."""
        if all(c == 0 for c in q):
            raise UsageError("height of the zero vector is undefined")
        if self.kind == "sup":
            return PowerValue(max(abs(c) for c in q))
        n = len(q)
        self.check_dim(n)
        # the first greatest (|c|**(1/s))**(1/n), each made in one step in
        # the form certificates record: for s = 1/d, (|c|**d)**(1/n), and
        # for s = m/d, m > 1, |c|**(d/(m*n))
        return max(
            PowerValue(abs(c) ** s.denominator, Fraction(1, n))
            if s.numerator == 1
            else PowerValue(abs(c), Fraction(s.denominator, s.numerator * n))
            for c, s in zip(q, self.weights)
            if c
        )

    def to_json(self) -> dict:
        if self.kind == "sup":
            return {"kind": "sup"}
        return {"kind": "weighted", "weights": [rat_str(w) for w in self.weights]}

    @staticmethod
    def from_json(obj: dict) -> "NormSpec":
        if obj.get("kind") == "sup":
            return NormSpec("sup")
        if obj.get("kind") == "weighted":
            return NormSpec("weighted", tuple(rat(w) for w in obj["weights"]))
        raise UsageError(f"unknown norm kind: {obj.get('kind')!r}")

    @staticmethod
    def parse(text: str) -> "NormSpec":
        text = text.strip()
        if text == "sup":
            return NormSpec("sup")
        if text.startswith("weighted:"):
            parts = text[len("weighted:"):].split(",")
            return NormSpec("weighted", tuple(rat(p) for p in parts))
        raise UsageError(f"cannot parse norm: {text!r}")


SUP_NORM = NormSpec("sup")


def power_floor(t: Fraction, e: Fraction) -> int:
    """Largest integer m >= 0 with m <= t**e, decided by exact
    cross-powering (never by evaluating t**e itself)."""
    t = Fraction(t)
    e = Fraction(e)
    if e <= 0:
        raise UsageError("exponent must be positive")
    if t <= 0:
        return 0
    num, den = e.numerator, e.denominator
    # t**num = P/R, so m <= t**e iff m**den * R <= P iff m**den <= P // R
    return iroot(t.numerator**num // t.denominator**num, den)


# -- candidate vectors -------------------------------------------------


def witness_key(q: Sequence[int]) -> tuple:
    """Deterministic tie-break order on integer vectors: compare
    coordinatewise by absolute value, nonnegative before negative."""
    return tuple((abs(c), 0 if c >= 0 else 1) for c in q)


def signed_box(caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All nonzero integer vectors with |q_j| <= caps[j], one
    representative per antipodal pair (first nonzero coordinate
    positive).  Vectors with more leading zeros come first, each block
    in lexicographic order."""
    n = len(caps)
    for lead in reversed(range(n)):
        yield from product(
            *([(0,)] * lead),
            range(1, caps[lead] + 1),
            *(range(-c, c + 1) for c in caps[lead + 1:]),
        )


def as_descriptor(x) -> RealDescriptor:
    if isinstance(x, RealDescriptor):
        return x
    if isinstance(x, str):
        return parse_real(x)
    return ExactReal(Fraction(x))


# -- scaled-integer distance intervals ---------------------------------


def _refine(step, start: int, cap: int, what: str):
    """The one precision policy.  Call step(bits, last) with bits = start,
    2*start, ... up to the first value at or above cap, where last is
    True; return its first answer other than None.  None on the last
    round raises PrecisionExhausted; a caller with an honest fallback
    (an enclosure, an exact scan) returns it when last is set."""
    bits = start
    while True:
        last = bits >= cap
        out = step(bits, last)
        if out is not None:
            return out
        if last:
            raise PrecisionExhausted(what.format(bits=bits))
        bits *= 2


def _scan_row(xi) -> list:
    """The target vector xi, at least one coordinate, each as its exact
    value when it is rational, else its descriptor: decided once per
    query, so every round of refinement scans the same target."""
    row = []
    for x in xi:
        d = as_descriptor(x)
        v = d.exact_value()
        row.append(d if v is None else v)
    if not row:
        raise UsageError("target vector must have at least one coordinate")
    return row


def _fixed_pairs(row: Sequence, bits: int) -> list[tuple[int, int]]:
    """Integer enclosures (A, B) with A <= 2**bits * x <= B for each
    entry x of a scan row."""
    scale = 1 << bits
    width = Fraction(1, scale)
    out = []
    for x in row:
        if isinstance(x, Fraction):
            lo = hi = x
        else:
            iv = x.enclose(width)
            lo, hi = iv.lo, iv.hi
        a = (lo.numerator * scale) // lo.denominator
        b = -((-hi.numerator * scale) // hi.denominator)
        out.append((a, b))
    return out


def _is_rational(rows: Sequence[Sequence]) -> bool:
    return all(isinstance(x, Fraction) for row in rows for x in row)


def _rational_part(rows: Sequence[Sequence], caps: Sequence[int]):
    """Exact zero is only certifiable on the all-rational columns, so a scan
    takes their sub-box first, exactly: (rows, caps) with every other column
    0, or None when all columns are rational or no rational cap is nonzero."""
    exact = [_is_rational([col]) for col in zip(*rows)]
    caps = [c if ok else 0 for c, ok in zip(caps, exact)]
    if all(exact) or not any(caps):
        return None
    return [[x if ok else Fraction(0) for x, ok in zip(r, exact)] for r in rows], caps


def _scaled_rows(rows: Sequence[Sequence], bits: int) -> tuple[list, int]:
    """Integer enclosures of every entry of the scan rows at one common
    scale, and that scale.  Rows of rational entries are zero-width
    enclosures (A, A) at the lcm of their denominators, whatever bits
    is; anything else is enclosed at scale 2**bits."""
    if not _is_rational(rows):
        return [_fixed_pairs(row, bits) for row in rows], 1 << bits
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    table = []
    for row in rows:
        nums = (x.numerator * (scale // x.denominator) % scale for x in row)
        table.append([(a, a) for a in nums])
    return table, scale


def _dot_range(q: Sequence[int], pairs) -> tuple[int, int]:
    """Exact range of sum_j q_j x_j over the integer pairs (A_j, B_j)."""
    lo = hi = 0
    for c, (a, b) in zip(q, pairs):
        if c > 0:
            lo += c * a
            hi += c * b
        elif c < 0:
            lo += c * b
            hi += c * a
    return lo, hi


def _max_dist(q: Sequence[int], table, scale: int) -> tuple[int, int]:
    """Integer bounds on scale * max_i <row_i . q> from the enclosures
    of _scaled_rows."""
    d_lo = d_hi = 0
    for row in table:
        # _dot_range inlined: calling it per candidate slows scan-exact
        # 2.4% and scan-enclosed 1.0%
        lo = hi = 0
        for c, (a, b) in zip(q, row):
            if c > 0:
                lo += c * a
                hi += c * b
            elif c < 0:
                lo += c * b
                hi += c * a
        a, b = dist_scaled(lo, hi, scale)
        if a > d_lo:
            d_lo = a
        if b > d_hi:
            d_hi = b
    return d_lo, d_hi


def _scan(cands, table, scale: int, w=None) -> tuple[int, int, list]:
    """Integer bounds (min_lo, min_hi) on the least scale * max_i
    <row_i . q> over nonempty cands, and the pool of (lo, hi, q) in
    candidate order, as the module docstring describes.  With an
    exponent w = a/b each candidate's ends d are keyed as d**b * m**a,
    m = |q|_inf: the order of d * m**w, exact for any enclosure since
    x -> x**b is monotone on x >= 0.  cands is an iterable of vectors,
    or a source (_sorted_box, lattice.box_source): a function that takes
    a getter of the running min_hi and returns one."""
    if w is not None:
        a, b = w.numerator, w.denominator
    min_lo = min_hi = math.inf
    pool = []
    if callable(cands):
        cands = cands(lambda: min_hi)
    for q in cands:
        lo, hi = _max_dist(q, table, scale)
        if w is not None:
            weight = max(abs(c) for c in q) ** a
            lo = lo**b * weight
            hi = hi**b * weight
        if lo > min_hi:
            continue
        if lo < min_lo:
            min_lo = lo
        if hi < min_hi:
            min_hi = hi
            pool = [p for p in pool if p[0] <= hi]
        pool.append((lo, hi, q))
    return min_lo, min_hi, pool


def _sorted_box(caps: Sequence[int], table, scale: int, w=None):
    """Candidate source for _scan over signed_box(caps): a superset of
    the vectors whose lower end reaches the final min_hi.

    Take row 0 of the table, (A, B) the enclosure of the last column and
    c its cap.  For a prefix p with scaled interval [p_lo, p_hi], the
    vector (p, v) has a scaled interval that holds u = p_lo + v*A and is
    no wider than slack = (p_hi - p_lo) + c*(B - A).  So its distance
    lower end is at most r only if v*A mod scale lies within r + slack
    of -p_lo mod scale, circularly.  Each prefix walks outward from its
    target in circular order of v*A mod scale, nearest first, and stops
    past r + slack, with r the running min_hi, or under an exponent
    w = a/b the b-th root of min_hi // max(1, |p|_inf)**a, since
    |q|_inf >= |p|_inf.  The max over the rows is at least row 0's
    distance, so row 0 alone sets the window.  Prefixes, the zero one
    taking only v >= 1, share one sort of the 2c + 1 keys
    (v*A mod scale) * (2c + 1) + v + c; one column walks
    exact.circle_order.  Prefixes come in signed_box order, not the v
    within each."""
    *head, c = caps
    pairs = table[0]
    a_last, b_last = pairs[-1]
    tail_slack = c * (b_last - a_last)
    if w is not None:
        a, b = w.numerator, w.denominator

    def radius(bound, floor, slack):
        if bound == math.inf:
            return math.inf
        if w is not None:
            bound = iroot(bound // floor, b)
        return bound + slack

    if not head:
        def walk(running):
            limit = radius(running(), 1, tail_slack)
            for d, v in circle_order(a_last, scale, c):
                if d > limit:
                    break
                yield (v,)
                limit = radius(running(), 1, tail_slack)

        return walk

    width = 2 * c + 1
    keys = sorted((v * a_last % scale) * width + v + c for v in range(-c, c + 1))

    def source(running):
        for p in chain([(0,) * len(head)], signed_box(head)):
            p_lo, p_hi = _dot_range(p, pairs)
            slack = p_hi - p_lo + tail_slack
            floor = 1 if w is None else max([1, *map(abs, p)]) ** a
            least = -c if any(p) else 1
            target = -p_lo % scale
            right = bisect_left(keys, target * width)
            left = right - 1
            limit = radius(running(), floor, slack)
            for _ in range(width):
                key_r = keys[right % width]
                key_l = keys[left]
                d_r = (key_r // width - target) % scale
                d_l = (target - key_l // width) % scale
                if d_r <= d_l:
                    if d_r > limit:
                        break
                    key = key_r
                    right += 1
                else:
                    if d_l > limit:
                        break
                    key = key_l
                    left -= 1
                v = key % width - c
                if v >= least:
                    yield p + (v,)
                    limit = radius(running(), floor, slack)

    return source


def _box_scan(caps: Sequence[int], table, scale: int, w=None):
    """_scan over the whole of signed_box(caps): lattice.box_source raced
    under _scan_work(caps), and past that a fresh _sorted_box."""
    source = w is None and box_source(caps, table[0], scale, _scan_work(caps))
    try:
        return _scan(source or _sorted_box(caps, table, scale, w), table, scale, w)
    except Capped:
        return _scan(_sorted_box(caps, table, scale, w), table, scale, w)


_UNSEPARATED = (
    "could not separate the minimal distance at {bits} bits; "
    "the target may satisfy an exact integer relation"
)


def _min_dist(rows, caps: Sequence[int], tol) -> tuple[RatInterval, tuple]:
    """Least max_i <row_i . q> over signed_box(caps), with a minimizer:
    the least witness_key in the pool of _scan.  Refinement stops once
    the enclosure is at most tol wide or, with no tol, once that pool is
    a single vector; a rational target is exact, so its first round
    answers, exact ties included."""
    early_unique = tol is None
    tol = _DEFAULT_TOL if tol is None else Fraction(tol)
    if tol < 0:
        raise UsageError(f"tolerance must not be negative, got {rat_str(tol)}")

    def step(bits, last):
        table, scale = _scaled_rows(rows, bits)
        min_lo, min_hi, pool = _box_scan(caps, table, scale)
        narrow = (min_hi - min_lo) * tol.denominator <= tol.numerator * scale
        if narrow or (early_unique and len(pool) == 1):
            value = RatInterval(Fraction(min_lo, scale), Fraction(min_hi, scale))
            return value, min((q for _, _, q in pool), key=witness_key)
        return None

    return _refine(step, _START_BITS, _MAX_BITS, _UNSEPARATED)


# -- psi ---------------------------------------------------------------


def _height_caps(norm: NormSpec, n: int, t) -> tuple[int, ...]:
    """coordinate_caps of {Phi(q) <= t}, raising EmptyRange when that box
    holds no nonzero vector and UsageError when scanning it is over
    budget (_check_work).  A scan takes at least its largest cap, t**e or
    more (e = 1 for sup, n * max(s) for weights s), so t >= 2**k with e * k
    >= MAX_SCAN_WORK.bit_length() is refused before a cap is made."""
    norm.check_dim(n)
    t = Fraction(t)
    e = 1 if norm.kind == "sup" else n * max(norm.weights)
    k = t.numerator.bit_length() - t.denominator.bit_length() - 1
    if t > 0 and e * k >= MAX_SCAN_WORK.bit_length():
        raise UsageError(f"scan at height 2^{k} or more is over budget: a cap "
                         f"reaches 2^{math.floor(e * k)}, past {MAX_SCAN_WORK} steps")
    caps = norm.coordinate_caps(t, n)
    if all(c == 0 for c in caps):
        raise EmptyRange(
            f"no nonzero integer vector has height <= {rat_str(t)}"
        )
    _check_work(caps)
    return caps


def _scan_work(caps: Sequence[int]) -> int:
    """Steps a scan of signed_box(caps) may take: the prefixes and sorted
    keys of _sorted_box, or for one column, which sorts nothing, c + 1
    as a bound on the box and not on its walk."""
    prefixes = (math.prod(2 * c + 1 for c in caps[:-1]) + 1) // 2
    return prefixes + (2 * caps[-1] + 1 if len(caps) > 1 else caps[-1])


def _check_work(caps: Sequence[int]) -> None:
    """Raise UsageError when _scan_work(caps), a bound on the box and
    not on its walk, is over MAX_SCAN_WORK."""
    _charge(_scan_work(caps), "scan of {} caps up to {}", len(caps), max(caps))


def _charge(work: int, what: str, *sizes: int) -> None:
    """Raise UsageError when work is over MAX_SCAN_WORK; what names the
    work, with one {} for each of sizes, written only then by size_str."""
    if work > MAX_SCAN_WORK:
        raise UsageError(
            f"{what.format(*map(size_str, sizes))} is over budget: it takes "
            f"{size_str(work)} steps, at most {MAX_SCAN_WORK} are allowed"
        )


def psi(
    norm: NormSpec, xi, t, tol=None
) -> tuple[RatInterval, tuple[int, ...]]:
    """Smallest nearest-integer distance of q . xi over nonzero integer
    q with norm height at most t, together with a minimizing q.

    Rational targets give a point interval and the exact minimizer (ties
    broken by witness_key).  Irrational targets give an enclosure; the
    refinement stops once the minimizer is unique, or once the enclosure
    width drops below tol when one is supplied.
    """
    row = _scan_row(xi)
    caps = _height_caps(norm, len(row), t)
    part = _rational_part([row], caps)
    if part is not None:
        value, q = _min_dist(*part, tol)
        if value.hi == 0:
            return value, q
    return _min_dist([row], caps, tol)


def psi_enclosure(norm: NormSpec, xi, t, bits: int = 128) -> RatInterval:
    """Sound enclosure of the minimal distance at one fixed working
    precision of bits >= 1, skipping witness resolution: one box scan,
    both of whose ends are outer bounds.  Meant for bulk checks
    (certificate spot checks) on targets whose exact scale would be
    huge, such as the midpoint of a final box, so rational targets too
    are enclosed at scale 2**bits here."""
    if bits < 1:
        raise UsageError("working precision must be at least 1 bit")
    row = _scan_row(xi)
    caps = _height_caps(norm, len(row), t)
    scale = 1 << bits
    table = [_fixed_pairs(row, bits)]
    min_lo, min_hi, _ = _box_scan(caps, table, scale)
    return RatInterval(Fraction(min_lo, scale), Fraction(min_hi, scale))


def psi_simultaneous(xi, t, tol=None) -> tuple[RatInterval, int]:
    """Smallest over 1 <= q <= floor(t) of the largest per-coordinate
    nearest-integer distance of q * xi, with the smallest minimizing q.
    """
    t = Fraction(t)
    row = _scan_row(xi)
    cap = t.numerator // t.denominator if t > 0 else 0
    if cap < 1:
        raise EmptyRange(f"no positive integer is at most {rat_str(t)}")
    _check_work([cap])
    # one row per coordinate; candidates (q,) in witness_key order are
    # q = 1, 2, ..., so the least key is the smallest q
    value, (q,) = _min_dist([[x] for x in row], [cap], tol)
    return value, q


def dirichlet_check(xi, t, mode: str = "dual") -> bool:
    """Whether the pigeonhole guarantee holds at threshold t:
    psi(t) <= t**(-n) in dual mode, or the simultaneous minimum is at
    most t**(-1/n).  Decided on integers, as the module docstring says;
    raises PrecisionExhausted rather than ever rounding the comparison."""
    t = Fraction(t)
    if t < 1:
        raise UsageError("threshold must be at least 1")
    row = _scan_row(xi)
    n = len(row)
    if mode not in ("dual", "simultaneous"):
        raise UsageError(f"unknown mode: {mode!r}")
    cap = t.numerator // t.denominator
    if mode == "dual":  # the bound t**(-a/b) is t**(-n)
        (a, b), rows, caps = (n, 1), [row], [cap] * n
    else:  # t**(-1/n)
        (a, b), rows, caps = (1, n), [[x] for x in row], [cap]
    _check_work(caps)

    def step(bits, last):
        table, scale = _scaled_rows(rows, bits)
        min_lo, min_hi, _ = _box_scan(caps, table, scale)
        bound = scale**b * t.denominator**a
        if bound >= min_hi**b * t.numerator**a:
            return True
        if bound < min_lo**b * t.numerator**a:
            return False
        return None

    return _refine(step, _START_BITS, _MAX_BITS, _UNSEPARATED)


# -- record thresholds -------------------------------------------------


@dataclass(frozen=True)
class RecordEntry:
    """One strict improvement of the running minimum: at height
    `threshold` the distance drops to `value`, attained by `witness`."""

    threshold: PowerValue
    value: RatInterval
    witness: tuple[int, ...]


@dataclass(frozen=True)
class RecordSequence:
    norm: NormSpec
    t_max: Fraction
    entries: tuple[RecordEntry, ...]

    def __post_init__(self):
        for prev, cur in zip(self.entries, self.entries[1:]):
            if not prev.threshold < cur.threshold:
                raise ValueError("record thresholds must strictly increase")
            if not cur.value.hi < prev.value.lo:
                raise ValueError("record values must strictly decrease")


def record_sequence(norm: NormSpec, xi, t_max) -> RecordSequence:
    """All thresholds up to t_max where psi strictly improves, each with
    its exact (or rigorously enclosed) new value and a witness.

    Records come from the top, one _box_scan each.  The least height key
    h in the pool of a box is its last record: the pool holds every
    vector that can reach the minimum, so below h none does.  The record
    is decided when no pool member above h can reach below its upper end
    and its group at h is one vector or only zero-width ones, real ties
    settled by witness_key.  The next box holds the keys up to h - 1.
    Its record lies outside this pool, so its lower end is above this
    record's upper end, which is the box's min_hi."""
    t_max = Fraction(t_max)
    row = _scan_row(xi)
    top = _height_caps(norm, len(row), t_max)
    exps = _height_key(norm, len(row))

    def step(bits, last):
        table, scale = _scaled_rows([row], bits)
        entries: list[RecordEntry] = []
        caps = top
        while any(caps):
            _, _, pool = _box_scan(caps, table, scale)
            keyed = [
                (max(abs(c) ** e for c, e in zip(q, exps)), lo, hi, q)
                for lo, hi, q in pool
            ]
            h = min(k for k, _, _, _ in keyed)
            group = [(lo, hi, q) for k, lo, hi, q in keyed if k == h]
            g_lo = min(lo for lo, _, _ in group)
            g_hi = min(hi for _, hi, _ in group)
            if any(k > h and lo < g_hi for k, lo, _, _ in keyed):
                return None
            if len(group) > 1 and any(lo != hi for lo, hi, _ in group):
                return None
            # equal heights can print differently, (27)^(1/2) or
            # (9)^(3/4); the least witness_key at h fixes which: h on
            # the last coordinate that h is a power for, zeros elsewhere
            j, root = max((j, r) for j, e in enumerate(exps)
                          if (r := _is_perfect_power(h, e)) is not None)
            least = [0] * len(exps)
            least[j] = root
            value = RatInterval(Fraction(g_lo, scale), Fraction(g_hi, scale))
            witness = min((q for _, _, q in group), key=witness_key)
            entries.append(RecordEntry(norm.phi(least), value, witness))
            caps = tuple(iroot(h - 1, e) for e in exps)
        return entries[::-1]

    entries = _refine(
        step, _START_BITS, _MAX_BITS,
        "record comparison undecidable at {bits} bits; two candidate "
        "distances may coincide exactly",
    )
    return RecordSequence(norm, t_max, tuple(entries))


def _height_key(norm: NormSpec, n: int) -> list[int]:
    """Exponents e_j such that the integer key max_j |q_j|**e_j has the
    order and ties of norm.phi(q) on n coordinates: 1 for the sup norm;
    for weights s_j = a_j/b_j and L = lcm(a_j), L*b_j/a_j, which makes
    the key phi(q)**(n*L).  The keys up to h fill the box of caps
    iroot(h, e_j)."""
    if norm.kind == "sup":
        return [1] * n
    big_l = math.lcm(*(s.numerator for s in norm.weights))
    return [big_l * s.denominator // s.numerator for s in norm.weights]


def exponent_estimate(seq: RecordSequence) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Decay-rate estimate from a record ledger: for consecutive records
    the slope -log(value_k) / log(threshold_{k+1}), and the minimum of
    those slopes.  Slopes are computed in floating point and snapped to
    small rationals; they are estimates, not certified bounds."""
    entries = seq.entries
    if len(entries) < 2:
        raise UsageError("need at least two records to estimate an exponent")
    if any(e.value.lo <= 0 for e in entries):
        raise DegenerateRecord(
            "a record value enclosure touches zero; the decay exponent "
            "is not finite"
        )
    slopes = []
    for cur, nxt in zip(entries, entries[1:]):
        v = cur.value.hi
        num = math.log(v.numerator) - math.log(v.denominator)
        slope = -num / nxt.threshold.log_float()
        slopes.append(Fraction(slope).limit_denominator(10**12))
    return min(slopes), tuple(slopes)


# -- affine families ---------------------------------------------------


@dataclass(frozen=True)
class AffineSubspaceSpec:
    """The affine family x -> (x, shift + matrix . x) in n coordinates,
    where x ranges over s-dimensional parameter space.  shift has one
    entry per dependent coordinate; matrix is (n-s) rows of s entries.
    """

    shift: tuple[RealDescriptor, ...]
    matrix: tuple[tuple[RealDescriptor, ...], ...]

    def __post_init__(self):
        if not self.shift:
            raise UsageError("affine family needs at least one dependent coordinate")
        if len(self.matrix) != len(self.shift):
            raise UsageError("matrix must have one row per dependent coordinate")
        widths = {len(row) for row in self.matrix}
        if len(widths) != 1 or 0 in widths:
            raise UsageError("matrix rows must share one positive length")
        object.__setattr__(
            self, "shift", tuple(as_descriptor(v) for v in self.shift)
        )
        object.__setattr__(
            self,
            "matrix",
            tuple(tuple(as_descriptor(v) for v in row) for row in self.matrix),
        )

    @property
    def subspace_dim(self) -> int:
        return len(self.matrix[0])

    @property
    def ambient_dim(self) -> int:
        return self.subspace_dim + len(self.shift)

    @property
    def exponent(self) -> Fraction:
        return badness_exponent(self.subspace_dim, self.ambient_dim)

    def augmented_rows(self) -> tuple[tuple[RealDescriptor, ...], ...]:
        """Rows of [shift | matrix]; dotted with (q0, q1, ..., qs) they
        give the forms whose fractional parts measure badness."""
        return tuple(
            (self.shift[i],) + tuple(self.matrix[i])
            for i in range(len(self.shift))
        )


def lift_affine(spec: AffineSubspaceSpec, x) -> tuple[RealDescriptor, ...]:
    """The point of the family at parameter x: x itself followed by
    shift + matrix . x, each coordinate as a descriptor."""
    xs = [as_descriptor(v) for v in x]
    if len(xs) != spec.subspace_dim:
        raise UsageError(
            f"parameter needs {spec.subspace_dim} coordinates, got {len(xs)}"
        )
    out: list[RealDescriptor] = list(xs)
    for i, row in enumerate(spec.matrix):
        terms = []
        for entry, part in zip(row, xs):
            ev = entry.exact_value()
            pv = part.exact_value()
            if ev is not None:
                terms.append((ev, part))
            elif pv is not None:
                terms.append((pv, entry))
            else:
                terms.append((Fraction(1), ProductReal(entry, part)))
        sv = spec.shift[i].exact_value()
        if sv is not None:
            out.append(LinearCombinationReal(terms, sv))
        else:
            terms.append((Fraction(1), spec.shift[i]))
            out.append(LinearCombinationReal(terms))
    return tuple(out)


# -- weighted badness scans --------------------------------------------


@dataclass(frozen=True)
class BadnessResult:
    """Enclosure of the scan minimum of ||q||**w * max_i <row_i . q>
    over nonzero |q|_inf <= height_cap, the vector attaining the upper
    end, and the exponent w used."""

    value: RatInterval
    witness: tuple[int, ...]
    exponent: Fraction
    height_cap: int


def _badness_scan(rows, caps, w: Fraction, bits: int):
    """Enclosure of the minimum of |q|_inf**w * max_i <row_i . q> over
    signed_box(caps), and the vector with the least upper end (least
    witness_key among ties).  With w = a/b the scan's keys bound
    (scale * value)**b, so the value is their b-th root over scale:
    exact, or enclosed at bits, when the key is exact (every rational
    target), else from the floor of the lower key's root to the ceiling
    of the upper one's."""
    table, scale = _scaled_rows(rows, bits)
    min_lo, min_hi, pool = _box_scan(caps, table, scale, w)
    best_q = min((q for _, hi, q in pool if hi == min_hi), key=witness_key)
    b = w.denominator
    if min_lo < min_hi or not min_hi:
        r = iroot(min_hi, b)
        hi = r if r**b == min_hi else r + 1
        value = RatInterval(Fraction(iroot(min_lo, b), scale), Fraction(hi, scale))
    else:  # an exact positive key
        power = PowerValue(min_hi, Fraction(1, b), Fraction(1, scale))
        f = power.as_fraction()
        value = RatInterval(f, f) if f is not None else power.enclose(bits)
    return value, best_q


def _refine_badness(rows, caps, w: Fraction):
    """_badness_scan from 64 up to 1024 bits, stopping early once
    the lower end is positive or the enclosure is a point; at 1024 bits
    the enclosure is reported as it stands."""

    def step(b, last):
        value, q = _badness_scan(rows, caps, w, b)
        if value.lo > 0 or value.lo == value.hi or last:
            return value, q
        return None

    return _refine(step, _START_BITS, 1024, "badness undecided at {bits} bits")


def badness_infimum(spec: AffineSubspaceSpec, height_cap: int) -> BadnessResult:
    """Minimum over nonzero integer q, |q|_inf <= height_cap, of
    ||q||_inf**w * max_i <[shift | matrix]_i . q>, enclosed rigorously.

    If an exact rational candidate lands on the family (distance zero)
    the result is the exact point zero.  Otherwise the enclosure is
    refined until its lower end is positive or 1024 bits are spent,
    and then reported honestly either way."""
    if height_cap < 1:
        raise UsageError("height cap must be at least 1")
    w = spec.exponent
    rows = [_scan_row(row) for row in spec.augmented_rows()]
    caps = [height_cap] * len(rows[0])
    _check_work(caps)
    part = _rational_part(rows, caps)
    if part is not None:
        value, q = _badness_scan(*part, w, _START_BITS)
        if value.hi == 0:
            return BadnessResult(value, q, w, height_cap)
    value, q = _refine_badness(rows, caps, w)
    return BadnessResult(value, q, w, height_cap)


def simultaneous_badness_min(xi, w, height_cap: int) -> tuple[RatInterval, int]:
    """Minimum over 1 <= q <= height_cap of
    q**w * max_j <q * xi_j>, with the smallest attaining q."""
    if height_cap < 1:
        raise UsageError("height cap must be at least 1")
    w = Fraction(w)
    if w <= 0:
        raise UsageError("exponent must be positive")
    _check_work([height_cap])
    rows = [[x] for x in _scan_row(xi)]
    value, (q,) = _refine_badness(rows, [height_cap], w)
    return value, q


def lower_bound_check(
    spec: AffineSubspaceSpec, x, height_cap: int, c
) -> tuple[bool, int | None]:
    """Check <q * xi> >= c * q**(-w) for every 1 <= q <= height_cap,
    where xi is the family point at parameter x and w the family
    exponent.  Returns (True, None) or (False, first failing q).
    Decided on integers, as the module docstring says.

    With c = n/m and w = a/b, a scaled distance d > reach =
    iroot((n * scale)**b // m**b, b) meets the bound at every q >= 1.
    The max over the rows is at least row 0's distance, so the
    one-column walk of _sorted_box, its running bound held at reach,
    yields every q that can miss it; the least q among them that does
    not certainly meet the bound is kept, in O(1) memory.  The walk is
    short for small c, and about height_cap steps when nearly every q
    comes near the bound (c near 1/2, or a rational point whose zero
    class is long)."""
    if height_cap < 1:
        raise UsageError("height cap must be at least 1")
    c = Fraction(c)
    if c <= 0:
        raise UsageError("the constant must be positive")
    _check_work([height_cap])
    a, b = spec.exponent.numerator, spec.exponent.denominator
    c_den = c.denominator**b
    rows = [[x] for x in _scan_row(lift_affine(spec, x))]
    first = 1  # every q below it meets the bound

    def step(bits, last):
        # stop at the least q the bound does not certainly hold for: a
        # later failure must not be reported while it is undecided
        nonlocal first
        table, scale = _scaled_rows(rows, bits)
        bound = (c.numerator * scale) ** b
        reach = iroot(bound // c_den, b)
        least = height_cap + 1
        for (q,) in _sorted_box([height_cap], table, scale)(lambda: reach):
            if first <= q < least:
                d_lo, d_hi = _max_dist((q,), table, scale)
                if bound > d_lo**b * q**a * c_den:
                    least, d_least = q, d_hi
        if least > height_cap:
            return True, None
        if bound > d_least**b * least**a * c_den:
            return False, least
        first = least
        return None

    return _refine(
        step, _START_BITS, _MAX_BITS,
        "bound comparison undecidable at {bits} bits",
    )


# -- randomized pigeonhole suite ---------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    vectors: int
    t_max: int
    dual_violations: tuple
    simultaneous_violations: tuple

    @property
    def ok(self) -> bool:
        return not self.dual_violations and not self.simultaneous_violations


def _failing_thresholds(value, e: Fraction, t_max: int) -> list:
    """(t, value(t)) for each integer 1 <= t <= t_max where the
    non-increasing value(t) breaks the pigeonhole bound value <=
    (1/t)**(1/e), i.e. t > power_floor(1/value(t), e).  A value v that
    meets the bound meets it up to power_floor(1/v, e), so value is only
    called where the running minimum may stop meeting it; value 0
    settles every threshold left."""
    failing = []
    t = 1
    while t <= t_max:
        v = value(t)
        if v == 0:
            break
        reach = power_floor(1 / v, e)
        if reach >= t:
            t = reach + 1
        else:
            failing.append((t, v))
            t += 1
    return failing


def dirichlet_suite(
    count: int = 100,
    dims: Sequence[int] = (2, 3),
    t_max: int = 50,
    seed: int = 20260819,
) -> SuiteReport:
    """Pigeonhole stress test of the engine: `count` seeded pseudo-random
    rational targets, and at every integer threshold up to t_max both
    psi(t) <= t**(-n) (sup norm) and psi_simultaneous(t) <= t**(-1/n),
    all checked exactly.  A violation gives the value as num / den."""
    if count < 1 or t_max < 1:
        raise UsageError("count and t_max must be positive")
    if not dims or min(dims) < 1:
        raise UsageError("need at least one dimension, each at least 1")
    rng = random.Random(seed)
    dual_bad: list[dict] = []
    sim_bad: list[dict] = []
    for idx in range(count):
        n = dims[idx % len(dims)]
        den = rng.randrange(11, 1000)
        xi = [Fraction(rng.randrange(0, den), den) for _ in range(n)]
        halves = (
            (dual_bad, lambda t: psi(SUP_NORM, xi, t)[0].hi, Fraction(1, n)),
            (sim_bad, lambda t: psi_simultaneous(xi, t)[0].hi, Fraction(n)),
        )
        for bad, value, e in halves:
            for t, v in _failing_thresholds(value, e, t_max):
                bad.append(
                    {"vector": idx, "t": t, "num": int(v * den), "den": den,
                     "n": n}
                )
    return SuiteReport(count, t_max, tuple(dual_bad), tuple(sim_bad))
