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
upper end can change nothing and costs one comparison.  Records group
the candidates by an integer height key with the order and ties of
norm.phi and run _scan once per equal-height group.

Precision has one rule, _refine: bits double from a start value until
the query is decided; a query still undecided at its cap raises
PrecisionExhausted rather than ever guessing.  psi, records,
psi_simultaneous, dirichlet_check and lower_bound_check go from 64 to
4096 bits; the badness scans go from 64 to 1024 bits and then report
their honest enclosure.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

from .bounds import badness_exponent
from .errors import (
    DegenerateRecord,
    EmptyRange,
    PrecisionExhausted,
    UsageError,
)
from .exact import RatInterval, rat, rat_str
from .powers import PowerValue, iroot
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
        self.check_dim(len(q))
        best: PowerValue | None = None
        for c, s in zip(q, self.weights):
            if c == 0:
                continue
            v = PowerValue(abs(c), Fraction(s.denominator, s.numerator))
            if best is None or v > best:
                best = v
        assert best is not None
        return best.pow(Fraction(1, len(q)))

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


def _dist_scaled(lo: int, hi: int, scale: int) -> tuple[int, int]:
    """Given integer bounds on scale*x, return integer bounds on
    scale*<x> where <x> is the nearest-integer distance.  Exact interval
    arithmetic on the periodic tent function."""
    span = hi - lo
    half = scale >> 1
    if span >= scale:
        return 0, half
    r = lo % scale
    rhi = r + span  # < 2*scale
    if r == 0 or rhi >= scale:
        dlo = 0
    else:
        dlo = r if r <= scale - rhi else scale - rhi
    if r <= half <= rhi or rhi >= scale + half:
        dhi = half
    else:
        da = r if 2 * r <= scale else scale - r
        rb = rhi if rhi < scale else rhi - scale
        db = rb if 2 * rb <= scale else scale - rb
        dhi = da if da >= db else db
    return dlo, dhi


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


def _max_dist(q: Sequence[int], table, scale: int) -> tuple[int, int]:
    """Integer bounds on scale * max_i <row_i . q> from the enclosures
    of _scaled_rows."""
    d_lo = d_hi = 0
    for row in table:
        lo = hi = 0
        for c, (a, b) in zip(q, row):
            if c > 0:
                lo += c * a
                hi += c * b
            elif c < 0:
                lo += c * b
                hi += c * a
        a, b = _dist_scaled(lo, hi, scale)
        if a > d_lo:
            d_lo = a
        if b > d_hi:
            d_hi = b
    return d_lo, d_hi


def _scan(cands, table, scale: int, weights=None) -> tuple[int, int, list]:
    """Integer bounds (min_lo, min_hi) on the least scale * max_i
    <row_i . q> over nonempty cands, each value times m**w (m = |q|_inf)
    when weights is a _power_table, and the pool of (lo, hi, q) in
    candidate order, as the module docstring describes."""
    if weights is not None:
        pw_lo, pw_hi, _, e = weights
    min_lo = min_hi = math.inf
    pool = []
    for q in cands:
        lo, hi = _max_dist(q, table, scale)
        if weights is not None:
            m = max(abs(c) for c in q)
            lo = lo**e * pw_lo[m]
            hi = hi**e * pw_hi[m]
        if lo > min_hi:
            continue
        if lo < min_lo:
            min_lo = lo
        if hi < min_hi:
            min_hi = hi
            pool = [p for p in pool if p[0] <= hi]
        pool.append((lo, hi, q))
    return min_lo, min_hi, pool


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

    def step(bits, last):
        table, scale = _scaled_rows(rows, bits)
        min_lo, min_hi, pool = _scan(signed_box(caps), table, scale)
        narrow = Fraction(min_hi - min_lo, scale) <= tol
        if narrow or (early_unique and len(pool) == 1):
            value = RatInterval(Fraction(min_lo, scale), Fraction(min_hi, scale))
            return value, min((q for _, _, q in pool), key=witness_key)
        return None

    return _refine(step, _START_BITS, _MAX_BITS, _UNSEPARATED)


# -- psi ---------------------------------------------------------------


def _height_caps(norm: NormSpec, n: int, t: Fraction) -> tuple[int, ...]:
    """coordinate_caps of {Phi(q) <= t}, raising EmptyRange when that box
    holds no nonzero vector."""
    caps = norm.coordinate_caps(t, n)
    if all(c == 0 for c in caps):
        raise EmptyRange(f"no nonzero integer vector has height <= {t}")
    return caps


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
    t = Fraction(t)
    row = _scan_row(xi)
    caps = _height_caps(norm, len(row), t)
    # Exact zero is only certifiable on the rational coordinates, so
    # scan the rational sub-box first, exactly.
    zero_caps = [
        c if isinstance(x, Fraction) else 0 for c, x in zip(caps, row)
    ]
    if not _is_rational([row]) and any(zero_caps):
        sub = [x if isinstance(x, Fraction) else Fraction(0) for x in row]
        value, q = _min_dist([sub], zero_caps, None)
        if value.hi == 0:
            return value, q
    return _min_dist([row], caps, tol)


def psi_enclosure(norm: NormSpec, xi, t, bits: int = 128) -> RatInterval:
    """Sound enclosure of the minimal distance at one fixed working
    precision, skipping witness resolution.

    A single pass over the candidate box: both ends are outer bounds,
    so .hi is always a true upper bound for the value and .lo a true
    lower bound.  Meant for bulk checks (certificate spot checks) where
    the exact scan would grind on huge rational targets, so rational
    targets too are enclosed at scale 2**bits here.
    """
    t = Fraction(t)
    row = _scan_row(xi)
    caps = _height_caps(norm, len(row), t)
    scale = 1 << bits
    table = [_fixed_pairs(row, bits)]
    min_lo, min_hi, _ = _scan(signed_box(caps), table, scale)
    return RatInterval(Fraction(min_lo, scale), Fraction(min_hi, scale))


def psi_simultaneous(xi, t, tol=None) -> tuple[RatInterval, int]:
    """Smallest over 1 <= q <= floor(t) of the largest per-coordinate
    nearest-integer distance of q * xi, with the smallest minimizing q.
    """
    t = Fraction(t)
    row = _scan_row(xi)
    cap = t.numerator // t.denominator if t > 0 else 0
    if cap < 1:
        raise EmptyRange(f"no positive integer is at most {t}")
    # one row per coordinate; candidates (q,) in witness_key order are
    # q = 1, 2, ..., so the least key is the smallest q
    value, (q,) = _min_dist([[x] for x in row], [cap], tol)
    return value, q


def dirichlet_check(xi, t, mode: str = "dual") -> bool:
    """Whether the pigeonhole guarantee holds at threshold t:
    psi(t) <= t**(-n) in dual mode, or the simultaneous minimum is at
    most t**(-1/n).  Decided exactly; raises PrecisionExhausted rather
    than ever rounding the comparison."""
    t = Fraction(t)
    if t < 1:
        raise UsageError("threshold must be at least 1")
    row = _scan_row(xi)
    n = len(row)
    if mode not in ("dual", "simultaneous"):
        raise UsageError(f"unknown mode: {mode!r}")
    cap = t.numerator // t.denominator
    if mode == "dual":
        threshold = t ** (-n)
        rows, caps = [row], [cap] * n
    else:
        threshold = PowerValue(t, Fraction(-1, n))
        rows, caps = [[x] for x in row], [cap]

    def step(bits, last):
        table, scale = _scaled_rows(rows, bits)
        min_lo, min_hi, _ = _scan(signed_box(caps), table, scale)
        if threshold >= Fraction(min_hi, scale):
            return True
        if threshold < Fraction(min_lo, scale):
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


def record_sequence(
    norm: NormSpec, xi, t_max, tol=None
) -> RecordSequence:
    """All thresholds up to t_max where psi strictly improves, each with
    its exact (or rigorously enclosed) new value and a witness."""
    t_max = Fraction(t_max)
    row = _scan_row(xi)
    caps = _height_caps(norm, len(row), t_max)
    rows = [row]
    key = _height_key(norm)
    by_height: dict[int, list] = {}
    for q in signed_box(caps):
        by_height.setdefault(key(q), []).append(q)
    groups = [by_height[h] for h in sorted(by_height)]

    def step(bits, last):
        table, scale = _scaled_rows(rows, bits)
        entries: list[RecordEntry] = []
        cur_lo = cur_hi = math.inf
        for group in groups:
            g_lo, g_hi, pool = _scan(group, table, scale)
            if g_lo >= cur_hi:
                continue  # certainly no improvement
            # zero-width candidates that tie are real ties, settled by
            # witness_key
            decided = len(pool) == 1 or all(lo == hi for lo, hi, _ in pool)
            if g_hi >= cur_lo or not decided:
                return None
            value = RatInterval(Fraction(g_lo, scale), Fraction(g_hi, scale))
            # equal heights can print differently, (27)^(1/2) or
            # (9)^(3/4); the group's least witness_key member fixes which
            phi = norm.phi(min(group, key=witness_key))
            witness = min((q for _, _, q in pool), key=witness_key)
            entries.append(RecordEntry(phi, value, witness))
            cur_lo, cur_hi = g_lo, g_hi
        return entries

    entries = _refine(
        step, _START_BITS, _MAX_BITS,
        "record comparison undecidable at {bits} bits; two candidate "
        "distances may coincide exactly",
    )
    return RecordSequence(norm, t_max, tuple(entries))


def _height_key(norm: NormSpec):
    """An integer function of q with the order and ties of norm.phi:
    |q|_inf for the sup norm; for weights s_j = a_j/b_j and
    L = lcm(a_j), max_j |q_j|**(L*b_j/a_j), which is phi(q)**(n*L)."""
    if norm.kind == "sup":
        return lambda q: max(abs(c) for c in q)
    big_l = math.lcm(*(s.numerator for s in norm.weights))
    exps = [big_l * s.denominator // s.numerator for s in norm.weights]
    return lambda q: max(abs(c) ** e for c, e in zip(q, exps))


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


def _power_table(w: Fraction, cap: int, bits: int, exact: bool):
    """Integer weights for m**w, m = 0..cap: (lo, hi, scale, e) such that
    d**e * lo[m] and d**e * hi[m] order or bound the weighted distance
    d * m**w.  An integer w gives exact powers with e = 1.  For w = a/b
    on an exact distance, m**a with e = b orders d * m**w exactly.
    Otherwise lo and hi bound m**w at scale 2**bits, with e = 1."""
    if w.denominator == 1:
        table = [m ** int(w) for m in range(cap + 1)]
        return table, table, 1, 1
    if exact:
        table = [m**w.numerator for m in range(cap + 1)]
        return table, table, 1, w.denominator
    los = [0] * (cap + 1)
    his = [0] * (cap + 1)
    for m in range(1, cap + 1):
        los[m], his[m] = PowerValue(m, w).scaled_bounds(bits)
    return los, his, 1 << bits, 1


def _badness_scan(rows, caps, w: Fraction, bits: int):
    """Enclosure of the minimum of |q|_inf**w * max_i <row_i . q> over
    signed_box(caps), and the vector with the least upper end (least
    witness_key among ties).  Exact on a rational target."""
    table, scale = _scaled_rows(rows, bits)
    weights = _power_table(w, max(caps), bits, _is_rational(rows))
    min_lo, min_hi, pool = _scan(signed_box(caps), table, scale, weights)
    best_q = min((q for _, hi, q in pool if hi == min_hi), key=witness_key)
    _, _, pw_scale, e = weights
    if e == 1:
        total = scale * pw_scale
        value = RatInterval(Fraction(min_lo, total), Fraction(min_hi, total))
        return value, best_q
    # an exact distance times an irrational power: evaluate the winner
    dist = Fraction(_max_dist(best_q, table, scale)[0], scale)
    if dist == 0:
        return RatInterval(dist, dist), best_q
    power = PowerValue(max(abs(c) for c in best_q), w).mul_fraction(dist)
    f = power.as_fraction()
    value = RatInterval(f, f) if f is not None else power.enclose(_START_BITS)
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
    exact = [all(isinstance(x, Fraction) for x in col) for col in zip(*rows)]
    # Exact zero is only certifiable on the all-rational columns, so scan
    # that sub-box first, exactly.
    if any(exact) and not all(exact):
        sub = [
            [x if ok else Fraction(0) for x, ok in zip(row, exact)]
            for row in rows
        ]
        zero_caps = [height_cap if ok else 0 for ok in exact]
        value, q = _badness_scan(sub, zero_caps, w, _START_BITS)
        if value.hi == 0:
            return BadnessResult(value, q, w, height_cap)
    value, q = _refine_badness(rows, [height_cap] * len(exact), w)
    return BadnessResult(value, q, w, height_cap)


def simultaneous_badness_min(xi, w, height_cap: int) -> tuple[RatInterval, int]:
    """Minimum over 1 <= q <= height_cap of
    q**w * max_j <q * xi_j>, with the smallest attaining q."""
    if height_cap < 1:
        raise UsageError("height cap must be at least 1")
    w = Fraction(w)
    if w <= 0:
        raise UsageError("exponent must be positive")
    rows = [[x] for x in _scan_row(xi)]
    value, (q,) = _refine_badness(rows, [height_cap], w)
    return value, q


def lower_bound_check(
    spec: AffineSubspaceSpec, x, height_cap: int, c
) -> tuple[bool, int | None]:
    """Check <q * xi> >= c * q**(-w) for every 1 <= q <= height_cap,
    where xi is the family point at parameter x and w the family
    exponent.  Returns (True, None) or (False, first failing q)."""
    if height_cap < 1:
        raise UsageError("height cap must be at least 1")
    c = Fraction(c)
    if c <= 0:
        raise UsageError("the constant must be positive")
    w = spec.exponent
    rows = [[x] for x in _scan_row(lift_affine(spec, x))]

    def threshold(q: int):
        if w.denominator == 1:
            return c / Fraction(q) ** int(w)
        return PowerValue(q, -w).mul_fraction(c)

    pending = list(range(1, height_cap + 1))

    def step(bits, last):
        nonlocal pending
        table, scale = _scaled_rows(rows, bits)
        still = []
        for q in pending:
            d_lo, d_hi = _max_dist((q,), table, scale)
            thr = threshold(q)
            if thr <= Fraction(d_lo, scale):
                continue
            if thr > Fraction(d_hi, scale):
                return False, q
            still.append(q)
        pending = still
        return None if pending else (True, None)

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


def _dual_staircase(nums: Sequence[int], den: int, cap: int) -> list[int]:
    """best[m] = smallest distance numerator (over common denominator
    den) among nonzero q with |q|_inf = m, m = 1..cap.  Sentinel den
    marks empty shells.  Walks signed_box([cap] * n) coordinate by
    coordinate, carrying the partial sum mod den and the partial height
    so the last coordinate costs one multiply-add per vector."""
    n = len(nums)
    best = [den] * (cap + 1)

    def walk(j: int, acc: int, m: int, lead: bool) -> None:
        a = nums[j]
        lo = 1 if lead else -cap  # first nonzero coordinate positive
        if j == n - 1:
            for c in range(lo, cap + 1):
                r = (acc + c * a) % den
                dn = r if 2 * r <= den else den - r
                ac = -c if c < 0 else c
                h = m if m >= ac else ac
                if dn < best[h]:
                    best[h] = dn
            return
        if lead:
            walk(j + 1, acc, m, True)
        for c in range(lo, cap + 1):
            ac = -c if c < 0 else c
            walk(j + 1, (acc + c * a) % den, m if m >= ac else ac, False)

    walk(0, 0, 0, True)
    return best


def dirichlet_suite(
    count: int = 100,
    dims: Sequence[int] = (2, 3),
    t_max: int = 50,
    seed: int = 20260819,
) -> SuiteReport:
    """Pigeonhole stress test: `count` seeded pseudo-random rational
    targets, every integer threshold up to t_max, both the dual and the
    simultaneous inequality, all checked exactly."""
    if count < 1 or t_max < 1:
        raise UsageError("count and t_max must be positive")
    if not dims or min(dims) < 1:
        raise UsageError("need at least one dimension, each at least 1")
    rng = random.Random(seed)
    dual_bad = []
    sim_bad = []
    for idx in range(count):
        n = dims[idx % len(dims)]
        den = rng.randrange(11, 1000)
        nums = [rng.randrange(0, den) for _ in range(n)]
        best = _dual_staircase(nums, den, t_max)
        run = den
        for t in range(1, t_max + 1):
            if best[t] < run:
                run = best[t]
            if run * t**n > den:
                dual_bad.append(
                    {"vector": idx, "t": t, "num": run, "den": den, "n": n}
                )
        run = den
        big_d = den**n
        for q in range(1, t_max + 1):
            mx = 0
            for a in nums:
                r = q * a % den
                dn = r if 2 * r <= den else den - r
                if dn > mx:
                    mx = dn
            if mx < run:
                run = mx
            if run**n * q > big_d:
                sim_bad.append(
                    {"vector": idx, "t": q, "num": run, "den": den, "n": n}
                )
    return SuiteReport(count, t_max, tuple(dual_bad), tuple(sim_bad))
