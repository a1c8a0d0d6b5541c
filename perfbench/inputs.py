"""Seeded input generator for the benchmark workloads.

Standard library only: it returns plain data (integers, fractions and
descriptor strings in the grammar of ``singvec.parse_real``), and the
job builder in ``jobs.py`` hands those to the library unchanged.  The
same (workload, seed) pair always gives the same inputs.

Irrational targets are sqrt(d) for a squarefree d > 1 and the cube
roots of e and e**2 for a cube-free e > 1.  Then x**3 - e is irreducible,
1, cbrt(e), cbrt(e)**2 is a basis of Q(cbrt e), and sqrt(d) lies outside
that cubic field, so 1, sqrt(d), cbrt(e), cbrt(e)**2 have no integer
relation and no scan job can hit an exact tie that interval refinement
cannot separate.  The one deliberate exception is the mixed target
(sqrt(d), r) with r rational: see ``mixed`` below.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("certify-sup", "certify-weighted", "scan-enclosed", "scan-exact")

# Points of the middle-thirds set with prefix of two digits and a
# repeating two-digit tail, chosen so that every one has denominator 36.
_CYLINDER_POINTS = (
    ("00", "02"),  # 1/36
    ("20", "02"),  # 25/36
    ("02", "20"),  # 11/36
    ("22", "20"),  # 35/36
)


def squarefree(m: int) -> bool:
    return all(m % (p * p) for p in range(2, math.isqrt(m) + 1))


def cubefree(m: int) -> bool:
    p = 2
    while p * p * p <= m:
        if m % (p * p * p) == 0:
            return False
        p += 1
    return True


def icbrt(m: int) -> int:
    r = round(m ** (1 / 3))
    while r**3 > m:
        r -= 1
    while (r + 1) ** 3 <= m:
        r += 1
    return r


def sqrt_spec(d: int) -> str:
    r = math.isqrt(d)
    return f"alg:{-d},0,1:{r},{r + 1}"


def cbrt_spec(m: int) -> str:
    r = icbrt(m)
    return f"alg:{-m},0,0,1:{r},{r + 1}"


def cylinder_value(prefix: str, tail: str) -> Fraction:
    """Value of the base-3 point prefix.tail tail tail ... (digits 0/2)."""
    head = Fraction(int(prefix, 3), 3 ** len(prefix))
    rep = Fraction(int(tail, 3), 3 ** len(tail) - 1)
    return head + rep / 3 ** len(prefix)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"singvec-bench:{workload}:{seed}")


def enclosed_targets(seed: int) -> dict:
    """Irrational targets for ``scan-enclosed``, plus the mixed target."""
    rng = rng_for("scan-enclosed", seed)
    d = rng.choice([m for m in range(2, 200) if squarefree(m)])
    e = rng.choice([m for m in range(2, 100) if cubefree(m) and icbrt(m) ** 3 != m])
    prefix, tail = rng.choice(_CYLINDER_POINTS)
    return {
        "d": d,
        "e": e,
        "sqrt": sqrt_spec(d),
        "cbrt": cbrt_spec(e),
        "cbrt_sq": cbrt_spec(e * e),
        # The mixed target pairs sqrt(d) with a rational cylinder point of
        # denominator 36.  Record walks on it hit exact ties q ~ q + 36 e_2
        # once t_max >= 36, a known defect of the record path.
        "mixed": f"cyl:3,0,2:{prefix}:rep{tail}",
        "mixed_value": cylinder_value(prefix, tail),
    }


def exact_targets(seed: int) -> dict:
    """Rational targets for ``scan-exact``: denominators 10**2 .. 10**4,
    numerators coprime to them, plus a seed for the pigeonhole suite."""
    rng = rng_for("scan-exact", seed)

    def rational() -> Fraction:
        while True:
            den = rng.randrange(100, 10_001)
            num = rng.randrange(1, den)
            if math.gcd(num, den) == 1:
                return Fraction(num, den)

    return {
        "x": tuple(rational() for _ in range(3)),
        "suite_seed": rng.randrange(1, 2**31),
    }
