"""Top-level acceptance run: one test per numbered criterion, so
``pytest -v`` prints one pass or fail line for each.

The tests exercise the package end to end: certified root constants,
coefficient-level polynomial identities, exact transference constants,
the nested-box constructor plus its independent verifier in both the
sup-norm and weighted settings, the pigeonhole stress suite, oracle
equivalence against a naive double loop, badness evidence for a cubic
point, fault injection through the command line, and an explicit
declaration of the properties this package checks only at bounded
range.
"""
import copy
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from singvec import (
    AffineSubspaceSpec,
    ConstructionSpec,
    Cylinder,
    DigitSystem,
    NormSpec,
    PhiSpec,
    ProductReal,
    ProductSet,
    badness_exponent,
    badness_infimum,
    certificate_from_json,
    construct,
    default_spot_checks,
    dirichlet_suite,
    lower_bound_check,
    parse_real,
    psi,
    record_sequence,
    refined_exponent_bound,
    subspace_polynomial,
    transference_constants,
    verify_certificate,
)
from singvec.polys import poly_eval

F = Fraction
THIRDS = DigitSystem(3, (0, 2))
PRODUCT = ProductSet((THIRDS, THIRDS))
CMD = [sys.executable, "-m", "singvec"]


def build(steps):
    return construct(
        ConstructionSpec(
            product=PRODUCT,
            norm=NormSpec("sup"),
            phi=PhiSpec("pow", exponent=F(5)),
            steps=steps,
        )
    )


def test_criterion_01_certified_root_constants():
    """Root enclosures for the exponent bounds hit the frozen decimal
    targets, and the degenerate case collapses to an exact rational."""
    start = time.monotonic()
    tol = F(1, 10**12)

    w12 = refined_exponent_bound(1, 2, tol)
    # contains sqrt(3) - 1: both ends sit on opposite sides, checked by
    # squaring (the ends are positive, so squaring preserves order)
    assert (w12.lo + 1) ** 2 <= 3 <= (w12.hi + 1) ** 2
    target = F(7320508, 10**7)
    assert abs(w12.lo - target) <= F(1, 10**6)
    assert abs(w12.hi - target) <= F(1, 10**6)

    w13 = refined_exponent_bound(1, 3, tol)
    # rounds to 0.54 at two decimals
    assert F(535, 1000) <= w13.lo and w13.hi < F(545, 1000)

    w23 = refined_exponent_bound(2, 3, tol)
    # rounds to 0.759 at three decimals
    assert F(7585, 10000) <= w23.lo and w23.hi < F(7595, 10000)

    assert badness_exponent(1, 4) == F(2, 3)
    assert time.monotonic() - start < 1.0


def test_criterion_02_polynomial_coefficients():
    """The solved brackets come from the expected integer polynomials,
    compared coefficient by coefficient (ascending order)."""
    start = time.monotonic()
    # x**3 - 6x + 4
    assert subspace_polynomial(1, 2) == [F(4), F(-6), F(0), F(1)]
    # x**4 - 2x + 1
    assert subspace_polynomial(1, 3) == [F(1), F(-2), F(0), F(0), F(1)]
    # x**4 - 36x + 27: the degree is always n + 1, with constant term
    # w**n and linear term -w**(n-1) * (1 + w)
    assert subspace_polynomial(2, 3) == [F(27), F(-36), F(0), F(0), F(1)]

    # each certified enclosure brackets a sign change of its polynomial,
    # tying the root constants to these exact coefficients
    tol = F(1, 10**9)
    for s, n in ((1, 2), (1, 3), (2, 3)):
        coeffs = subspace_polynomial(s, n)
        enclosure = refined_exponent_bound(s, n, tol)
        flo = poly_eval(coeffs, enclosure.lo)
        fhi = poly_eval(coeffs, enclosure.hi)
        assert flo != 0 and fhi != 0 and (flo > 0) != (fhi > 0)
    assert time.monotonic() - start < 1.0


def test_criterion_03_transference_constants_exact():
    """The classical constant satisfies its defining identity exactly
    and stays strictly below 1/(n-1); the weighted constant matches
    1/(n(1-delta)) for seeded random rational weight vectors."""
    start = time.monotonic()
    for n in range(2, 21):
        tc = transference_constants(n)
        assert tc.basic == F(1, n - 1)
        assert tc.classical == F(n * n + 1, n * (n * n - 1))
        assert tc.classical == tc.basic - F(1, n * (n + 1))
        assert tc.classical < F(1, n - 1)

    rng = random.Random(20260819)
    for _ in range(10):
        n = rng.randint(2, 5)
        nums = [rng.randint(1, 9) for _ in range(n)]
        total = sum(nums)
        weights = tuple(F(a, total) for a in nums)
        tc = transference_constants(n, weights=weights)
        delta = min(weights)
        assert tc.weighted == F(1, 1) / (n * (1 - delta))
    assert time.monotonic() - start < 1.0


def test_criterion_04_constructor_end_to_end_sup_norm():
    """Six nested pinning steps on the twofold middle-thirds set under
    the sup norm with decay t**-5, verified with spot checks at every
    recorded rational height whose scan fits the engine's budget."""
    start = time.monotonic()
    cert = build(6)
    build_seconds = time.monotonic() - start
    assert build_seconds <= 60.0
    assert len(cert.steps) == 6

    # recorded heights past the first pin are 3**7 and then towers far
    # beyond the scan budget, so exactly one threshold qualifies
    assert default_spot_checks(cert) == (F(2187),)

    report = verify_certificate(cert)
    assert report.ok
    assert not report.failures
    for step in report.steps:
        assert step.integrity
        assert step.nesting
        assert step.phi_increase
        assert step.anchor_in_box
        assert step.bound_chain
        assert step.avoidance
    (spot,) = report.spot_checks
    assert spot.t == 2187
    assert spot.ok
    assert spot.bound == F(1, 2187**5)
    assert spot.value.hi <= spot.bound


def test_criterion_05_constructor_weighted_norm():
    """The same construction with weights (2/3, 1/3) completes and
    verifies; every recorded height is irrational, so the default spot
    schedule is honestly empty."""
    cert = construct(
        ConstructionSpec(
            product=PRODUCT,
            norm=NormSpec("weighted", (F(2, 3), F(1, 3))),
            phi=PhiSpec("pow", exponent=F(5)),
            steps=6,
        )
    )
    assert len(cert.steps) == 6
    assert default_spot_checks(cert) == ()
    report = verify_certificate(cert)
    assert report.ok
    assert not report.failures
    assert report.spot_checks == ()
    for step in report.steps:
        assert step.integrity and step.nesting and step.phi_increase
        assert step.anchor_in_box and step.bound_chain and step.avoidance


def test_criterion_06_dirichlet_property_suite():
    """100 seeded pseudo-random rational targets in dimensions 2 and 3,
    every integer threshold up to 50, dual and simultaneous bounds, all
    checked exactly with zero violations."""
    start = time.monotonic()
    report = dirichlet_suite(count=100, dims=(2, 3), t_max=50, seed=20260819)
    elapsed = time.monotonic() - start
    assert report.vectors == 100
    assert report.t_max == 50
    assert report.dual_violations == ()
    assert report.simultaneous_violations == ()
    assert report.ok
    assert elapsed < 120.0


def _shell_minima(xi, cap):
    """Independent oracle: a plain double loop over the integer box,
    keeping the smallest nearest-integer distance at each exact height.
    Uses nothing from the package."""
    mins = {}
    for a in range(-cap, cap + 1):
        for b in range(-cap, cap + 1):
            if a == 0 and b == 0:
                continue
            h = max(abs(a), abs(b))
            r = (a * xi[0] + b * xi[1]) % 1
            d = min(r, 1 - r)
            if h not in mins or d < mins[h]:
                mins[h] = d
    return mins


def test_criterion_07_oracle_equivalence_bit_exact():
    """psi and record_sequence agree with the naive double-loop oracle
    on 50 seeded rational inputs in dimension 2, thresholds up to 30,
    with exact Fraction equality throughout."""
    norm = NormSpec("sup")
    rng = random.Random(20260819)
    for _ in range(50):
        den = rng.randint(2, 32)
        xi = (F(rng.randint(0, den), den), F(rng.randint(0, den), den))
        t = rng.randint(1, 30)
        shells = _shell_minima(xi, t)

        prefix = []
        cur = None
        for h in range(1, t + 1):
            cur = shells[h] if cur is None else min(cur, shells[h])
            prefix.append(cur)

        value, witness = psi(norm, xi, t)
        assert value.lo == value.hi == prefix[t - 1]
        assert max(abs(c) for c in witness) <= t
        r = (witness[0] * xi[0] + witness[1] * xi[1]) % 1
        assert min(r, 1 - r) == value.lo

        expected = []
        cur = None
        for h in range(1, t + 1):
            if cur is None or shells[h] < cur:
                cur = shells[h] if cur is None else min(cur, shells[h])
                expected.append((h, cur))
        seq = record_sequence(norm, xi, t)
        got = [
            (entry.threshold.as_fraction(), entry.value.lo)
            for entry in seq.entries
        ]
        assert all(e.value.lo == e.value.hi for e in seq.entries)
        assert got == [(F(h), v) for h, v in expected]


def test_criterion_08_badness_evidence_cubic_point():
    """For the row (theta, theta**2) with theta the cube root of 2, the
    scan minimum is positive and non-increasing across caps 10, 100,
    1000, and the pointwise lower-bound check passes with the constant
    set to half the empirical cap-1000 minimum."""
    start = time.monotonic()
    theta = parse_real("cbrt2")
    theta_sq = ProductReal(theta, theta)
    family = AffineSubspaceSpec((theta,), ((theta_sq,),))
    assert family.exponent == F(2)

    results = {q: badness_infimum(family, q) for q in (10, 100, 1000)}
    for res in results.values():
        assert res.value.lo > 0
    # the true minima can only shrink as the cap grows; the enclosures
    # must be compatible with that ordering
    assert results[100].value.lo <= results[10].value.hi
    assert results[1000].value.lo <= results[100].value.hi
    # the minimizer is already inside the smallest cap, hence stable
    for res in results.values():
        assert res.witness == (5, 8)

    c = results[1000].value.lo / 2
    line = AffineSubspaceSpec(("0",), ((theta,),))
    ok, first_bad = lower_bound_check(line, (theta,), 1000, c)
    assert ok
    assert first_bad is None
    assert time.monotonic() - start < 60.0


def _run_certify(path):
    return subprocess.run(
        CMD + ["certify", str(path)],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_criterion_09_fault_injection_cli(tmp_path):
    """The certify subcommand exits nonzero on three tampered
    certificates: a lowered bound, reordered steps, and a deleted
    avoidance entry paired with a box widened to touch the plane."""
    blob = json.loads(build(3).dumps())

    lowered = copy.deepcopy(blob)
    lowered["steps"][0]["bound_used"] = "1/100000000000000000000000000"
    path_a = tmp_path / "lowered.json"
    path_a.write_text(json.dumps(lowered))
    out_a = _run_certify(path_a)
    assert out_a.returncode == 4
    assert "failure:" in out_a.stdout
    assert "bound=FAIL" in out_a.stdout

    reordered = copy.deepcopy(blob)
    reordered["steps"] = [
        reordered["steps"][1],
        reordered["steps"][0],
        reordered["steps"][2],
    ]
    path_b = tmp_path / "reordered.json"
    path_b.write_text(json.dumps(reordered))
    out_b = _run_certify(path_b)
    assert out_b.returncode == 4
    assert "failure:" in out_b.stdout
    assert "out of order" in out_b.stdout

    widened = copy.deepcopy(blob)
    widened["avoided"] = [a for a in widened["avoided"] if a["nu"] != 3]
    for entry in widened["steps"][2]["cylinders"]:
        entry["prefix"] = entry["prefix"][:3]
    cyls = [
        Cylinder(system, DigitSystem.parse_digits(3, e["prefix"]))
        for system, e in zip(PRODUCT.factors, widened["steps"][2]["cylinders"])
    ]
    wide = [list(c.hull_text()) for c in cyls]
    widened["steps"][2]["box"] = wide
    widened["final_box"] = wide
    # sanity: the tampered blob still loads, so the exit code below
    # comes from verification and not from schema rejection
    certificate_from_json(copy.deepcopy(widened))
    path_c = tmp_path / "widened.json"
    path_c.write_text(json.dumps(widened))
    out_c = _run_certify(path_c)
    assert out_c.returncode == 4
    assert "failure:" in out_c.stdout
    assert "meets the box" in out_c.stdout


OUT_OF_SCOPE = (
    "uncountability of the constructed family",
    "total irrationality beyond the certified heights",
    "exact limiting values of the uniform exponents",
    "analytic manifold generalization",
)


def test_criterion_10_declared_out_of_scope():
    """Limit properties are declared out of scope in the README rather
    than silently claimed; the bounded-range suites above stand in for
    them."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text().lower()
    assert OUT_OF_SCOPE
    for item in OUT_OF_SCOPE:
        assert item in text, f"README must declare: {item}"
