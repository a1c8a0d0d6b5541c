"""Independent certificate checking.

The verifier trusts nothing in the file beyond the digit prefixes and
the construction spec: every hull is recomputed from the prefixes,
every recorded height value and decay bound is recomputed from that
spec, and the
geometric conditions are re-checked with exact interval arithmetic.
Problems are collected into a report rather than thrown, so a single
run surfaces everything that is wrong with a certificate.

Checked per step: the recorded box matches its cylinders, strict
nesting into the previous box, strict growth of the norm value, the
pin anchor still inside the box, the approximation bound of each pin
over the NEXT box (strict), and hyperplane avoidance both ways (listed
entries are really separated; no plane at or below the step's height
threshold meets the box except the step's own pin).  Finally the value
function is spot-checked at requested thresholds against the decay
bound at the midpoint of the final box.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .certificates import Certificate
from .engine import _refine, psi, psi_enclosure
from .exact import Box, RatInterval, rat_str
from .hyperplanes import (
    coordinate_hyperplane,
    hyperplanes_meeting,
    interval_linform,
)

SPOT_CHECK_CAP = Fraction(10_000)


@dataclass(frozen=True)
class StepReport:
    nu: int
    integrity: bool
    nesting: bool
    phi_increase: bool
    anchor_in_box: bool
    bound_chain: bool
    avoidance: bool

    @property
    def ok(self) -> bool:
        return (
            self.integrity
            and self.nesting
            and self.phi_increase
            and self.anchor_in_box
            and self.bound_chain
            and self.avoidance
        )


@dataclass(frozen=True)
class SpotCheck:
    t: Fraction
    value: RatInterval
    bound: object
    ok: bool


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    steps: tuple[StepReport, ...]
    spot_checks: tuple[SpotCheck, ...]
    failures: tuple[str, ...]


def default_spot_checks(cert: Certificate) -> tuple[Fraction, ...]:
    """Thresholds at the recorded heights from the second pin on, kept
    to exact rational values up to SPOT_CHECK_CAP.  psi_enclosure scans
    each one whole in about T**(n-1) log T steps at threshold T."""
    out = []
    for step in cert.steps[1:]:
        value = step.phi_of_q.as_fraction()
        if value is not None and value <= SPOT_CHECK_CAP:
            out.append(value)
    return tuple(out)


def verify_certificate(
    cert: Certificate, spot_checks=None
) -> VerificationReport:
    failures: list[str] = []
    n = cert.spec.dim
    norm = cert.spec.norm
    step_reports: list[StepReport] = []

    hulls: list[Box] = []
    phis = []
    planes = []
    for idx, step in enumerate(cert.steps):
        integrity = True

        def flag(message):
            nonlocal integrity
            integrity = False
            failures.append(f"step {step.nu}: {message}")

        hull = Box(tuple(c.hull() for c in step.cylinders))
        hulls.append(hull)
        if hull != step.box:
            flag("recorded box does not match its cylinders")
        if step.nu != idx + 1:
            flag(f"step index out of order (expected {idx + 1})")
        bad_k = not 1 <= step.k <= n
        if bad_k:
            flag(f"coordinate {step.k} outside 1..{n}")
        if step.q < 1:
            flag("pin denominator must be positive")
        if bad_k or step.q < 1:
            # no pin to measure or place: skip the height and the plane
            step_reports.append(
                StepReport(step.nu, False, False, False, False, False, False)
            )
            phis.append(None)
            planes.append(None)
            continue
        if math.gcd(step.p, step.q) != 1:
            flag("pin p/q is not in lowest terms")
        qvec = tuple(step.q if j == step.k - 1 else 0 for j in range(n))
        phi = norm.phi(qvec)
        phis.append(phi)
        if phi != step.phi_of_q:
            flag("recorded height value does not match the norm")
        planes.append(coordinate_hyperplane(step.k, Fraction(step.p, step.q), n))

        prev = cert.spec.product.hull() if idx == 0 else hulls[idx - 1]
        nesting = prev.contains_interior(hull)
        if not nesting:
            failures.append(
                f"step {step.nu}: box is not strictly inside the previous box"
            )

        phi_increase = idx == 0 or (
            phis[idx - 1] is not None and phi > phis[idx - 1]
        )
        if not phi_increase:
            failures.append(
                f"step {step.nu}: height value did not strictly increase"
            )

        anchor_ok = hull.sides[step.k - 1].contains(Fraction(step.p, step.q))
        if not anchor_ok:
            failures.append(f"step {step.nu}: pin anchor left the box")

        step_reports.append(
            StepReport(
                step.nu, integrity, nesting, phi_increase, anchor_ok,
                True, True,
            )
        )

    # bound chain: pin nu against the box after step nu+1
    for idx, step in enumerate(cert.steps):
        ok = True
        last = idx == len(cert.steps) - 1
        if last:
            if step.bound_used is not None:
                ok = False
                failures.append(
                    f"step {step.nu}: last step must not carry a bound"
                )
        elif step.bound_used is None:
            ok = False
            failures.append(f"step {step.nu}: missing approximation bound")
        elif phis[idx + 1] is None or planes[idx] is None:
            ok = False
        else:
            expected = cert.spec.phi.value_at(phis[idx + 1])
            if not step.bound_used == expected:
                ok = False
                failures.append(
                    f"step {step.nu}: recorded bound does not equal the "
                    f"decay bound at the next height"
                )
            form = interval_linform(planes[idx], hulls[idx + 1])
            reach = max(abs(form.lo), abs(form.hi))
            if not reach < step.bound_used:
                ok = False
                failures.append(
                    f"step {step.nu}: approximation bound fails over the "
                    f"next box (|form| reaches {rat_str(reach)})"
                )
        if not ok:
            step_reports[idx] = replace(step_reports[idx], bound_chain=False)

    # avoidance: listed separations hold, and nothing low meets the box
    by_step: dict[int, list] = {}
    for entry in cert.avoided:
        by_step.setdefault(entry.nu, []).append(entry.plane)
    for nu in by_step:
        if not 1 <= nu <= len(cert.steps):
            failures.append(f"avoided entry references unknown step {nu}")
    for idx, step in enumerate(cert.steps):
        ok = True
        for plane in by_step.get(step.nu, ()):
            if plane.dim != n:
                ok = False
                failures.append(f"step {step.nu}: avoided plane {plane} has wrong dimension")
                continue
            if interval_linform(plane, hulls[idx]).contains(Fraction(0)):
                ok = False
                failures.append(
                    f"step {step.nu}: avoided plane {plane} still meets the box"
                )
        # anything hyperplanes_meeting yields crosses the box, so every
        # plane at or below the threshold other than the pin is a breach
        height = cert.spec.avoidance_heights[idx]
        for plane in hyperplanes_meeting(n, height, hulls[idx]):
            if planes[idx] is not None and plane == planes[idx]:
                continue
            ok = False
            failures.append(
                f"step {step.nu}: plane {plane} at height "
                f"{plane.height()} <= {height} meets the box"
            )
        if not ok:
            step_reports[idx] = replace(step_reports[idx], avoidance=False)

    if hulls and cert.final_box != hulls[-1]:
        failures.append("final box does not match the last step")
        step_reports[-1] = replace(step_reports[-1], integrity=False)
    if not cert.steps:
        failures.append("certificate has no steps")

    spot_reports: list[SpotCheck] = []
    if cert.steps and not failures:
        thresholds = (
            default_spot_checks(cert) if spot_checks is None
            else tuple(Fraction(t) for t in spot_checks)
        )
        midpoint = hulls[-1].midpoint
        for t in thresholds:
            bound = cert.spec.phi.value_at(t)
            # Cheap fixed precision first: the enclosure pass gives sound
            # two-sided bounds, so it settles the comparison unless the
            # bound lands inside the interval.  Only then pay for more
            # bits, with the exact scan as a last resort.
            def spot(bits, last):
                value = psi_enclosure(norm, midpoint, t, bits=bits)
                if value.hi <= bound or value.lo > bound:
                    return value
                return psi(norm, midpoint, t)[0] if last else None

            value = _refine(
                spot, 128, 1024, "spot check undecided at {bits} bits"
            )
            ok = value.hi <= bound
            spot_reports.append(SpotCheck(t, value, bound, ok))
            if not ok:
                failures.append(
                    f"spot check at t={t}: value reaches {value.hi}, "
                    f"decay bound is {bound}"
                )

    report_ok = not failures and all(r.ok for r in step_reports)
    return VerificationReport(
        report_ok, tuple(step_reports), tuple(spot_reports), tuple(failures)
    )
