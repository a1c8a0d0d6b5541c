"""Independent certificate checking.

The verifier trusts nothing in the file beyond the digit prefixes and
the construction spec: every box is the hull of a step's prefixes,
every recorded height value and decay bound is recomputed from that
spec, and the geometric conditions are re-checked exactly, each on the
least data that decides it: nesting on the digit prefixes, a pin's
bound on the next hull of its own axis as integers, and the planes on
the box over one denominator.  The recorded boxes were judged against
those hulls when the file was read; the verifier reports the ones found
false (Certificate.false_boxes).
Every check reports through one fail(step, check, message) rather than
raising, so a single run surfaces every failing check of every step;
each step's report is read off those records at the end.  The rescan
of a step stops at its first crossing plane, so a hostile box costs no
more than one message per step; a rescan over the walk's own budget
makes a file no certificate (certificate_loads).

Checked once: the certificate has one step per height of its spec's
schedule, and its final box is the last step's.  Checked per step: the
recorded box matches its cylinders, strict nesting into the previous
box, strict growth of the norm value, the pin anchor still inside the
box, the approximation bound of each pin over the NEXT box (strict),
and hyperplane avoidance both ways (listed entries are really
separated; no plane at or below the step's height threshold meets the
box except the step's own pin).  Finally the value function is
spot-checked at requested thresholds against the decay bound at the
midpoint of the final box, read from the last step's cylinders; by
default at the recorded rational heights whose box scan the engine
admits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .certificates import Certificate
from .digitsets import Cylinder, nests_strictly
from .engine import _height_caps, _refine, psi, psi_enclosure
from .errors import UsageError
from .exact import RatInterval, int_str, rat_str
from .hyperplanes import coordinate_hyperplane, hyperplanes_meeting, meets
from .powers import PowerValue, exceeds

# The per-step checks, named as the flags of StepReport.
CHECKS = (
    "integrity", "nesting", "phi_increase", "anchor_in_box", "bound_chain",
    "avoidance",
)


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
        return all(getattr(self, check) for check in CHECKS)


@dataclass(frozen=True)
class SpotCheck:
    t: Fraction
    value: RatInterval
    bound: PowerValue
    ok: bool


@dataclass(frozen=True)
class VerificationReport:
    steps: tuple[StepReport, ...]
    spot_checks: tuple[SpotCheck, ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def default_spot_checks(cert: Certificate) -> tuple[Fraction, ...]:
    """Thresholds at the recorded heights from the second pin on, kept to
    the exact rational ones engine._height_caps admits: psi_enclosure scans
    each one whole, in about T**(n-1) log T steps at threshold T."""

    def admitted(t) -> bool:
        try:
            _height_caps(cert.spec.norm, cert.spec.dim, t)
        except UsageError:
            return False
        return True

    heights = (step.phi_of_q.as_fraction() for step in cert.steps[1:])
    return tuple(t for t in heights if t is not None and admitted(t))


def verify_certificate(
    cert: Certificate, spot_checks=None
) -> VerificationReport:
    """Every claim of cert re-checked, failures collected in check order.
    spot_checks replaces default_spot_checks; engine._height_caps refuses
    each threshold it does not admit before its decay bound is made."""
    n, norm, steps = cert.spec.dim, cert.spec.norm, cert.steps
    if spot_checks is not None:
        spot_checks = tuple(Fraction(t) for t in spot_checks)
        for t in spot_checks:
            _height_caps(norm, n, t)
    failures: list[str] = []
    failed: set[tuple[int | None, str]] = set()

    def fail(idx, check, message=None):
        """Record that check failed at step index idx (None: the whole
        certificate) and its message, if any, under the step's number."""
        failed.add((idx, check))
        if message is not None:
            at = "" if idx is None else f"step {int_str(steps[idx].nu)}: "
            failures.append(at + message)

    schedule = cert.spec.avoidance_heights  # one height per step of the spec
    if len(steps) != len(schedule):
        fail(None, "integrity", f"certificate has {len(steps)} steps, "
             f"its spec asks for {len(schedule)}")
    roots = tuple(Cylinder.root(f) for f in cert.spec.product.factors)
    heights = {}  # step index -> norm height of its pin
    pins = {}  # step index -> the plane x_k = p/q of its pin
    for idx, step in enumerate(steps):
        if idx in cert.false_boxes:
            fail(idx, "integrity", "recorded box does not match its cylinders")
        if step.nu != idx + 1:
            fail(idx, "integrity", f"step index out of order (expected {idx + 1})")
        if not 1 <= step.k <= n:
            fail(idx, "integrity", f"coordinate {int_str(step.k)} outside 1..{n}")
        if step.q < 1:
            fail(idx, "integrity", "pin denominator must be positive")
        if not 1 <= step.k <= n or step.q < 1:
            # no pin to measure or place: no check of this step can pass
            for check in CHECKS:
                fail(idx, check)
            continue
        if math.gcd(step.p, step.q) != 1:
            fail(idx, "integrity", "pin p/q is not in lowest terms")
        qvec = tuple(step.q if j == step.k - 1 else 0 for j in range(n))
        heights[idx] = norm.phi(qvec)
        if heights[idx] != step.phi_of_q:
            fail(idx, "integrity", "recorded height value does not match the norm")
        pins[idx] = coordinate_hyperplane(step.k, Fraction(step.p, step.q), n)
        prev = steps[idx - 1].cylinders if idx else roots
        if not nests_strictly(prev, step.cylinders):
            fail(idx, "nesting", "box is not strictly inside the previous box")
        if idx and not (idx - 1 in heights and heights[idx] > heights[idx - 1]):
            fail(idx, "phi_increase", "height value did not strictly increase")
        lo, hi, den = step.cylinders[step.k - 1].hull_ends()
        if not lo * step.q <= step.p * den <= hi * step.q:
            fail(idx, "anchor_in_box", "pin anchor left the box")

    # bound chain: pin nu against the box after step nu+1
    for idx, step in enumerate(steps):
        bound = step.bound_used
        if idx == len(steps) - 1:
            if bound is not None:
                fail(idx, "bound_chain", "last step must not carry a bound")
        elif bound is None:
            fail(idx, "bound_chain", "missing approximation bound")
        elif idx not in pins or idx + 1 not in heights:
            fail(idx, "bound_chain")  # a step without a pin: nothing to check
        else:
            if bound != cert.spec.phi.value_at(heights[idx + 1]):
                fail(idx, "bound_chain", "recorded bound does not equal the "
                     "decay bound at the next height")
            # |q x_k - m0| over the next hull on the pinned axis, over den;
            # hi - lo is small, so the form at hi costs no big product
            pin, k = pins[idx], step.k - 1
            lo, hi, den = steps[idx + 1].cylinders[k].hull_ends()
            at_lo = pin.mvec[k] * lo - pin.m0 * den
            reach = max(abs(at_lo), abs(at_lo + pin.mvec[k] * (hi - lo)))
            if not exceeds(bound, reach, den):
                fail(idx, "bound_chain", "approximation bound fails over the "
                     f"next box (|form| reaches {rat_str(Fraction(reach, den))})")

    # avoidance: listed separations hold, and nothing low meets the box
    by_step: dict[int, list] = {}
    for entry in cert.avoided:
        by_step.setdefault(entry.nu, []).append(entry.plane)
    for nu in by_step:
        if not 1 <= nu <= len(steps):
            fail(None, "avoidance",
                 f"avoided entry references unknown step {int_str(nu)}")
    for idx, step in enumerate(steps):
        for plane in by_step.get(step.nu, ()):
            if plane.dim != n:
                fail(idx, "avoidance", f"avoided plane {plane} has wrong dimension")
            elif meets(plane, step.box):
                fail(idx, "avoidance", f"avoided plane {plane} still meets the box")
        if idx >= len(schedule):
            fail(idx, "integrity")  # a step past the schedule: no threshold
            continue
        # anything hyperplanes_meeting yields crosses the box, so every
        # plane at or below the threshold other than the pin is a breach;
        # the first one fails the step, so the walk stops there
        height = schedule[idx]
        for plane in hyperplanes_meeting(n, height, step.box):
            if plane != pins.get(idx):
                fail(idx, "avoidance", f"plane {plane} at height "
                     f"{plane.height()} <= {height} meets the box")
                break

    if None in cert.false_boxes:
        fail(None, "integrity", "final box does not match the last step")
        fail(len(steps) - 1, "integrity")

    spot_reports: list[SpotCheck] = []
    if not failures:  # so the steps are those of the spec, at least one
        if spot_checks is None:
            spot_checks = default_spot_checks(cert)
        if spot_checks:
            midpoint = tuple(c.midpoint() for c in steps[-1].cylinders)
        for t in spot_checks:
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
                fail(None, "spot", f"spot check at t={rat_str(t)}: value "
                     f"reaches {rat_str(value.hi)}, decay bound is {bound}")

    reports = tuple(
        StepReport(step.nu, *((idx, check) not in failed for check in CHECKS))
        for idx, step in enumerate(steps)
    )
    return VerificationReport(reports, tuple(spot_reports), tuple(failures))
