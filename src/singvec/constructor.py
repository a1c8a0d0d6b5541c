"""Nested-box construction of well-approximable points on digit-set
products.

Each step pins one coordinate at a rational anchor whose height pushes
the norm value strictly upward, narrows the previously pinned
coordinate until its approximation error clears the decay bound at the
new height, detaches so the old anchor leaves the box permanently, and
finally descends in all coordinates until every low-height rational
hyperplane (per the step's height schedule) is separated from the box.

Every choice below is a deterministic function of the construction
spec: candidate
pins come out of a breadth-first, digit-lexicographic enumeration, and
separation descents pick coordinates and digits by fixed exact-value
rules.  Running the same spec twice yields byte-identical certificates.
"""
from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from .certificates import (
    AvoidedEntry,
    Certificate,
    ConstructionSpec,
    Step,
    default_avoidance_heights,
)
from .digitsets import Cylinder, cylinder_box, nests_strictly, rationals_in
from .engine import check_exponent
from .errors import DepthExhausted, NoRationalFound, SingvecError, UsageError
from .hyperplanes import (
    Hyperplane,
    _form_range,
    coordinate_hyperplane,
    hyperplanes_meeting,
    meets,
)
from .powers import PowerValue, exceeds

# Pins live at most this many levels below the current cylinder; the
# search is breadth-first so in practice the first or second level
# already qualifies, but a hard cap keeps degenerate specs from
# spinning forever.
_PIN_DEPTH_SLACK = 4096


def _pick_pin(cyl: Cylinder, norm, k: int, n: int, prev_phi):
    """First (shallowest, then digit-lexicographic) sub-cylinder whose
    hull sits strictly inside the current hull and whose anchor's
    height strictly raises the norm value.  Returns (p, q, phi, sub)."""
    cap = cyl.depth + _PIN_DEPTH_SLACK
    for anchor, sub in rationals_in(cyl, cyl.depth + 1):
        if sub.depth > cap:
            raise NoRationalFound(
                f"no admissible pin within {_PIN_DEPTH_SLACK} levels "
                f"below depth {cyl.depth} in coordinate {k}",
                cap,
            )
        if not nests_strictly((cyl,), (sub,)):
            continue
        q = anchor.denominator
        qvec = tuple(q if j == k - 1 else 0 for j in range(n))
        phi = norm.phi(qvec)
        if prev_phi is not None and not phi > prev_phi:
            continue
        return anchor.numerator, q, phi, sub


def _narrow_depth(need: Fraction, base: int, eps: PowerValue) -> tuple[int, int]:
    """The smallest depth L >= 0 with need / base**L < eps, and base**L.

    Float logs estimate L; they are right unless need / eps lies within
    rounding error of a power of base.  The estimate is then settled by
    powers.exceeds, float logs first and exact only at a near tie: step
    up while L does not fit, and down while L - 1 does, base**L made once
    and moved by one factor of base a step."""

    def fits(power: int) -> bool:
        return exceeds(eps, need.numerator, need.denominator * power)

    estimate = (PowerValue(need).log_float() - eps.log_float()) / math.log(base)
    depth = max(math.floor(estimate) + 1, 0)
    power = base**depth
    while not fits(power):
        depth, power = depth + 1, power * base
    while depth > 0 and fits(lower := power // base):
        depth, power = depth - 1, lower
    return depth, power


def _narrow_detach(cyl: Cylinder, p: int, q: int, eps: PowerValue) -> Cylinder:
    """Shrink around the anchor p/q until |q*x - p| < eps holds on the
    whole hull, then step off the anchor with _shrink_forced so both
    hull endpoints move strictly inward relative to the starting hull.

    The shrink takes the smallest-digit path to the least depth L with
    q * width / base**L < eps (strictly) by _narrow_depth's base**L."""
    need = q * cyl.width  # |q*x - p| <= q*width on [p/q, p/q + width]
    depth, power = _narrow_depth(need, cyl.system.base, eps)
    return _shrink_forced(cyl._descend_min(depth, power))


def _shrink_forced(cyl: Cylinder) -> Cylinder:
    """Second-smallest digit then smallest digit: two levels that move
    both hull endpoints strictly inward for any digit set."""
    return cyl.child(cyl.system.digits[1]).descend_min(1)


def _separate(cyls: list, plane: Hyperplane, pin_k: int, max_depth: int):
    """Descend until the plane's form interval over the box excludes 0.

    The coordinate with the widest hull among those the form actually
    uses is split each level (ties to the smaller index).  On the
    freshly pinned coordinate only the smallest digit is allowed, so
    the pin anchor never leaves the hull; elsewhere the first child
    that already separates wins, otherwise the child pushing the form's
    midpoint farthest from zero.
    """
    used = 0
    while True:
        if not meets(plane, cylinder_box(cyls)):
            return used
        if used >= max_depth:
            raise DepthExhausted(
                f"could not separate {plane} within {max_depth} levels", used
            )
        j = max(
            (j for j, c in enumerate(plane.mvec) if c != 0),
            key=lambda j: (cyls[j].width, -j),
        )
        if j == pin_k - 1:
            cyls[j] = cyls[j].child(cyls[j].system.dmin)
        else:
            cyls[j] = _separating_child(cyls, plane, j)
        used += 1


def _separating_child(cyls: list, plane: Hyperplane, j: int) -> Cylinder:
    """The first child of cyls[j] whose box the plane misses, else the
    first that pushes the form's midpoint farthest from zero: children
    of one depth share _form_range's den, so that is |lo + hi|."""
    trial = list(cyls)
    best = best_score = None
    for child in cyls[j].children():
        trial[j] = child
        lo, hi, _ = _form_range(plane, cylinder_box(trial))
        if not lo <= 0 <= hi:
            return child
        if best is None or abs(lo + hi) > best_score:
            best, best_score = child, abs(lo + hi)
    return best


def construct(spec: ConstructionSpec) -> Certificate:
    """Run the construction and return its certificate."""
    n = spec.dim
    cyls = [Cylinder.root(f) for f in spec.product.factors]
    steps: list[Step] = []
    avoided: list[AvoidedEntry] = []
    prev_phi = None
    prev_pin = None  # (p, q, k) of the previous step
    k = 1
    for nu in range(1, spec.steps + 1):
        prev_cyls = tuple(cyls)
        p, q, phi, sub = _pick_pin(cyls[k - 1], spec.norm, k, n, prev_phi)
        cyls[k - 1] = sub
        eps = spec.phi.value_at(phi)
        if steps:
            # refuse now an exponent certificate_loads would refuse; phi's,
            # 1/n or a weight's height exponent, the norm's and walk's checks hold
            check_exponent(eps.exp)
            steps[-1] = dataclasses.replace(steps[-1], bound_used=eps)
        if prev_pin is not None:
            pp, pq, pk = prev_pin
            if cyls[pk - 1].anchor() != Fraction(pp, pq):
                raise SingvecError(
                    "internal error: pin anchor drifted before narrowing"
                )
            cyls[pk - 1] = _narrow_detach(cyls[pk - 1], pp, pq, eps)
        for j in range(n):
            if j == k - 1 or (prev_pin is not None and j == prev_pin[2] - 1):
                continue
            cyls[j] = _shrink_forced(cyls[j])
        pin_plane = coordinate_hyperplane(k, Fraction(p, q), n)
        height = spec.avoidance_heights[nu - 1]
        candidates = [
            plane
            for plane in hyperplanes_meeting(n, height, cylinder_box(cyls))
            if plane != pin_plane
        ]
        for plane in candidates:
            _separate(cyls, plane, k, spec.max_depth)
            avoided.append(AvoidedEntry(nu, plane))
        if not nests_strictly(prev_cyls, cyls):
            raise SingvecError(
                f"internal error: step {nu} box is not strictly nested"
            )
        steps.append(Step(nu, k, p, q, phi, None, tuple(cyls)))
        prev_phi = phi
        prev_pin = (p, q, k)
        k = k % n + 1
    return Certificate(spec, tuple(steps), tuple(avoided))


def extend_spec(spec: ConstructionSpec, extra_steps: int) -> ConstructionSpec:
    """The same spec with extra steps appended to the schedule.  A
    default schedule keeps following the default rule; a custom one is
    padded with its last height (still non-decreasing)."""
    if extra_steps < 1:
        raise UsageError("extra_steps must be positive")
    total = spec.steps + extra_steps
    if spec.avoidance_heights == default_avoidance_heights(spec.steps):
        heights = default_avoidance_heights(total)
    else:
        heights = spec.avoidance_heights + (
            spec.avoidance_heights[-1],
        ) * extra_steps
    return dataclasses.replace(
        spec, steps=total, avoidance_heights=heights
    )


def refine_point(cert: Certificate, extra_steps: int) -> Certificate:
    """Continue a finished construction for extra_steps more pins.

    The construction is a deterministic function of its construction
    spec, so the
    cheapest faithful continuation is a re-run under the extended spec;
    the old steps must come back verbatim, and that is checked.
    """
    out = construct(extend_spec(cert.spec, extra_steps))
    old = [(s.nu, s.k, s.p, s.q) for s in cert.steps]
    new = [(s.nu, s.k, s.p, s.q) for s in out.steps[: len(old)]]
    if old != new:
        raise SingvecError(
            "internal error: refined run does not extend the original"
        )
    return out
