"""Job lists for the four workloads, their correctness checks, and the
cross-layer hooks the traced run installs.

A job is one public singvec call.  Jobs of a pass run in order; a job
may read the results of earlier jobs of the same pass (the certificate
pipeline construct -> dumps -> loads -> verify does).  Every result is
checked after the pass, outside the timed region:

* certificates must match a frozen SHA-256 of their bytes and verify ok;
* scan results on the frozen seed must equal the frozen values in
  ``expected.json``;
* on any other seed scan results must satisfy cheap invariants: witness
  height within the threshold, witness distance inside the reported
  enclosure, records strictly improving.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from singvec import (
    AffineSubspaceSpec,
    ConstructionSpec,
    DigitSystem,
    NormSpec,
    PhiSpec,
    ProductSet,
    RatInterval,
    badness_infimum,
    certificate_loads,
    construct,
    dirichlet_suite,
    lower_bound_check,
    parse_real,
    psi,
    psi_simultaneous,
    record_sequence,
    verify_certificate,
)
from singvec.exact import dist_interval, rat_str

import inputs

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
SUP = NormSpec("sup")
WEIGHTED = (
    NormSpec("weighted", (Fraction(2, 3), Fraction(1, 3))),
    NormSpec("weighted", (Fraction(1, 3), Fraction(2, 3))),
)
THIRDS = DigitSystem(3, (0, 2))
CHECK_BITS = 256


class Wrong(Exception):
    """A job returned a result that fails its correctness check."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


@dataclass
class Job:
    name: str  # unique within a pass
    span: str  # layer.function of the public call
    run: Callable[[dict], object]  # results of earlier jobs -> result
    check: Callable[[object, dict], None]  # raises Wrong
    plain: Callable[[object], object] | None = None  # frozen-value form
    vectors: int = 0  # candidate vectors in one pass over the job's box
    attrs: Callable[[object], dict] | None = None  # result -> span attrs
    may_refuse: bool = False  # PrecisionExhausted is a documented outcome


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def box_vectors(caps) -> int:
    """Size of ``signed_box(caps)``: one vector per antipodal pair."""
    return (math.prod(2 * c + 1 for c in caps) - 1) // 2


# -- certificates --------------------------------------------------------


def cert_spec(norm: NormSpec) -> ConstructionSpec:
    """Criterion 04 (sup) and 05 (weighted): six steps on the twofold
    middle-thirds product, decay t**-5."""
    return ConstructionSpec(
        product=ProductSet((THIRDS, THIRDS)),
        norm=norm,
        phi=PhiSpec("pow", exponent=Fraction(5)),
        steps=6,
    )


def den_bits(cert) -> int:
    return max(
        x.denominator.bit_length()
        for side in cert.final_box.sides
        for x in (side.lo, side.hi)
    )


def certify_jobs(tag: str, norm: NormSpec, frozen: dict) -> list[Job]:
    spec = cert_spec(norm)
    c, d, lo, v = (f"{step}.{tag}" for step in ("construct", "dumps", "loads", "verify"))
    spots = frozen["spot_checks"]

    def check_construct(cert, ctx):
        expect(len(cert.steps) == 6, "construct: expected 6 steps")

    def check_dumps(text, ctx):
        digest = hashlib.sha256(text.encode()).hexdigest()
        expect(digest == frozen["sha256"], f"dumps: sha256 {digest} differs from frozen")

    def check_loads(cert, ctx):
        expect(cert.final_box == ctx[c].final_box, "loads: final box differs")
        expect(len(cert.avoided) == len(ctx[c].avoided), "loads: avoided list differs")

    def check_verify(report, ctx):
        expect(report.ok and not report.failures, f"verify: {report.failures[:3]}")
        got = [rat_str(s.t) for s in report.spot_checks]
        expect(got == spots, f"verify: spot checks {got}, expected {spots}")

    return [
        Job(c, "constructor.construct", lambda ctx: construct(spec), check_construct,
            attrs=lambda cert: {"avoided": len(cert.avoided), "den_bits": den_bits(cert)}),
        Job(d, "certificates.dumps", lambda ctx: ctx[c].dumps(), check_dumps,
            attrs=lambda text: {"bytes": len(text.encode())}),
        Job(lo, "certificates.loads", lambda ctx: certificate_loads(ctx[d]), check_loads),
        Job(v, "verifier.verify", lambda ctx: verify_certificate(ctx[lo]), check_verify,
            attrs=lambda r: {"spot_checks": len(r.spot_checks), "failures": len(r.failures)}),
    ]


# -- independent re-checks of scan results ---------------------------------


@functools.lru_cache(maxsize=None)
def coordinate_enclosure(x) -> RatInterval:
    """Fresh descriptor, enclosed to CHECK_BITS, independent of the
    descriptor objects the engine refined."""
    desc = parse_real(x) if isinstance(x, str) else parse_real(rat_str(x))
    return desc.enclose(Fraction(1, 2**CHECK_BITS))


def form_distance(q, xs) -> RatInterval:
    """Enclosure of the nearest-integer distance of q . x."""
    lo = hi = Fraction(0)
    for c, x in zip(q, xs):
        iv = coordinate_enclosure(x)
        a, b = c * iv.lo, c * iv.hi
        lo += min(a, b)
        hi += max(a, b)
    return dist_interval(RatInterval(lo, hi))


def within_caps(norm: NormSpec, q, t) -> bool:
    """Phi(q) <= t, decided coordinatewise: |q_j|**(1/(n s_j)) <= t."""
    t = Fraction(t)
    if norm.kind == "sup":
        return max(abs(c) for c in q) <= t
    n = len(q)
    for c, s in zip(q, norm.weights):
        e = n * s.numerator  # |c|**s.den <= t**e
        if abs(c) ** s.denominator * t.denominator**e > t.numerator**e:
            return False
    return True


def check_psi(norm, xs, t):
    def check(result, ctx):
        value, q = result
        expect(any(q), "psi: zero witness")
        expect(within_caps(norm, q, t), f"psi: witness {q} above t={t}")
        expect(form_distance(q, xs).intersects(value),
               f"psi: witness distance outside {value}")

    return check


def check_records(norm, xs, t_max):
    def check(seq, ctx):
        expect(seq.entries, "records: empty")
        for prev, cur in zip(seq.entries, seq.entries[1:]):
            expect(prev.threshold < cur.threshold, "records: thresholds not increasing")
            expect(cur.value.hi < prev.value.lo, "records: values not decreasing")
        for e in seq.entries:
            expect(norm.phi(e.witness) == e.threshold, f"records: height of {e.witness}")
            expect(within_caps(norm, e.witness, t_max), f"records: {e.witness} above t_max")
            expect(form_distance(e.witness, xs).intersects(e.value),
                   f"records: distance of {e.witness} outside {e.value}")

    return check


def check_badness(rows, cap, irrational):
    def check(res, ctx):
        q = res.witness
        expect(any(q) and max(abs(c) for c in q) <= cap, f"badness: witness {q}")
        expect(res.exponent.denominator == 1, "badness: expected integer exponent")
        d = [form_distance(q, row) for row in rows]
        w = max(abs(c) for c in q) ** int(res.exponent)
        attained = RatInterval(max(iv.lo for iv in d) * w, max(iv.hi for iv in d) * w)
        expect(attained.intersects(res.value), f"badness: witness value outside {res.value}")
        expect(res.value.lo > 0 or not irrational, "badness: lower end not positive")

    return check


def check_lower_bound(xs, cap, c, w):
    """Every q before the reported first failure (all q up to cap on a
    pass) must not certainly break c * q**-w; the reported q must not
    certainly meet it."""
    def check(result, ctx):
        ok, first = result
        expect(ok == (first is None), f"lower bound: inconsistent {result}")
        last = cap if ok else first
        expect(1 <= last <= cap, f"lower bound: q={first} outside 1..{cap}")
        for q in range(1, last + 1):
            thr = c / Fraction(q) ** w
            d = [form_distance((q,), (x,)) for x in xs]
            if ok or q < last:
                expect(not max(iv.hi for iv in d) < thr, f"lower bound: q={q} fails")
            else:
                expect(not max(iv.lo for iv in d) >= thr, f"lower bound: q={q} holds")

    return check


def check_simultaneous(xs, t):
    def check(result, ctx):
        value, q = result
        expect(1 <= q <= t, f"simultaneous: q={q}")
        d = [form_distance((q,), (x,)) for x in xs]
        attained = RatInterval(max(iv.lo for iv in d), max(iv.hi for iv in d))
        expect(attained.intersects(value), f"simultaneous: q={q} outside {value}")

    return check


def check_suite(count):
    def check(report, ctx):
        expect(report.vectors == count and report.ok, "dirichlet: violations reported")

    return check


# -- frozen-value forms ----------------------------------------------------


def plain_iv(iv):
    return [rat_str(iv.lo), rat_str(iv.hi)]


def plain_pair(result):
    value, q = result
    return [plain_iv(value), list(q) if isinstance(q, tuple) else q]


def plain_records(seq):
    return [[str(e.threshold), *plain_iv(e.value), list(e.witness)] for e in seq.entries]


def plain_badness(res):
    return [plain_iv(res.value), list(res.witness)]


def plain_suite(report):
    return [report.vectors, len(report.dual_violations), len(report.simultaneous_violations)]


# -- scan workloads ----------------------------------------------------------

PSI2_T, PSI3_T, REC_T, REC_W_T, REC_N1_T = 300, 30, 100, 40, 10_000
SIM_T, LOWER_CAP, LOWER_C = 20_000, 2_000, Fraction(1, 1000)
ENCLOSED_BADNESS_CAP, EXACT_BADNESS_CAP = 300, 100
SUITE_COUNT, SUITE_T = 20, 50
# Mixed target (sqrt d, r) with r of denominator 36: psi below the
# denominator, records past it.
MIXED_PSI_T, MIXED_REC_T = 35, 72


def scan_jobs(xs, badness_cap) -> list[Job]:
    """Job shapes shared by both scan workloads.  ``xs`` holds three
    target coordinates: descriptor strings (sqrt d, cbrt e, cbrt e**2)
    or fractions.  The badness family is x -> (x, xs[1] + xs[2] x),
    criterion 08's cubic family on the enclosed side; the lower-bound
    line is x -> (x, xs[1] x) at x = xs[1]."""
    irrational = isinstance(xs[0], str)
    x1, x2 = xs[:1], xs[:2]
    rows = ((xs[1], xs[2]),)
    lifted = (xs[1], xs[2]) if irrational else (xs[1], xs[1] ** 2)
    w = WEIGHTED[0]
    return [
        Job("psi.n2", "engine.psi", lambda ctx: psi(SUP, x2, PSI2_T),
            check_psi(SUP, x2, PSI2_T), plain_pair,
            box_vectors(SUP.coordinate_caps(PSI2_T, 2))),
        Job("psi.n3", "engine.psi", lambda ctx: psi(SUP, xs, PSI3_T),
            check_psi(SUP, xs, PSI3_T), plain_pair,
            box_vectors(SUP.coordinate_caps(PSI3_T, 3))),
        Job("records.sup", "engine.record_sequence",
            lambda ctx: record_sequence(SUP, x2, REC_T),
            check_records(SUP, x2, REC_T), plain_records,
            box_vectors(SUP.coordinate_caps(REC_T, 2))),
        Job("records.weighted", "engine.record_sequence",
            lambda ctx: record_sequence(w, x2, REC_W_T),
            check_records(w, x2, REC_W_T), plain_records,
            box_vectors(w.coordinate_caps(REC_W_T, 2))),
        Job("records.n1", "engine.record_sequence",
            lambda ctx: record_sequence(SUP, x1, REC_N1_T),
            check_records(SUP, x1, REC_N1_T), plain_records, REC_N1_T),
        Job("badness", "engine.badness",
            lambda ctx: badness_infimum(
                AffineSubspaceSpec((xs[1],), ((xs[2],),)), badness_cap),
            check_badness(rows, badness_cap, irrational), plain_badness,
            box_vectors((badness_cap, badness_cap))),
        Job("lower_bound", "engine.lower_bound",
            lambda ctx: lower_bound_check(
                AffineSubspaceSpec(("0",), ((xs[1],),)), (xs[1],), LOWER_CAP, LOWER_C),
            check_lower_bound(lifted, LOWER_CAP, LOWER_C, 2), list, LOWER_CAP),
        Job("simultaneous", "engine.simultaneous",
            lambda ctx: psi_simultaneous(x2, SIM_T),
            check_simultaneous(x2, SIM_T), plain_pair, SIM_T),
    ]


def enclosed_jobs(seed: int) -> list[Job]:
    t = inputs.enclosed_targets(seed)
    xs = (t["sqrt"], t["cbrt"], t["cbrt_sq"])
    mixed = (t["sqrt"], t["mixed"])
    mixed_check = (t["sqrt"], t["mixed_value"])
    return scan_jobs(xs, ENCLOSED_BADNESS_CAP) + [
        Job("psi.mixed", "engine.psi", lambda ctx: psi(SUP, mixed, MIXED_PSI_T),
            check_psi(SUP, mixed_check, MIXED_PSI_T), plain_pair,
            box_vectors(SUP.coordinate_caps(MIXED_PSI_T, 2))),
        # Known defect (ROADMAP item 4): exact ties between q and
        # q + 36 e_2 make this raise PrecisionExhausted today.
        Job("records.mixed", "engine.record_sequence",
            lambda ctx: record_sequence(SUP, mixed, MIXED_REC_T),
            check_records(SUP, mixed_check, MIXED_REC_T), plain_records,
            box_vectors(SUP.coordinate_caps(MIXED_REC_T, 2)), may_refuse=True),
    ]


def exact_jobs(seed: int) -> list[Job]:
    t = inputs.exact_targets(seed)
    suite_seed = t["suite_seed"]
    return scan_jobs(t["x"], EXACT_BADNESS_CAP) + [
        Job("dirichlet", "engine.dirichlet",
            lambda ctx: dirichlet_suite(SUITE_COUNT, (2, 3), SUITE_T, suite_seed),
            check_suite(SUITE_COUNT), plain_suite,
            sum(box_vectors((SUITE_T,) * (2 + i % 2)) + SUITE_T for i in range(SUITE_COUNT))),
    ]


def build(workload: str, seed: int, expected: dict) -> list[Job]:
    """The job list of one pass.  On the frozen seed scan checks compare
    against ``expected`` instead of re-deriving invariants."""
    frozen = expected[workload]
    if workload == "certify-sup":
        return certify_jobs("sup", SUP, frozen["sup"])
    if workload == "certify-weighted":
        return (certify_jobs("w21", WEIGHTED[0], frozen["w21"])
                + certify_jobs("w12", WEIGHTED[1], frozen["w12"]))
    jobs = enclosed_jobs(seed) if workload == "scan-enclosed" else exact_jobs(seed)
    if seed == expected["seed"]:
        for job in jobs:
            if job.name in frozen:
                job.check = frozen_check(job, frozen[job.name])
    return jobs


def frozen_check(job: Job, want):
    def check(result, ctx):
        got = job.plain(result)
        expect(got == want, f"{job.name}: {got} differs from frozen {want}")

    return check


# -- cross-layer hooks for the traced run --------------------------------------


def hooks(tracer) -> list:
    """(owner, attribute, wrapper) triples for ``spans.patched``: the
    names verifier and constructor import from engine and hyperplanes,
    and every concrete ``enclose`` method of the descriptor classes."""
    from singvec import constructor, realdesc, verifier

    def scan_attrs(args, kwargs):
        norm, xi, t = args[:3]
        out = {"vectors": box_vectors(norm.coordinate_caps(t, len(xi)))}
        if "bits" in kwargs:
            out["bits"] = kwargs["bits"]
        return out

    def plane_attrs(args, kwargs):
        n, height = args[:2]
        return {"mvecs": box_vectors((height,) * n)}

    def enclose_attrs(args, kwargs):
        width = args[1]
        return {"bits": (width.denominator // width.numerator).bit_length() - 1}

    out = [
        (verifier, "psi_enclosure",
         tracer.wrap("engine.psi_enclosure", verifier.psi_enclosure, scan_attrs)),
        (verifier, "psi", tracer.wrap("engine.psi", verifier.psi, scan_attrs)),
    ]
    for module in (verifier, constructor):
        out.append((module, "hyperplanes_meeting",
                    tracer.wrap_generator("hyperplanes.meeting",
                                          module.hyperplanes_meeting, plane_attrs)))
    for cls in vars(realdesc).values():
        if (isinstance(cls, type) and issubclass(cls, realdesc.RealDescriptor)
                and "enclose" in vars(cls) and not getattr(cls.enclose, "__isabstractmethod__", False)):
            out.append((cls, "enclose",
                        tracer.wrap("realdesc.enclose", cls.enclose, enclose_attrs)))
    return out
