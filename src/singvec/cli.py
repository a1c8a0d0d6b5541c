"""Command-line front end.

Subcommands: construct, certify, psi, records, roots, badness,
dirichlet.  All machine-facing numbers are printed as exact rationals
(or base^exp pairs when a value is irrational); decimals appear only as
display renderings and never feed back into any check.

Every flag is typed: argparse converts it with a library reader
(NormSpec.parse, PhiSpec.parse, parse_real, int) or with one of the
readers below, so a malformed flag is a usage error before any handler
runs, and a handler passes values on to the library, which makes every
other check.

Exit codes: 0 success, 1 usage, 2 search depth exhausted, 3 malformed
certificate or spec file, 4 verification failure, 5 precision
exhausted; main returns the exit_code of the error class raised.
Output is a deterministic function of the arguments.
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from .bounds import (
    exponent_ratio_bound,
    hypersurface_exponent_bound,
    refined_exponent_bound,
)
from .certificates import (
    Certificate,
    ConstructionSpec,
    PhiSpec,
    _loads,
    certificate_loads,
    power_to_json,
)
from .constructor import construct
from .digitsets import DigitSystem, ProductSet
from .engine import (
    SUP_NORM,
    AffineSubspaceSpec,
    NormSpec,
    badness_infimum,
    dirichlet_suite,
    exponent_estimate,
    psi,
    psi_simultaneous,
    record_sequence,
)
from .errors import (
    PrecisionExhausted,
    SingvecError,
    UsageError,
    VerificationFailure,
)
from .exact import dec_str, int_str, rat_str
from .powers import PowerValue
from .realdesc import ProductReal, parse_real
from .verifier import CHECKS, verify_certificate


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the exit-code
    contract reserves 2 for depth exhaustion, so route through the
    usage error instead."""

    def error(self, message):
        raise UsageError(message)


def _parse_number(text: str) -> Fraction:
    """p/q, a decimal or an exponent form such as 1e-9, exactly.  The
    decimal exponent is bounded so that no flag can demand a power of
    ten with billions of digits."""
    try:
        if "/" in text:
            return Fraction(text)
        dec = Decimal(text)
        if dec.is_finite() and abs(dec.adjusted()) <= 10**4:
            return Fraction(dec)
    except (ValueError, ArithmeticError):
        pass
    raise UsageError(f"cannot parse number {text!r}")


def _parse_spots(text: str) -> tuple[Fraction, ...]:
    """Spot-check thresholds T1,T2,...; 'none' disables them."""
    if text.strip().lower() == "none":
        return ()
    return tuple(_parse_number(t) for t in text.split(","))


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(d) for d in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad dimension list {text!r}") from exc


def _parse_cantor(text: str) -> DigitSystem:
    head, _, tail = text.partition(":")
    try:
        base = int(head)
        digits = tuple(int(d) for d in tail.split(","))
    except ValueError as exc:
        raise UsageError(
            f"digit system {text!r} must look like base:d1,d2,..."
        ) from exc
    return DigitSystem(base, digits)


def _fmt_value(value) -> str:
    """Exact rendering: rational, or base^exp for irrational powers."""
    obj = power_to_json(value)
    if isinstance(obj, dict):
        coef = f"{obj['coef']}*" if "coef" in obj else ""
        return f"{coef}{obj['base']}^({obj['exp']})"
    return obj


def _fmt_approx(value) -> str:
    """Display rendering of a value >= 0 that survives astronomically
    large ones: ~10^x outside 1e-15..1e15, else 12 significant digits of
    a 40-digit decimal evaluation, whose cost does not grow with the
    exponent; a rational value's, by _fmt_ratio, from integer division."""
    f = value.as_fraction() if isinstance(value, PowerValue) else value
    if f is not None:
        return _fmt_ratio(f.numerator, f.denominator)
    log10 = value.log_float() / math.log(10)
    if abs(log10) >= 15:
        return f"~10^{log10:.2f}"
    with localcontext() as ctx:
        ctx.prec = 40
        coef, base, exp = (
            Decimal(f.numerator) / f.denominator
            for f in (value.coef, value.base, value.exp)
        )
        d = coef * (exp * base.ln()).exp()
        ctx.prec = 12
        return f"{float(+d):.12g}"


def _fmt_ratio(p: int, q: int) -> str:
    """_fmt_approx(Fraction(p, q)), q > 0, with no gcd or decimal conversion:
    m = p * 10**s // q of 42 digits or more, and a sticky digit, round to 40."""
    if p <= 0:
        return "0" if p == 0 else "-" + _fmt_ratio(-p, q)
    log10 = (math.log(p) - math.log(q)) / math.log(10)
    if abs(log10) >= 15:
        return f"~10^{log10:.2f}"
    s = 42 - math.floor(log10)
    m, r = divmod(p * 10**s, q)
    with localcontext() as ctx:
        ctx.prec = 40
        d = Decimal(10 * m + (r > 0)).scaleb(-s - 1)
        ctx.prec = 12
        return f"{float(+d):.12g}"


# -- construct ----------------------------------------------------------


# construct's spec flags but --cantor, absent unless given, and the values
# a spec made from flags takes in their absence
_SPEC_DEFAULTS = dict(norm=SUP_NORM, phi=PhiSpec("pow", 3), steps=4, max_depth=64)


def _cmd_construct(args) -> int:
    given = [k for k in ("cantor", *_SPEC_DEFAULTS) if k in vars(args)]
    if args.spec is not None:
        if given:
            raise UsageError("--spec takes no other spec flag: got " + ", ".join(
                "--" + k.replace("_", "-") for k in given))
        with open(args.spec, "rb") as fh:
            spec = _loads(fh.read(), ConstructionSpec.from_json, "spec")
    elif "cantor" not in given:
        raise UsageError("need --cantor factors or --spec file")
    else:
        spec = ConstructionSpec(
            product=ProductSet(tuple(args.cantor)),
            **{k: getattr(args, k, v) for k, v in _SPEC_DEFAULTS.items()},
        )
    cert = construct(spec)
    text = cert.dumps()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    out = sys.stdout if args.output else sys.stderr
    print("step  k  anchor          height          bound", file=out)
    for step in cert.steps:
        anchor = _fmt_ratio(step.p, step.q)
        bound = "-" if step.bound_used is None else _fmt_approx(step.bound_used)
        height = _fmt_approx(step.phi_of_q)
        print(f"{step.nu:>4}  {step.k}  {anchor:<14}  {height:<14}  {bound}",
              file=out)
    widths = "  ".join(_fmt_approx(c.width) for c in cert.steps[-1].cylinders)
    print(f"final box widths: {widths}", file=out)
    return 0


# -- certify ------------------------------------------------------------

# How certify prints each of verifier.CHECKS, in its order.
_CHECK_LABELS = ("integrity", "nesting", "height", "anchor", "bound", "avoidance")


def _cmd_certify(args) -> int:
    with open(args.certificate, "rb") as fh:
        cert = certificate_loads(fh.read())
    report = verify_certificate(cert, args.spot_checks)
    for step in report.steps:
        marks = " ".join(
            f"{label}={'ok' if getattr(step, check) else 'FAIL'}"
            for label, check in zip(_CHECK_LABELS, CHECKS)
        )
        print(f"step {int_str(step.nu)}: {marks}")
    for spot in report.spot_checks:
        mark = "ok" if spot.ok else "FAIL"
        print(
            f"spot t={rat_str(spot.t)}: value_hi={rat_str(spot.value.hi)} "
            f"bound={_fmt_value(spot.bound)} {mark}"
        )
    if report.ok:
        print("certificate OK")
        return 0
    for message in report.failures:
        print(f"failure: {message}")
    raise VerificationFailure(
        f"certificate failed {len(report.failures)} check(s)"
    )


# -- psi ----------------------------------------------------------------


def _cmd_psi(args) -> int:
    if args.simultaneous:
        if args.norm.kind != "sup":
            raise UsageError("--simultaneous scans q >= 1 alone; it takes no --norm")
        value, witness = psi_simultaneous(args.xi, args.t, args.tol)
    else:
        value, witness = psi(args.norm, args.xi, args.t, args.tol)
    print(f"value_lo: {rat_str(value.lo)}")
    print(f"value_hi: {rat_str(value.hi)}")
    print(f"value: {dec_str(value.hi)}")
    print(f"witness: {witness}")
    return 0


# -- records ------------------------------------------------------------


def _cmd_records(args) -> int:
    seq = record_sequence(args.norm, args.xi, args.t_max)
    rows = [
        (
            _fmt_value(entry.threshold),
            rat_str(entry.value.lo),
            rat_str(entry.value.hi),
            str(entry.witness),
        )
        for entry in seq.entries
    ]
    print("threshold  value_lo  value_hi  witness")
    for row in rows:
        print("  ".join(row))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["threshold", "value_lo", "value_hi", "witness"])
            writer.writerows(rows)
    if len(seq.entries) >= 2 and all(e.value.lo > 0 for e in seq.entries):
        estimate, slopes = exponent_estimate(seq)
        print(f"decay exponent estimate: {rat_str(estimate)}")
        print(
            "local slopes: " + ", ".join(rat_str(s) for s in slopes)
        )
    return 0


# -- roots --------------------------------------------------------------


def _print_enclosure(label: str, enclosure, note: str = "") -> None:
    tail = f"  {note}" if note else ""
    print(
        f"{label} in [{dec_str(enclosure.lo)}, {dec_str(enclosure.hi)}]"
        f"{tail}"
    )
    print(f"  exact: [{rat_str(enclosure.lo)}, {rat_str(enclosure.hi)}]")


def _cmd_roots(args) -> int:
    if not (args.examples or args.W or args.H or args.G):
        raise UsageError("pick at least one of --W, --H, --G, --examples")
    tol = args.tol
    if args.examples:
        _print_enclosure(
            "W(1,2)", refined_exponent_bound(1, 2, tol), "= sqrt(3) - 1"
        )
        _print_enclosure("W(1,3)", refined_exponent_bound(1, 3, tol))
        _print_enclosure("W(2,3)", refined_exponent_bound(2, 3, tol))
        _print_enclosure(
            "H(2,2)", hypersurface_exponent_bound(2, 2, tol),
            "= (sqrt(5) - 1)/2",
        )
    if args.W:
        s, n = args.W
        _print_enclosure(f"W({s},{n})", refined_exponent_bound(s, n, tol))
    if args.H:
        n, d = args.H
        _print_enclosure(f"H({n},{d})", hypersurface_exponent_bound(n, d, tol))
    if args.G:
        n, omega = args.G
        _print_enclosure(
            f"G({n},{rat_str(omega)})", exponent_ratio_bound(n, omega, tol)
        )
    return 0


# -- badness ------------------------------------------------------------


def _cmd_badness(args) -> int:
    spec = AffineSubspaceSpec(
        shift=(args.theta,), matrix=((ProductReal(args.theta, args.theta),),)
    )
    caps = []
    power = 10
    while power < args.Q:
        caps.append(power)
        power *= 10
    caps.append(args.Q)
    # every cap is scanned before the table starts, so a bad --Q leaves
    # stdout empty
    results = [badness_infimum(spec, q_cap) for q_cap in caps]
    print("Q  value_lo  value_hi  value  witness")
    for q_cap, result in zip(caps, results):
        print(
            f"{q_cap}  {rat_str(result.value.lo)}  "
            f"{rat_str(result.value.hi)}  {dec_str(result.value.lo, 9)}  "
            f"{result.witness}"
        )
    return 0


# -- dirichlet ----------------------------------------------------------


def _cmd_dirichlet(args) -> int:
    report = dirichlet_suite(
        count=args.count, dims=args.dims, t_max=args.t_max, seed=args.seed
    )
    print(f"vectors checked: {report.vectors}")
    print(f"thresholds: t <= {report.t_max}")
    print(f"dual violations: {len(report.dual_violations)}")
    print(f"simultaneous violations: {len(report.simultaneous_violations)}")
    if not report.ok:
        for item in report.dual_violations[:10]:
            print(f"  dual: {item}")
        for item in report.simultaneous_violations[:10]:
            print(f"  simultaneous: {item}")
        raise VerificationFailure("Dirichlet bound violated")
    print("all bounds hold")
    return 0


# -- wiring -------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="singvec",
        description=(
            "Exact-arithmetic toolkit for approximation decay on "
            "digit-set products: nested-box constructions with "
            "machine-checkable certificates, exact value-function "
            "scans, and root-isolated exponent bounds."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("construct", help="run the nested-box construction")
    p.add_argument(
        "--cantor",
        action="append",
        type=_parse_cantor,
        default=argparse.SUPPRESS,
        metavar="BASE:D1,D2,...",
        help="one digit-system factor per flag (need n >= 2)",
    )
    p.add_argument("--spec", help="ConstructionSpec JSON file instead of flags")
    p.add_argument(
        "--phi", type=PhiSpec.parse, default=argparse.SUPPRESS,
        help="decay bound, e.g. pow:5",
    )
    p.add_argument("--steps", type=int, default=argparse.SUPPRESS)
    p.add_argument(
        "--norm", type=NormSpec.parse, default=argparse.SUPPRESS,
        help="sup or weighted:s1,s2,...",
    )
    p.add_argument("--max-depth", type=int, default=argparse.SUPPRESS)
    p.add_argument("-o", "--output", help="certificate path (default stdout)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("certify", help="verify a certificate file")
    p.add_argument("certificate")
    p.add_argument(
        "--spot-checks",
        type=_parse_spots,
        metavar="T1,T2,...",
        help="thresholds for value-function spot checks ('none' disables)",
    )
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("psi", help="value function at one threshold")
    p.add_argument(
        "--xi", action="append", type=parse_real, required=True,
        metavar="COORD",
    )
    p.add_argument("--t", type=_parse_number, required=True)
    p.add_argument("--norm", type=NormSpec.parse, default="sup")
    p.add_argument("--simultaneous", action="store_true")
    p.add_argument("--tol", type=_parse_number)
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser("records", help="record sequence up to a threshold")
    p.add_argument(
        "--xi", action="append", type=parse_real, required=True,
        metavar="COORD",
    )
    p.add_argument("--t-max", type=_parse_number, required=True)
    p.add_argument("--norm", type=NormSpec.parse, default="sup")
    p.add_argument(
        "--csv",
        help="also write the table as CSV "
        "(columns: threshold, value_lo, value_hi, witness)",
    )
    p.set_defaults(func=_cmd_records)

    p = sub.add_parser("roots", help="root-isolated exponent bounds")
    p.add_argument("--W", nargs=2, type=int, metavar=("S", "N"))
    p.add_argument("--H", nargs=2, type=int, metavar=("N", "D"))
    p.add_argument("--G", nargs=2, type=_parse_number, metavar=("N", "OMEGA"))
    p.add_argument("--tol", type=_parse_number, default="1e-9")
    p.add_argument(
        "--examples",
        action="store_true",
        help="print the built-in example table",
    )
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("badness", help="badness infimum for (theta, theta^2)")
    p.add_argument("--theta", type=parse_real, required=True)
    p.add_argument("--Q", type=int, required=True)
    p.set_defaults(func=_cmd_badness)

    p = sub.add_parser("dirichlet", help="pigeonhole-bound property suite")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--dims", type=_parse_dims, default="2,3")
    p.add_argument("--t-max", type=int, default=50)
    p.add_argument("--seed", type=int, default=20260819)
    p.set_defaults(func=_cmd_dirichlet)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = None  # stays None when a flag reader raises inside parse_args
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (SingvecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, PrecisionExhausted):
            # only psi honours --tol
            hint = "supply tighter input enclosures"
            if args is not None and args.func is _cmd_psi:
                hint = "loosen --tol or " + hint
            print(f"hint: {hint}", file=sys.stderr)
        return getattr(exc, "exit_code", UsageError.exit_code)


if __name__ == "__main__":
    sys.exit(main())
