"""Command-line front end.

Subcommands: construct, certify, psi, records, roots, badness,
dirichlet.  All machine-facing numbers are printed as exact rationals
(or base^exp pairs when a value is irrational); decimals appear only as
display renderings and never feed back into any check.

Exit codes: 0 success, 1 usage, 2 search depth exhausted, 3 malformed
certificate schema, 4 verification failure, 5 precision exhausted.
Output is a deterministic function of the arguments.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from decimal import Decimal
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
    certificate_loads,
    power_to_json,
)
from .constructor import construct
from .digitsets import DigitSystem, ProductSet
from .engine import (
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
    DepthExhausted,
    PrecisionExhausted,
    SchemaError,
    SingvecError,
    UsageError,
    VerificationFailure,
)
from .exact import dec_str, rat_str
from .powers import PowerValue
from .realdesc import ProductReal, parse_real
from .verifier import verify_certificate


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the exit-code
    contract reserves 2 for depth exhaustion, so route through the
    usage error instead."""

    def error(self, message):
        raise UsageError(message)


def _parse_tol(text: str) -> Fraction:
    try:
        return Fraction(Decimal(text))
    except (ValueError, ArithmeticError) as exc:
        raise UsageError(f"cannot parse tolerance {text!r}") from exc


def _parse_rat(text: str) -> Fraction:
    try:
        if "." in text or "e" in text.lower():
            return Fraction(Decimal(text))
        return Fraction(text)
    except (ValueError, ZeroDivisionError, ArithmeticError) as exc:
        raise UsageError(f"cannot parse rational {text!r}") from exc


def _parse_cantor(text: str) -> DigitSystem:
    head, sep, tail = text.partition(":")
    if not sep:
        raise UsageError(
            f"digit system {text!r} must look like base:d1,d2,..."
        )
    try:
        base = int(head)
        digits = tuple(int(d) for d in tail.split(","))
    except ValueError as exc:
        raise UsageError(f"bad digit system {text!r}") from exc
    return DigitSystem(base, digits)


def _fmt_value(value) -> str:
    """Exact rendering: rational, or base^exp for irrational powers."""
    obj = power_to_json(value) if isinstance(value, (PowerValue, Fraction)) \
        else str(value)
    if isinstance(obj, dict):
        coef = f"{obj['coef']}*" if "coef" in obj else ""
        return f"{coef}{obj['base']}^({obj['exp']})"
    return obj


def _fmt_approx(value) -> str:
    """Display rendering that survives astronomically large values."""
    if isinstance(value, PowerValue):
        log10 = value.log_float() / math.log(10)
    else:
        value = Fraction(value)
        if value == 0:
            return "0"
        log10 = math.log10(abs(value.numerator)) - math.log10(
            value.denominator
        )
    if abs(log10) < 15:
        f = (
            value.to_float() if isinstance(value, PowerValue)
            else float(value)
        )
        return f"{f:.12g}"
    return f"~10^{log10:.2f}"


# -- construct ----------------------------------------------------------


def _cmd_construct(args) -> int:
    if args.spec is not None:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = ConstructionSpec.from_json(json.load(fh))
    else:
        if not args.cantor:
            raise UsageError("need --cantor factors or --spec file")
        product = ProductSet(tuple(_parse_cantor(c) for c in args.cantor))
        norm = NormSpec.parse(args.norm)
        phi = PhiSpec.parse(args.phi)
        if args.steps < 1:
            raise UsageError("need at least 1 step")
        spec = ConstructionSpec(
            product=product,
            norm=norm,
            phi=phi,
            steps=args.steps,
            max_depth=args.max_depth,
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
        anchor = Fraction(step.p, step.q)
        bound = (
            "-" if step.bound_used is None else _fmt_approx(step.bound_used)
        )
        print(
            f"{step.nu:>4}  {step.k}  {_fmt_approx(anchor):<14}  "
            f"{_fmt_approx(step.phi_of_q):<14}  {bound}",
            file=out,
        )
    widths = "  ".join(_fmt_approx(s.width) for s in cert.final_box.sides)
    print(f"final box widths: {widths}", file=out)
    return 0


# -- certify ------------------------------------------------------------


def _cmd_certify(args) -> int:
    with open(args.certificate, "r", encoding="utf-8") as fh:
        cert = certificate_loads(fh.read())
    spots = None
    if args.spot_checks:
        if args.spot_checks.strip().lower() == "none":
            spots = ()
        else:
            spots = tuple(_parse_rat(t) for t in args.spot_checks.split(","))
    report = verify_certificate(cert, spots)
    for step in report.steps:
        marks = " ".join(
            f"{name}={'ok' if value else 'FAIL'}"
            for name, value in (
                ("integrity", step.integrity),
                ("nesting", step.nesting),
                ("height", step.phi_increase),
                ("anchor", step.anchor_in_box),
                ("bound", step.bound_chain),
                ("avoidance", step.avoidance),
            )
        )
        print(f"step {step.nu}: {marks}")
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


def _xi_from_args(args) -> tuple:
    if not args.xi:
        raise UsageError("need at least one --xi coordinate")
    return tuple(parse_real(x) for x in args.xi)


def _cmd_psi(args) -> int:
    xi = _xi_from_args(args)
    t = _parse_rat(args.t)
    tol = _parse_tol(args.tol) if args.tol else None
    if args.simultaneous:
        value, witness = psi_simultaneous(xi, t, tol)
    else:
        norm = NormSpec.parse(args.norm)
        norm.check_dim(len(xi))
        value, witness = psi(norm, xi, t, tol)
    print(f"value_lo: {rat_str(value.lo)}")
    print(f"value_hi: {rat_str(value.hi)}")
    print(f"value: {dec_str(value.hi)}")
    print(f"witness: {witness}")
    return 0


# -- records ------------------------------------------------------------


def _cmd_records(args) -> int:
    xi = _xi_from_args(args)
    norm = NormSpec.parse(args.norm)
    norm.check_dim(len(xi))
    t_max = _parse_rat(args.t_max)
    tol = _parse_tol(args.tol) if args.tol else None
    seq = record_sequence(norm, xi, t_max, tol)
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
    tol = _parse_tol(args.tol)
    ran = False
    if args.examples:
        ran = True
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
        ran = True
        s, n = (int(x) for x in args.W)
        _print_enclosure(f"W({s},{n})", refined_exponent_bound(s, n, tol))
    if args.H:
        ran = True
        n, d = (int(x) for x in args.H)
        _print_enclosure(f"H({n},{d})", hypersurface_exponent_bound(n, d, tol))
    if args.G:
        ran = True
        n = int(args.G[0])
        omega = _parse_rat(args.G[1])
        _print_enclosure(
            f"G({n},{rat_str(omega)})", exponent_ratio_bound(n, omega, tol)
        )
    if not ran:
        raise UsageError("pick at least one of --W, --H, --G, --examples")
    return 0


# -- badness ------------------------------------------------------------


def _cmd_badness(args) -> int:
    theta = parse_real(args.theta)
    spec = AffineSubspaceSpec(
        shift=(theta,), matrix=((ProductReal(theta, theta),),)
    )
    cap = args.Q
    if cap < 1:
        raise UsageError("--Q must be at least 1")
    caps = []
    power = 10
    while power < cap:
        caps.append(power)
        power *= 10
    caps.append(cap)
    print("Q  value_lo  value_hi  value  witness")
    for q_cap in caps:
        result = badness_infimum(spec, q_cap)
        print(
            f"{q_cap}  {rat_str(result.value.lo)}  "
            f"{rat_str(result.value.hi)}  {dec_str(result.value.lo, 9)}  "
            f"{result.witness}"
        )
    return 0


# -- dirichlet ----------------------------------------------------------


def _cmd_dirichlet(args) -> int:
    dims = tuple(int(d) for d in args.dims.split(","))
    report = dirichlet_suite(
        count=args.count, dims=dims, t_max=args.t_max, seed=args.seed
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
            "machine-checkable certificates, value-function brute "
            "force, and root-isolated exponent bounds."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("construct", help="run the nested-box construction")
    p.add_argument(
        "--cantor",
        action="append",
        default=[],
        metavar="BASE:D1,D2,...",
        help="one digit-system factor per flag (need n >= 2)",
    )
    p.add_argument("--spec", help="ConstructionSpec JSON file instead of flags")
    p.add_argument("--phi", default="pow:3", help="decay bound, e.g. pow:5")
    p.add_argument("--steps", type=int, default=4)
    p.add_argument("--norm", default="sup", help="sup or weighted:s1,s2,...")
    p.add_argument("--max-depth", type=int, default=64)
    p.add_argument("-o", "--output", help="certificate path (default stdout)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("certify", help="verify a certificate file")
    p.add_argument("certificate")
    p.add_argument(
        "--spot-checks",
        metavar="T1,T2,...",
        help="thresholds for value-function spot checks ('none' disables)",
    )
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("psi", help="value function at one threshold")
    p.add_argument("--xi", action="append", default=[], metavar="COORD")
    p.add_argument("--t", required=True)
    p.add_argument("--norm", default="sup")
    p.add_argument("--simultaneous", action="store_true")
    p.add_argument("--tol")
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser("records", help="record sequence up to a threshold")
    p.add_argument("--xi", action="append", default=[], metavar="COORD")
    p.add_argument("--t-max", required=True)
    p.add_argument("--norm", default="sup")
    p.add_argument("--tol")
    p.add_argument(
        "--csv",
        help="also write the table as CSV "
        "(columns: threshold, value_lo, value_hi, witness)",
    )
    p.set_defaults(func=_cmd_records)

    p = sub.add_parser("roots", help="root-isolated exponent bounds")
    p.add_argument("--W", nargs=2, metavar=("S", "N"))
    p.add_argument("--H", nargs=2, metavar=("N", "D"))
    p.add_argument("--G", nargs=2, metavar=("N", "OMEGA"))
    p.add_argument("--tol", default="1e-9")
    p.add_argument(
        "--examples",
        action="store_true",
        help="print the built-in example table",
    )
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("badness", help="badness infimum for (theta, theta^2)")
    p.add_argument("--theta", required=True)
    p.add_argument("--Q", type=int, required=True)
    p.set_defaults(func=_cmd_badness)

    p = sub.add_parser("dirichlet", help="pigeonhole-bound property suite")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--dims", default="2,3")
    p.add_argument("--t-max", type=int, default=50)
    p.add_argument("--seed", type=int, default=20260819)
    p.set_defaults(func=_cmd_dirichlet)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DepthExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VerificationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except PrecisionExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        # only psi honours --tol
        hint = "supply tighter input enclosures"
        if args.func is _cmd_psi:
            hint = "loosen --tol or " + hint
        print(f"hint: {hint}", file=sys.stderr)
        return 5
    except SingvecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
