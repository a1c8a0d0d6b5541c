"""Command-line interface: subcommand output, exit-code contract,
byte-level determinism."""
import csv
import json
import math
import random
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singvec import (
    ConstructionSpec,
    DigitSystem,
    NormSpec,
    PhiSpec,
    PowerValue,
    ProductSet,
    construct,
)
from singvec.cli import _fmt_approx, _fmt_ratio
from singvec.cli import main as cli_main

CMD = [sys.executable, "-m", "singvec"]


def run(*argv, **kw):
    return subprocess.run(
        CMD + list(argv), capture_output=True, text=True, timeout=300, **kw
    )


def build_cert(tmp_path, steps="2", name="cert.json"):
    path = tmp_path / name
    out = run(
        "construct",
        "--cantor", "3:0,2", "--cantor", "3:0,2",
        "--phi", "pow:5",
        "--steps", steps,
        "-o", str(path),
    )
    assert out.returncode == 0, out.stderr
    return path


# -- construct ------------------------------------------------------------


def test_construct_writes_certificate_and_table(tmp_path):
    path = tmp_path / "c.json"
    out = run(
        "construct", "--cantor", "3:0,2", "--cantor", "3:0,2",
        "--phi", "pow:5", "--steps", "2", "-o", str(path),
    )
    assert out.returncode == 0
    assert path.exists()
    assert '"version": 1' in path.read_text()
    assert "step  k  anchor" in out.stdout
    assert "final box widths:" in out.stdout


# the table of each 6-step pow:5 build on the twofold middle-thirds set
TABLES = {
    "sup": """\
step  k  anchor          height          bound
   1  1  0.222222222222  9               ~10^-16.70
   2  2  0.766346593507  2187            ~10^-100.20
   3  1  0.222222222222  ~10^20.04       ~10^-529.60
   4  2  0.766346593507  ~10^105.92      ~10^-2760.15
   5  1  0.222222222222  ~10^552.03      ~10^-14342.26
   6  2  0.766346593507  ~10^2868.45     -
final box widths: ~10^-14895.73  ~10^-2868.45
""",
    "weighted:2/3,1/3": """\
step  k  anchor          height          bound
   1  1  0.222222222222  5.19615242271   ~10^-25.05
   2  2  0.766346593507  102275.868136   ~10^-105.56
   3  1  0.222222222222  ~10^21.11       ~10^-833.77
   4  2  0.766346593507  ~10^166.75      ~10^-3240.25
   5  1  0.222222222222  ~10^648.05      ~10^-25152.64
   6  2  0.766346593507  ~10^5030.53     -
final box widths: ~10^-26017.90  ~10^-3353.69
""",
}


@pytest.mark.parametrize("norm", sorted(TABLES))
def test_construct_table_is_frozen(tmp_path, capsys, norm):
    argv = [
        "construct", "--cantor", "3:0,2", "--cantor", "3:0,2", "--norm", norm,
        "--phi", "pow:5", "--steps", "6", "-o", str(tmp_path / "c.json"),
    ]
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == TABLES[norm]


def test_construct_stdout_mode_keeps_json_clean(tmp_path):
    out = run(
        "construct", "--cantor", "3:0,2", "--cantor", "3:0,2",
        "--phi", "pow:5", "--steps", "2",
    )
    assert out.returncode == 0
    # the certificate owns stdout; the table goes to stderr
    assert out.stdout.lstrip().startswith("{")
    assert "final box widths:" in out.stderr
    import json

    json.loads(out.stdout)


def test_construct_reruns_byte_identical(tmp_path):
    a = build_cert(tmp_path, name="a.json").read_text()
    b = build_cert(tmp_path, name="b.json").read_text()
    assert a == b


def test_construct_usage_errors(tmp_path):
    out = run("construct", "--cantor", "3:0,2", "--steps", "2")
    assert out.returncode == 1
    assert "n >= 2" in out.stderr
    out = run(
        "construct", "--cantor", "3:0,2", "--cantor", "3:0,2",
        "--steps", "0",
    )
    assert out.returncode == 1
    out = run("construct")
    assert out.returncode == 1
    assert "need --cantor factors or --spec file" in out.stderr


def test_construct_refuses_a_digit_no_character_holds(tmp_path, capsys):
    # a prefix word holds one character per digit: chr stops at 0x10FFFF
    argv = ["construct", "--cantor", "2000000:0,1114112", "--cantor", "3:0,2"]
    assert cli_main(argv + ["-o", str(tmp_path / "c.json")]) == 1
    assert "below 1114112" in capsys.readouterr().err


def test_construct_table_shows_a_negative_anchor(tmp_path, capsys):
    # a factor offset by -1 pins below 0; its anchor once raised here
    spec = ConstructionSpec(
        ProductSet((DigitSystem(3, (0, 2), offset=Fraction(-1)), DigitSystem(3, (0, 2)))),
        NormSpec("sup"), PhiSpec.parse("pow:3"), 2,
    )
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_json()))
    assert cli_main(["construct", "--spec", str(path), "-o", str(tmp_path / "c.json")]) == 0
    assert "   1  1  -0.777777777778  9 " in capsys.readouterr().out


def test_construct_depth_exhausted_exit_2(tmp_path):
    out = run(
        "construct", "--cantor", "3:0,2", "--cantor", "3:0,2",
        "--phi", "pow:5", "--steps", "2", "--max-depth", "2",
    )
    assert out.returncode == 2
    assert "could not separate" in out.stderr


def test_fourfold_twelve_steps_construct_and_certify_at_once(tmp_path):
    # each plane walk is charged on its step's own box, narrow from
    # step 2 on, so the schedule's height 14 fits the budget
    path = tmp_path / "cert.json"
    for argv in (
        ("construct", *("--cantor", "3:0,2") * 4, "--steps", "12",
         "-o", str(path)),
        ("certify", str(path)),
    ):
        start = time.monotonic()
        out = run(*argv)
        assert out.returncode == 0, out.stderr
        assert time.monotonic() - start < 5
    assert "certificate OK" in out.stdout


# -- certify --------------------------------------------------------------


def test_certify_round_trip(tmp_path):
    path = build_cert(tmp_path)
    out = run("certify", str(path), "--spot-checks", "9")
    assert out.returncode == 0, out.stderr
    assert "certificate OK" in out.stdout
    assert "step 1: integrity=ok nesting=ok height=ok anchor=ok " \
        "bound=ok avoidance=ok" in out.stdout
    assert "spot t=9:" in out.stdout
    assert " ok" in out.stdout


def test_certify_spot_checks_none(tmp_path):
    path = build_cert(tmp_path)
    out = run("certify", str(path), "--spot-checks", "none")
    assert out.returncode == 0
    assert "spot" not in out.stdout
    assert "certificate OK" in out.stdout


def test_certify_schema_error_exit_3(tmp_path):
    path = build_cert(tmp_path)
    import json

    obj = json.loads(path.read_text())
    obj["version"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    out = run("certify", str(bad))
    assert out.returncode == 3
    assert "unsupported certificate version" in out.stderr


def test_certify_not_json_exit_3(tmp_path):
    bad = tmp_path / "garbage.json"
    bad.write_text("{nope")
    out = run("certify", str(bad))
    assert out.returncode == 3
    assert "not JSON" in out.stderr


def test_certify_tampered_exit_4(tmp_path):
    path = build_cert(tmp_path)
    import json

    obj = json.loads(path.read_text())
    obj["steps"][0]["bound_used"] = "1/100000000000000000000000000"
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(obj))
    out = run("certify", str(bad), "--spot-checks", "none")
    assert out.returncode == 4
    assert "failure:" in out.stdout
    assert "bound=FAIL" in out.stdout


def test_certify_zero_denominator_exit_3(tmp_path):
    path = build_cert(tmp_path, steps="3")
    import json

    obj = json.loads(path.read_text())
    obj["steps"][1]["box"][0][0] = "1/0"
    bad = tmp_path / "zero-den.json"
    bad.write_text(json.dumps(obj))
    out = run("certify", str(bad))
    assert out.returncode == 3
    assert "zero denominator" in out.stderr
    assert "Traceback" not in out.stderr


def test_certify_false_last_box_copied_into_the_final_box_fails_both(tmp_path):
    # the final box is judged against the last step's hull, not against
    # that step's recorded text: a false box copied there is false twice
    path = build_cert(tmp_path, steps="3")
    import json

    obj = json.loads(path.read_text())
    obj["steps"][-1]["box"][0][1] = "1"
    obj["final_box"] = obj["steps"][-1]["box"]
    bad = tmp_path / "false-last-box.json"
    bad.write_text(json.dumps(obj))
    out = run("certify", str(bad), "--spot-checks", "none")
    assert out.returncode == 4
    assert "step 3: recorded box does not match its cylinders" in out.stdout
    assert "final box does not match the last step" in out.stdout


def test_certify_zero_pin_denominator_exit_4(tmp_path):
    path = build_cert(tmp_path, steps="3")
    import json

    obj = json.loads(path.read_text())
    obj["steps"][1]["q"] = 0
    bad = tmp_path / "zero-q.json"
    bad.write_text(json.dumps(obj))
    out = run("certify", str(bad))
    assert out.returncode == 4
    assert "pin denominator must be positive" in out.stdout
    assert "Traceback" not in out.stderr


def default_limit_run(*argv):
    """run() in a child held to the interpreter's default digit guard."""
    return subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=4300", "-m", "singvec"]
        + list(argv),
        capture_output=True, text=True, timeout=300,
    )


def test_weighted_round_trip_under_the_default_digit_limit(tmp_path):
    # box endpoints of this certificate run to 26k digits; no path may
    # need the interpreter's int<->str guard raised
    path = tmp_path / "weighted.json"
    out = default_limit_run(
        "construct", "--cantor", "3:0,2", "--cantor", "3:0,2",
        "--phi", "pow:5", "--norm", "weighted:2/3,1/3", "--steps", "6",
        "-o", str(path),
    )
    assert out.returncode == 0, out.stderr
    thirds = DigitSystem(3, (0, 2))
    spec = ConstructionSpec(
        product=ProductSet((thirds, thirds)),
        norm=NormSpec("weighted", (Fraction(2, 3), Fraction(1, 3))),
        phi=PhiSpec("pow", exponent=Fraction(5)),
        steps=6,
    )
    assert path.read_bytes() == construct(spec).dumps().encode()
    out = default_limit_run("certify", str(path))
    assert out.returncode == 0, out.stderr
    assert "certificate OK" in out.stdout

    # a failing bound reports its reach over the 26k-digit box
    import json

    obj = json.loads(path.read_text())
    obj["steps"][-2]["bound_used"] = "1/1" + "0" * 30_000
    path.write_text(json.dumps(obj))
    out = default_limit_run("certify", str(path), "--spot-checks", "none")
    assert out.returncode == 4, out.stderr
    assert "|form| reaches" in out.stdout


def test_certify_missing_file_exit_1(tmp_path):
    out = run("certify", str(tmp_path / "does-not-exist.json"))
    assert out.returncode == 1


# -- psi --------------------------------------------------------------------


def test_psi_exact():
    out = run("psi", "--xi", "1/2", "--xi", "1/3", "--t", "3")
    assert out.returncode == 0
    assert "value_lo: 0" in out.stdout
    assert "value_hi: 0" in out.stdout
    assert "witness: (0, 3)" in out.stdout


def test_psi_requires_xi():
    out = run("psi", "--t", "3")
    assert out.returncode == 1
    assert "--xi" in out.stderr


def test_psi_simultaneous():
    out = run("psi", "--xi", "1/3", "--xi", "2/3", "--t", "2", "--simultaneous")
    assert out.returncode == 0
    assert "value_lo: 1/3" in out.stdout
    assert "witness: 1" in out.stdout


def test_psi_exact_relation_returns_honest_enclosure():
    # two copies of the same irrational admit the exact relation
    # q.(x, x) = 0 at q = (1, -1); the default tolerance stops the
    # refinement with a sound enclosure pinned at zero from below
    out = run("psi", "--xi", "sqrt2", "--xi", "sqrt2", "--t", "2")
    assert out.returncode == 0
    assert "value_lo: 0" in out.stdout
    assert "witness: (1, -1)" in out.stdout


def test_psi_precision_exhausted_exit_5():
    # a tolerance finer than 4096 bits can deliver must be refused, not
    # rounded through
    out = run(
        "psi", "--xi", "sqrt2", "--xi", "sqrt2", "--t", "2",
        "--tol", "1e-1500",
    )
    assert out.returncode == 5
    assert "could not separate" in out.stderr
    assert "hint:" in out.stderr


def test_records_exit_5_hint_does_not_name_tol():
    # q and q + (0, 3) tie exactly, so refinement never separates them;
    # records has no --tol, so the hint must not name it
    out = run("records", "--xi", "sqrt2", "--xi", "1/3", "--t-max", "2")
    assert out.returncode == 5
    assert "hint:" in out.stderr
    assert "--tol" not in out.stderr


def test_psi_zero_denominator_is_usage_error():
    out = run("psi", "--xi", "1/0", "--t", "3")
    assert out.returncode == 1
    assert "zero denominator" in out.stderr
    assert "Traceback" not in out.stderr


def test_psi_empty_range_is_usage_error():
    out = run("psi", "--xi", "1/2", "--t", "1/2")
    assert out.returncode == 1


# -- records ------------------------------------------------------------


def test_records_table_and_csv(tmp_path):
    csv_path = tmp_path / "rec.csv"
    out = run(
        "records", "--xi", "1/2", "--xi", "1/3", "--t-max", "4",
        "--csv", str(csv_path),
    )
    assert out.returncode == 0
    assert "threshold  value_lo  value_hi  witness" in out.stdout
    with csv_path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["threshold", "value_lo", "value_hi", "witness"]
    assert rows[1] == ["1", "1/6", "1/6", "(1, 1)"]
    assert rows[2] == ["2", "0", "0", "(2, 0)"]


def test_records_exponent_estimate():
    out = run("records", "--xi", "sqrt2", "--t-max", "15")
    assert out.returncode == 0
    assert "decay exponent estimate:" in out.stdout
    assert "local slopes:" in out.stdout


def test_weighted_records_print_irrational_thresholds():
    # under (1/3, 2/3) the height of (1, 2) is 2**(3/4), which has no
    # rational value and prints as base^(exp)
    out = run(
        "records", "--xi", "sqrt2", "--xi", "cbrt2",
        "--norm", "weighted:1/3,2/3", "--t-max", "30",
    )
    assert out.returncode == 0, out.stderr
    rows = {line.split()[0]: line.split("  ")[-1] for line in out.stdout.splitlines()
            if line[:1].isdigit()}
    assert rows["2^(3/4)"] == "(1, 2)"


# -- roots --------------------------------------------------------------


def test_roots_single_query():
    out = run("roots", "--W", "1", "2", "--tol", "1e-9")
    assert out.returncode == 0
    assert "W(1,2) in [0.732050807" in out.stdout
    assert "exact: [" in out.stdout


def test_roots_examples_table():
    out = run("roots", "--examples", "--tol", "1e-9")
    assert out.returncode == 0
    for label in ("W(1,2)", "W(1,3)", "W(2,3)", "H(2,2)"):
        assert label in out.stdout
    assert "= sqrt(3) - 1" in out.stdout
    assert "0.543689012" in out.stdout
    assert "0.759229759" in out.stdout
    assert "0.618033988" in out.stdout


def test_roots_hypersurface_query():
    out = run("roots", "--H", "2", "2")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == "H(2,2) in [0.618033988401, 0.618033989333]"


def test_roots_requires_a_query():
    out = run("roots")
    assert out.returncode == 1
    assert "pick at least one" in out.stderr


def test_roots_ratio_bound():
    out = run("roots", "--G", "2", "3/5", "--tol", "1e-9")
    assert out.returncode == 0
    # the bisection lands exactly on the rational root and collapses
    assert "exact: [3/2, 3/2]" in out.stdout


# -- badness ------------------------------------------------------------


def test_badness_table():
    out = run("badness", "--theta", "1/5", "--Q", "10")
    assert out.returncode == 0
    assert "Q  value_lo  value_hi  value  witness" in out.stdout
    # theta rational: the family point is rational, so the scan finds an
    # exact zero
    assert "10  0  0" in out.stdout


def test_badness_rejects_bad_cap():
    out = run("badness", "--theta", "1/5", "--Q", "0")
    assert out.returncode == 1


def test_display_digits_of_an_irrational_power():
    # 2**(-55/2) = 5.2683560638606...e-9
    assert _fmt_approx(PowerValue(2, Fraction(-55, 2))) == "5.26835606386e-09"
    assert _fmt_approx(PowerValue(2, Fraction(1, 2))) == "1.41421356237"
    assert _fmt_approx(PowerValue(4, Fraction(1, 2))) == "2"
    assert _fmt_approx(PowerValue(10, Fraction(-40))) == "~10^-40.00"
    assert _fmt_approx(Fraction(1, 3)) == "0.333333333333"
    assert _fmt_approx(Fraction(0)) == "0"


def decimal_approx(p: int, q: int) -> str:
    """The anchor column as construct rendered it before integer
    division: Fraction(p, q) through PowerValue and a 40-digit Decimal
    quotient, then 12 digits."""
    value = Fraction(p, q)
    if value == 0:
        return "0"
    value = PowerValue(value)
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


@st.composite
def pin_pairs(draw):
    """(p, q), q > 0 of up to 10**5 bits and unreduced: p/q anywhere, in
    [0, 1] as an anchor is, or on a tie of its 40th digit."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    top = draw(st.sampled_from((200, 10**4, 10**5)))
    q = rng.getrandbits(rng.randrange(1, top)) + 1
    kind = draw(st.sampled_from(("any", "anchor", "tie")))
    if kind == "any":
        return rng.getrandbits(rng.randrange(top)), q
    if kind == "anchor":
        den = draw(st.integers(1, 10**6))
        return q * draw(st.integers(0, den)) // den + draw(st.integers(0, 3)), q
    digits = 10 * rng.randrange(10**39, 10**40) + 5  # 41 digits, ending in 5
    return digits * q, 10 ** draw(st.integers(26, 55)) * q


@settings(deadline=None, derandomize=True, max_examples=200)
@given(pin_pairs())
@example((0, 7))
@example((10**40 - 1, 10**40))  # rounds up to 1.000...
@example((125, 10**17))  # just under 10**-15
def test_anchor_rendering_matches_the_decimal_quotient(pair):
    p, q = pair
    assert _fmt_ratio(p, q) == _fmt_approx(Fraction(p, q)) == decimal_approx(p, q)
    if p:
        assert _fmt_ratio(-p, q) == "-" + _fmt_ratio(p, q)


# -- dirichlet ----------------------------------------------------------


def test_dirichlet_small_suite():
    out = run("dirichlet", "--count", "6", "--t-max", "12", "--seed", "7")
    assert out.returncode == 0
    assert "vectors checked: 6" in out.stdout
    assert "dual violations: 0" in out.stdout
    assert "simultaneous violations: 0" in out.stdout
    assert "all bounds hold" in out.stdout


# -- parser-level behavior ----------------------------------------------


def test_unknown_subcommand_is_usage_error():
    out = run("frobnicate")
    assert out.returncode == 1
