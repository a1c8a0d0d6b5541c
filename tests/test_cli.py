"""Command-line interface: subcommand output, exit-code contract,
byte-level determinism."""
import csv
import subprocess
import sys

import pytest

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


def test_construct_depth_exhausted_exit_2(tmp_path):
    out = run(
        "construct", "--cantor", "3:0,2", "--cantor", "3:0,2",
        "--phi", "pow:5", "--steps", "2", "--max-depth", "2",
    )
    assert out.returncode == 2
    assert "could not separate" in out.stderr


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
    # records ignores --tol, so the hint must not name it
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
