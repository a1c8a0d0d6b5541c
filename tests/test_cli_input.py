"""Command line: malformed flags and spec files end in their documented
exit code, never in a traceback; a certificate's spec rebuilds it."""
import json
import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "singvec"]
SPEC = object()  # stands for the path of the spec file a case writes


def run(*argv, timeout=300):
    return subprocess.run(
        CMD + list(argv), capture_output=True, text=True, timeout=timeout
    )


PSI = ("psi", "--xi", "1/2", "--xi", "1/3", "--t", "3")


@pytest.mark.parametrize(
    "argv, spec, code",
    [
        (PSI + ("--norm", "weighted:a,b"), None, 1),
        (PSI + ("--norm", "weighted:1/0,1"), None, 1),
        (("dirichlet", "--dims", "2,x"), None, 1),
        (("dirichlet", "--dims", ","), None, 1),
        (("dirichlet", "--dims", "0"), None, 1),
        (("roots", "--W", "a", "2"), None, 1),
        (("roots", "--G", "2.5", "1/2"), None, 1),
        (("psi", "--xi", "cyl:3,x,2:02:min", "--t", "3"), None, 1),
        (("construct", "--spec", SPEC), "{nope", 3),
        (("construct", "--spec", SPEC), "{}", 3),
    ],
    ids=[
        "norm-not-rational", "norm-zero-denominator", "dims-not-integer",
        "dims-empty", "dims-zero", "W-not-integer", "G-not-integer",
        "cylinder-not-integer", "spec-not-json", "spec-empty-object",
    ],
)
def test_malformed_input_has_its_exit_code(tmp_path, argv, spec, code):
    path = tmp_path / "spec.json"
    if spec is not None:
        path.write_text(spec)
    out = run(*(str(path) if a is SPEC else a for a in argv))
    assert out.returncode == code
    assert "error:" in out.stderr
    assert "Traceback" not in out.stderr


def test_huge_exponent_is_refused_at_once():
    # the threshold would be an integer of a billion digits
    out = run("psi", "--xi", "1/2", "--t", "1e999999999", timeout=60)
    assert out.returncode == 1
    assert "cannot parse number" in out.stderr


def test_construct_spec_rebuilds_certificate(tmp_path):
    cert = tmp_path / "cert.json"
    out = run(
        "construct", "--cantor", "3:0,2", "--cantor", "3:0,2",
        "--phi", "pow:5", "--norm", "weighted:1/2,1/2", "--steps", "2",
        "-o", str(cert),
    )
    assert out.returncode == 0, out.stderr
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(json.loads(cert.read_text())["spec"]))
    again = tmp_path / "again.json"
    out = run("construct", "--spec", str(spec), "-o", str(again))
    assert out.returncode == 0, out.stderr
    assert again.read_bytes() == cert.read_bytes()
