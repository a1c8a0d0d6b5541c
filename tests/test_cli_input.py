"""Command line: malformed flags and spec files end in their documented
exit code, never in a traceback; an over-budget certificate is refused
at once; a certificate's spec rebuilds it."""
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from singvec import (
    SUP_NORM,
    ConstructionSpec,
    DigitSystem,
    PhiSpec,
    ProductSet,
    construct,
)

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
        (("construct", "--cantor", "3:0,2", "--cantor", "3:0,2",
          "--phi", "pow:100000"), None, 1),
    ],
    ids=[
        "norm-not-rational", "norm-zero-denominator", "dims-not-integer",
        "dims-empty", "dims-zero", "W-not-integer", "G-not-integer",
        "cylinder-not-integer", "spec-not-json", "spec-empty-object",
        "phi-over-budget",
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


@pytest.fixture(scope="module")
def cert_blob():
    thirds = DigitSystem(3, (0, 2))
    spec = ConstructionSpec(
        product=ProductSet((thirds, thirds)),
        norm=SUP_NORM,
        phi=PhiSpec("pow", exponent=Fraction(5)),
        steps=3,
    )
    return json.loads(construct(spec).dumps())


@pytest.mark.parametrize(
    "field, value",
    [
        # 3000 walks about 18 million plane directions per box
        ("avoidance_heights", [3, 4, 3000]),
        # an exact power of that size never finishes
        ("phi", {"kind": "pow", "exponent": "999999999999"}),
    ],
    ids=["avoidance-height", "phi-exponent"],
)
def test_over_budget_certificate_is_refused_at_once(tmp_path, cert_blob, field, value):
    blob = json.loads(json.dumps(cert_blob))
    blob["spec"][field] = value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(blob))
    out = run("certify", str(path), "--spot-checks", "none", timeout=20)
    assert out.returncode == 3
    assert "over budget" in out.stderr
    assert "Traceback" not in out.stderr


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
