"""Command line: malformed flags and spec files end in their documented
exit code, never in a traceback; an over-budget certificate or scan is
refused at once; a certificate with more or fewer steps than its spec
fails verification; a certificate's spec rebuilds it."""
import json
import resource
import subprocess
import sys
import time
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

from singvec.exact import int_str

from helpers import digit_limit

CMD = [sys.executable, "-m", "singvec"]
SPEC = object()  # stands for the path of the spec file a case writes
CERT = object()  # stands for the path of a 3-step certificate


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
        (("psi", "--xi", "cyl:3,0,2:021:min", "--t", "3"), None, 1),
        (("construct", "--spec", SPEC), "{nope", 3),
        (("construct", "--spec", SPEC), "{}", 3),
        (("construct", "--cantor", "3:0,2", "--cantor", "3:0,2",
          "--phi", "pow:100000"), None, 1),
        (("records", "--xi", "1/2", "--t-max", "3", "--tol", "1e-3"),
         None, 1),
        (("psi", "--xi", "sqrt2", "--t", "5", "--tol", "-1"), None, 1),
        (("psi", "--xi", "1/2", "--xi", "sqrt2", "--t", "5", "--tol", "-1"),
         None, 1),
        (("psi", "--simultaneous", "--norm", "weighted:2/3,1/3", "--xi",
          "1/3", "--xi", "1/5", "--t", "10"), None, 1),
        (("psi", "--xi", "1/2", "--t", "abc"), None, 1),
        (("construct", "--cantor", "3-0,2"), None, 1),
    ],
    ids=[
        "norm-not-rational", "norm-zero-denominator", "dims-not-integer",
        "dims-empty", "dims-zero", "W-not-integer", "G-not-integer",
        "cylinder-not-integer", "cylinder-digit-not-allowed",
        "spec-not-json", "spec-empty-object", "phi-over-budget",
        "records-has-no-tol", "psi-negative-tol", "psi-mixed-negative-tol",
        "simultaneous-takes-no-norm", "threshold-not-a-number",
        "cantor-without-colon",
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
        # a hull 2**64 wide: each direction walks 2**64 constant terms
        ("product", [{"base": 3, "digits": [0, 2], "scale": str(2**64)}] * 2),
        # a weight whose height exponent is 5000000/9999999
        ("norm", {"kind": "weighted", "weights": ["9999999/10000000", "1/10000000"]}),
    ],
    ids=["avoidance-height", "phi-exponent", "scale", "norm-weight"],
)
def test_over_budget_certificate_is_refused_at_once(tmp_path, cert_blob, field, value):
    blob = json.loads(json.dumps(cert_blob))
    blob["spec"][field] = value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(blob))
    start = time.monotonic()
    out = run("certify", str(path), "--spot-checks", "none", timeout=20)
    assert time.monotonic() - start < 2
    assert out.returncode == 3
    assert "over budget" in out.stderr
    assert "Traceback" not in out.stderr


def _grown(blob):
    blob["steps"].append(blob["steps"][-1])


def _shrunk(blob):
    # a well-formed 2-step certificate under a 3-step spec
    del blob["steps"][-1]
    blob["steps"][-1]["bound_used"] = None
    blob["final_box"] = blob["steps"][-1]["box"]
    blob["avoided"] = [a for a in blob["avoided"] if a["nu"] <= 2]


@pytest.mark.parametrize(
    "edit, count", [(_grown, 4), (_shrunk, 2)], ids=["extra-step", "missing-step"]
)
def test_step_count_other_than_the_spec_fails(tmp_path, cert_blob, edit, count):
    blob = json.loads(json.dumps(cert_blob))
    edit(blob)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(blob))
    out = run("certify", str(path), "--spot-checks", "none", timeout=60)
    assert out.returncode == 4
    assert f"certificate has {count} steps, its spec asks for 3" in out.stdout
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("spots", ["0", "-3"])
def test_nonpositive_spot_threshold_is_a_usage_error(tmp_path, cert_blob, spots):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert_blob))
    out = run("certify", str(path), "--spot-checks", spots)
    assert out.returncode == 1
    assert "error:" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("field", ["phi_of_q", "bound_used"])
def test_over_budget_recorded_power_is_refused_at_once(tmp_path, cert_blob, field):
    # comparing an exact power of that size with the recomputed one
    # never finishes
    blob = json.loads(json.dumps(cert_blob))
    blob["steps"][0][field] = {"base": "3", "exp": "999999999999/2"}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(blob))
    out = run("certify", str(path), timeout=20)
    assert out.returncode == 3
    assert "over budget" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("psi", "--xi", "sqrt2", "--xi", "cbrt2", "--t", "1e9"),
        ("psi", "--xi", "sqrt2", "--xi", "cbrt2", "--t", "1e40"),
        ("records", "--xi", "sqrt2", "--xi", "cbrt2", "--t-max", "1e40"),
        ("dirichlet", "--dims", "20", "--count", "1"),
        # caps past the interpreter's 4300-digit guard for int -> str
        ("psi", "--xi", "sqrt2", "--t", "1e9999"),
        ("records", "--xi", "sqrt2", "--t-max", "1e9999"),
        ("psi", "--simultaneous", "--xi", "1/3", "--t", "1e9999"),
        ("certify", CERT, "--spot-checks", "1e9999"),
    ],
    ids=[
        "psi-1e9", "psi-1e40", "records-1e40", "dirichlet-dims-20",
        "psi-1e9999", "records-1e9999", "simultaneous-1e9999",
        "spot-checks-1e9999",
    ],
)
def test_over_budget_scan_is_refused_at_once(tmp_path, cert_blob, argv):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert_blob))
    out = run(*(str(path) if a is CERT else a for a in argv), timeout=20)
    assert out.returncode == 1
    assert "over budget" in out.stderr
    assert len(out.stderr) < 1000  # the sizes of the caps, not their digits
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "weights, t",
    [
        # caps t**(19998/10000) and t**(2/10000) of a 3322-bit t
        ("9999/10000,1/10000", "1e1000"),
        # the cap 2**(9999999/5000000), a 5000000th root of 2**9999999
        ("9999999/10000000,1/10000000", "2"),
    ],
    ids=["huge-threshold", "huge-weight-exponent"],
)
def test_weighted_psi_is_sized_before_its_caps(weights, t):
    start = time.monotonic()
    out = subprocess.run(
        CMD + ["psi", "--xi", "sqrt2", "--xi", "cbrt2", "--norm",
               f"weighted:{weights}", "--t", t],
        capture_output=True, text=True, timeout=20, preexec_fn=_limit_memory,
    )
    assert time.monotonic() - start < 1
    assert out.returncode == 1
    assert "over budget" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "xi, weights, t_max, code, last",
    [
        # the least record key exponents are 5001 and 4999; the key
        # phi**(2 * 24999999) made powers near |q_j|**(5 * 10**7)
        (("sqrt2", "cbrt2"), "4999/10000,5001/10000", "10", 0,
         " (4, 9)"),
        # the least exponents are still near 3.7 * 10**6: over budget
        (("sqrt2", "cbrt2", "alg:-3,0,0,1:1,2"),
         "3331/10000,3333/10000,3336/10000", "3", 1, None),
    ],
    ids=["pair", "threefold"],
)
def test_record_key_takes_its_least_exponents(xi, weights, t_max, code, last):
    start = time.monotonic()
    out = subprocess.run(
        CMD + ["records", *(f"--xi={x}" for x in xi),
               "--norm", f"weighted:{weights}", "--t-max", t_max],
        capture_output=True, text=True, timeout=20, preexec_fn=_limit_memory,
    )
    assert time.monotonic() - start < 1
    assert out.returncode == code, out.stderr
    assert "Traceback" not in out.stderr
    if last is None:
        assert "record height key exponent" in out.stderr
        assert "over budget" in out.stderr
    else:
        rows = [r for r in out.stdout.splitlines() if r[:1].isdigit()]
        assert rows[-1].endswith(last)


def test_over_budget_plane_walk_in_a_spec_file_is_a_usage_error(tmp_path, cert_blob):
    # the spec itself is well formed; the walk at height 3000 refuses
    # itself when construct reaches step 3
    spec = dict(cert_blob["spec"], avoidance_heights=[3, 4, 3000])
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    start = time.monotonic()
    out = run("construct", "--spec", str(path), "-o", str(tmp_path / "c.json"),
              timeout=20)
    assert time.monotonic() - start < 2
    assert out.returncode == 1
    assert "plane walk at height 3000 is over budget" in out.stderr
    assert len(out.stderr) < 1000
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "c.json").exists()


def test_huge_spot_threshold_is_refused_before_its_decay_bound(tmp_path):
    # under pow:9999 the bound at 1e9999 is an integer of 10**8 digits
    cert = tmp_path / "cert.json"
    out = run(
        "construct", "--cantor", "3:0,2", "--cantor", "3:0,2",
        "--phi", "pow:9999", "--steps", "2", "-o", str(cert),
    )
    assert out.returncode == 0, out.stderr
    out = run("certify", str(cert), "--spot-checks", "1e9999", timeout=20)
    assert out.returncode == 1
    assert "over budget" in out.stderr
    assert "Traceback" not in out.stderr


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


@pytest.mark.parametrize(
    "argv, code",
    [
        (("construct", "--cantor", "3:0,2", "--cantor", "3:0,2",
          "--steps", "1000000000"), 1),
        (("certify", CERT), 3),
    ],
    ids=["construct", "certify"],
)
def test_huge_step_count_is_refused_in_bounded_memory(tmp_path, cert_blob, argv, code):
    # a schedule of 10**9 heights would fill the memory before any step
    blob = json.loads(json.dumps(cert_blob))
    blob["spec"].update(steps=10**9, avoidance_heights=[])
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(blob))
    out = subprocess.run(
        CMD + [str(path) if a is CERT else a for a in argv],
        capture_output=True, text=True, timeout=20, preexec_fn=_limit_memory,
    )
    assert out.returncode == code
    assert "a construction of 1000000000 steps is over budget" in out.stderr
    assert "Traceback" not in out.stderr


def test_respelled_height_certifies_like_the_plain_file(tmp_path, cert_blob):
    # q**10000 to the power 1/10000 is the recorded height q, and a true
    # 10000th power passes every Euler test on the way to its root
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(cert_blob))
    blob = json.loads(json.dumps(cert_blob))
    step = blob["steps"][2]
    assert step["phi_of_q"] == str(step["q"])
    step["phi_of_q"] = {"base": int_str(step["q"] ** 10000), "exp": "1/10000"}
    path = tmp_path / "respelled.json"
    path.write_text(json.dumps(blob))
    want = run("certify", str(plain))
    assert want.returncode == 0, want.stderr
    out = run("certify", str(path), timeout=20)
    assert out.returncode == 0, out.stderr
    assert out.stdout == want.stdout


def test_huge_step_number_is_reported(tmp_path, cert_blob):
    # a step number past the interpreter's digit guard for int -> str
    blob = json.loads(json.dumps(cert_blob))
    blob["steps"][0]["nu"] = 10**5000 + 1
    path = tmp_path / "cert.json"
    with digit_limit(0):
        path.write_text(json.dumps(blob))
    out = run("certify", str(path), "--spot-checks", "none")
    assert out.returncode == 4
    assert "step index out of order" in out.stdout
    assert "Traceback" not in out.stderr


def test_dirichlet_suite_in_five_dimensions_answers():
    # a walk of the whole box at t = 50 visits about 5 * 10**9 vectors;
    # the suite asks psi only where the running minimum may break the
    # bound, a few thresholds below 5
    out = run("dirichlet", "--dims", "5", "--count", "1", timeout=60)
    assert out.returncode == 0, out.stderr
    assert "all bounds hold" in out.stdout


CONSTRUCT_W23 = (
    "construct", "--cantor", "3:0,2", "--cantor", "3:0,2",
    "--norm", "weighted:2/3,1/3", "--steps", "2",
)


def test_construct_refuses_a_power_certify_would_refuse(tmp_path):
    # the bound at the second pin is a power with exponent -9999/20000
    cert = tmp_path / "cert.json"
    out = run(*CONSTRUCT_W23, "--phi", "pow:9999/10000", "-o", str(cert))
    assert out.returncode == 1
    assert "over budget" in out.stderr
    assert "Traceback" not in out.stderr
    assert not cert.exists()
    # pow:9999 records rational powers only, and its certificate loads
    out = run(*CONSTRUCT_W23, "--phi", "pow:9999", "-o", str(cert))
    assert out.returncode == 0, out.stderr
    out = run("certify", str(cert))
    assert out.returncode == 0, out.stderr


def test_threefold_certificate_certifies_with_default_spot_checks(tmp_path):
    # the recorded height 6561 is over the scan budget in three
    # coordinates, so the default schedule leaves it out
    cert = tmp_path / "cert.json"
    out = run(
        "construct", "--cantor", "3:0,2", "--cantor", "3:0,2",
        "--cantor", "3:0,2", "--phi", "pow:5", "--steps", "4",
        "-o", str(cert),
    )
    assert out.returncode == 0, out.stderr
    out = run("certify", str(cert), timeout=60)
    assert out.returncode == 0, out.stderr
    assert "certificate OK" in out.stdout


def _steps_ok(steps):
    return "".join(
        f"step {k}: integrity=ok nesting=ok height=ok anchor=ok bound=ok "
        "avoidance=ok\n"
        for k in range(1, steps + 1)
    )


@pytest.mark.parametrize(
    "spec, spots, report, gate_s",
    [
        (
            ("--cantor", "5:1,2,4", "--cantor", "10:0,9", "--phi", "pow:3",
             "--steps", "5"),
            (),
            _steps_ok(5) + "spot t=1000000: value_hi=4793/"
            "2658455991569831745807614120560689152 "
            "bound=1/1000000000000000000 ok\n",
            2,
        ),
        (
            ("--cantor", "3:0,2", "--cantor", "3:0,2", "--norm",
             "weighted:2/3,1/3", "--phi", "pow:5", "--steps", "3"),
            ("--spot-checks", "102276"),
            _steps_ok(3) + "spot t=102276: value_hi=1909/"
            "340282366920938463463374607431768211456 "
            "bound=1/11190994246243987925861376 ok\n",
            1,
        ),
    ],
    ids=["default-spot-1e6", "weighted-spot-102276"],
)
def test_near_rational_spot_boxes_certify_in_time(tmp_path, spec, spots, report, gate_s):
    # a certificate's point lies near a rational point at every scale,
    # so its spot box takes the lattice in a few dozen coordinates; the
    # sorted walk of each took 4.9 s (163 MiB) and 8.9 s (201 MiB)
    cert = tmp_path / "cert.json"
    out = run("construct", *spec, "-o", str(cert))
    assert out.returncode == 0, out.stderr
    t0 = time.perf_counter()
    out = subprocess.run(
        CMD + ["certify", str(cert), *spots],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
    )
    elapsed = time.perf_counter() - t0
    assert out.returncode == 0, out.stderr
    assert out.stdout == report + "certificate OK\n"
    assert elapsed < gate_s


def test_construct_table_prints_at_once(tmp_path):
    # heights and bounds with exponent denominators near 10**4 used to
    # take a root of that order of a million-bit integer per cell
    cert = tmp_path / "cert.json"
    out = run(
        "construct", "--cantor", "3:0,2", "--cantor", "3:0,2",
        "--phi", "pow:9999/10000", "--steps", "2", "-o", str(cert),
        timeout=20,
    )
    assert out.returncode == 0, out.stderr
    assert "final box widths:" in out.stdout


@pytest.mark.parametrize(
    "flags, named",
    [
        (("--steps", "5", "--cantor", "5:0,4", "--phi", "pow:9"),
         "--cantor, --phi, --steps"),
        (("--norm", "sup"), "--norm"),
        (("--max-depth", "64"), "--max-depth"),
    ],
    ids=["three-flags", "norm", "max-depth"],
)
def test_construct_spec_takes_no_other_spec_flag(tmp_path, cert_blob, flags, named):
    # the file's spec would be built as it stands, the flags ignored
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(cert_blob["spec"]))
    cert = tmp_path / "cert.json"
    out = run("construct", "--spec", str(spec), *flags, "-o", str(cert))
    assert out.returncode == 1
    assert f"--spec takes no other spec flag: got {named}" in out.stderr
    assert "Traceback" not in out.stderr
    assert not cert.exists()


def test_certificate_with_no_step_fails_verification(tmp_path, cert_blob):
    # to_json writes [] as the final box of a certificate with no step
    blob = dict(cert_blob, steps=[], avoided=[], final_box=[])
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(blob))
    out = run("certify", str(path))
    assert out.returncode == 4
    assert "certificate has 0 steps, its spec asks for 3" in out.stdout
    assert "Traceback" not in out.stderr
    # any other malformed final box is no certificate
    path.write_text(json.dumps(dict(blob, final_box=[[]])))
    out = run("certify", str(path))
    assert out.returncode == 3
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
