"""Certificate and spec fuzz: hostile input gives a report or a
SchemaError, never a traceback or a hang.

Every JSON leaf of a 2-step sup-norm and a 2-step weighted certificate
is replaced, one at a time, by each of a fixed set of hostile values
and by itself with one digit flipped (seeded); a step is also appended
and one dropped.  Each such case is read and verified in process, and
its outcome must be what `certify` turns into exit 0 (ok), 4 (failing
report) or 3 (SchemaError).  Then the bytes of both certificates and of
a spec file are cut at seeded offsets and have seeded bits flipped, and
nesting bombs, bytes that are not UTF-8 and byte order marks are added;
those files go through `certify` and `construct --spec` in process, and
each must end in exit 0, 3 or 4.  The verifier's reports on the leaf
mutants, each with its label, outcome, step flags and failure texts,
are folded into one SHA-256, which is frozen: a change to any verdict
or message on that corpus shows.  Every case runs under its own
SIGALRM, and all of them in one child process under an address-space
limit, so a runaway allocation fails the test instead of the host.  Run
this file directly to see the outcome counts and every defective case.
"""
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction

from singvec import (
    ConstructionSpec,
    DigitSystem,
    NormSpec,
    PhiSpec,
    ProductSet,
    SchemaError,
    certificate_loads,
    construct,
    verify_certificate,
)
from singvec.cli import main as cli_main
from singvec.exact import int_str
from singvec.verifier import CHECKS

from helpers import digit_limit

SEED = 20261018
ALARM_S = 2
MEMORY_BYTES = 2 * 1024**3
HOSTILE = (
    2**64, 10**40, 10**5000 + 1, str(2**64), str(10**40), "1/0", True, 1.5,
    None, "",
)
CUTS = FLIPS = 40  # seeded truncations and bit flips per file
# the SHA-256 of the verifier's reports on the leaf mutants (main)
REPORTS_DIGEST = "3cbc87758d866bbeb9367a2c74f3e9513b7f44d58e79e690840816725109a718"


def specs() -> dict:
    thirds = DigitSystem(3, (0, 2))
    product = ProductSet((thirds, thirds))
    phi = PhiSpec("pow", exponent=Fraction(5))
    norms = {
        "sup": NormSpec("sup"),
        "weighted": NormSpec("weighted", (Fraction(2, 3), Fraction(1, 3))),
    }
    return {
        name: ConstructionSpec(product, norm, phi, 2)
        for name, norm in norms.items()
    }


def certificates() -> dict:
    return {
        name: json.loads(construct(spec).dumps())
        for name, spec in specs().items()
    }


def dumps(doc) -> str:
    """json.dumps without the interpreter's digit guard: a hostile
    integer may be longer than it allows."""
    with digit_limit(0):
        return json.dumps(doc)


def leaves(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, path + (key,))
    elif isinstance(obj, list):
        for idx, value in enumerate(obj):
            yield from leaves(value, path + (idx,))
    else:
        yield path


def flip_digit(value, rng: random.Random):
    """value with one of its decimal digits changed at random, or None
    when it has no digit to change."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        return None
    text = str(value)
    spots = [i for i, ch in enumerate(text) if ch.isdigit()]
    if not spots:
        return None
    i = rng.choice(spots)
    digit = rng.choice([d for d in "0123456789" if d != text[i]])
    text = text[:i] + digit + text[i + 1:]
    return int(text) if isinstance(value, int) else text


def mutants(blob: dict, rng: random.Random):
    """(label, mutated document) pairs: each leaf replaced by each
    hostile value and by itself with one digit flipped, then one step
    appended and one dropped."""
    for path in leaves(blob):
        leaf = blob
        for key in path:
            leaf = leaf[key]
        flipped = flip_digit(leaf, rng)
        for value in HOSTILE + (() if flipped is None else (flipped,)):
            doc = json.loads(json.dumps(blob))
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            yield f"{'/'.join(map(str, path))}={dumps(value)[:48]}", doc
    grown = json.loads(json.dumps(blob))
    grown["steps"].append(grown["steps"][-1])
    yield "steps+1", grown
    shrunk = json.loads(json.dumps(blob))
    del shrunk["steps"][-1]
    yield "steps-1", shrunk


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def byte_mutants(data: bytes, rng: random.Random):
    """(label, file bytes) pairs: data cut at seeded offsets and with one
    seeded bit flipped, then nesting bombs, random bytes, bytes that are
    not UTF-8, and data behind byte order marks or in UTF-16."""
    for _ in range(CUTS):
        cut = rng.randrange(len(data))
        yield f"cut@{cut}", data[:cut]
    for _ in range(FLIPS):
        i, bit = rng.randrange(len(data)), rng.randrange(8)
        yield f"flip@{i}^{1 << bit}", data[:i] + bytes([data[i] ^ 1 << bit]) + data[i + 1:]
    yield "bomb[", b"[" * 200000
    yield "bomb{", b'{"a":' * 5000
    yield "deep-but-decodable", b"[" * 900 + b"]" * 900
    yield "random", bytes(rng.randrange(256) for _ in range(100))
    yield "bad-utf8", data.replace(b'"', b'"\xc3(', 1)
    yield "utf16-bom-empty", b"\xff\xfe{}"
    yield "utf16", data.decode("utf-8").encode("utf-16")
    yield "utf8-bom", b"\xef\xbb\xbf" + data


def outcome(text: str) -> tuple[str, str]:
    """What certify makes of a certificate, exit 0, 4 or 3, and the
    verifier's report as text: each step's number and flags, then each
    failure.  A SchemaError gives its code alone, since the decoder's
    messages vary with the Python version."""
    try:
        cert = certificate_loads(text)
    except SchemaError:
        return "exit 3", ""
    report = verify_certificate(cert)
    lines = [
        f"{int_str(step.nu)} " + "".join("01"[getattr(step, c)] for c in CHECKS)
        for step in report.steps
    ]
    code = "exit 0" if report.ok else "exit 4"
    return code, "\n".join(lines + list(report.failures))


def cli_outcome(path: str, data: bytes, argv) -> tuple[str, None]:
    """The exit code of the command line on argv once data is written
    to path, run in process with its output dropped, and no report; an
    exception escaping it is a traceback."""
    with open(path, "wb") as fh:
        fh.write(data)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return f"exit {cli_main(argv)}", None


def cases(rng: random.Random, path: str):
    """(label, thunk) pairs: every leaf mutant of both certificates read
    and verified, then every byte mutant of their files through certify
    and of the sup spec's file through construct --spec."""
    files = []
    for name, blob in certificates().items():
        for label, doc in mutants(blob, rng):
            yield f"{name} {label}", lambda text=dumps(doc): outcome(text)
        files.append((f"certify {name}", dumps(blob), ["certify", path]))
    spec = dumps(specs()["sup"].to_json())
    construct = ["construct", "--spec", path, "-o", os.devnull]
    files.append(("construct --spec", spec, construct))
    for what, text, argv in files:
        for label, data in byte_mutants(text.encode(), rng):
            yield f"{what} {label}", lambda d=data, a=argv: cli_outcome(path, d, a)


def main() -> int:
    rng = random.Random(SEED)
    signal.signal(signal.SIGALRM, _alarm)
    tally: Counter = Counter()
    bad = []
    reports = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for label, case in cases(rng, os.path.join(tmp, "input.json")):
            signal.setitimer(signal.ITIMER_REAL, ALARM_S)
            report = None
            try:
                result, report = case()
            except Timeout:
                result = f"timeout after {ALARM_S} s"
            except Exception as exc:  # noqa: BLE001 -- any raise is a defect
                result = f"{type(exc).__name__}: {str(exc)[:200]}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            ok = result in ("exit 0", "exit 3", "exit 4")
            tally[result if ok else "defect"] += 1
            if not ok:
                bad.append(f"{label}: {result}")
            if report is not None:
                reports.update(f"{label}\n{result}\n{report}\n\n".encode())
    print(dict(sorted(tally.items())))
    print(f"reports digest: {reports.hexdigest()}")
    print("\n".join(bad))
    return 1 if bad else 0


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def test_mutated_certificates_give_a_report_or_a_schema_error():
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, __file__],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_memory,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert "exit 0" in out.stdout and "exit 3" in out.stdout and "exit 4" in out.stdout
    assert f"reports digest: {REPORTS_DIGEST}" in out.stdout
    assert time.monotonic() - start < 15


if __name__ == "__main__":
    sys.exit(main())
