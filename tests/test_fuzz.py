"""Certificate mutation fuzz: hostile input gives a report or a
SchemaError, never a traceback or a hang.

Every JSON leaf of a 2-step sup-norm and a 2-step weighted certificate
is replaced, one at a time, by each of a fixed set of hostile values
and by itself with one digit flipped (seeded); a step is also appended
and one dropped.  Each case is read and verified in process under its
own SIGALRM, and its outcome must be what `certify` turns into exit 0
(ok), 4 (failing report) or 3 (SchemaError).  The cases run in one
child process under an address-space limit, so a runaway allocation
fails the test instead of the host.  Run this file directly to see
the outcome counts and every defective case.
"""
import json
import random
import resource
import signal
import subprocess
import sys
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

SEED = 20261018
ALARM_S = 2
MEMORY_BYTES = 2 * 1024**3
HOSTILE = (2**64, 10**40, str(2**64), str(10**40), "1/0", True, 1.5, None, "")


def certificates() -> dict:
    thirds = DigitSystem(3, (0, 2))
    product = ProductSet((thirds, thirds))
    phi = PhiSpec("pow", exponent=Fraction(5))
    norms = {
        "sup": NormSpec("sup"),
        "weighted": NormSpec("weighted", (Fraction(2, 3), Fraction(1, 3))),
    }
    return {
        name: json.loads(construct(ConstructionSpec(product, norm, phi, 2)).dumps())
        for name, norm in norms.items()
    }


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
            yield f"{'/'.join(map(str, path))}={value!r}", doc
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


def outcome(text: str) -> str:
    """What certify makes of a certificate: exit 0, 4 or 3."""
    try:
        cert = certificate_loads(text)
    except SchemaError:
        return "exit 3"
    return "exit 0" if verify_certificate(cert).ok else "exit 4"


def main() -> int:
    rng = random.Random(SEED)
    signal.signal(signal.SIGALRM, _alarm)
    tally: Counter = Counter()
    bad = []
    for name, blob in certificates().items():
        for label, doc in mutants(blob, rng):
            text = json.dumps(doc)
            signal.setitimer(signal.ITIMER_REAL, ALARM_S)
            try:
                result = outcome(text)
            except Timeout:
                result = f"timeout after {ALARM_S} s"
            except Exception as exc:  # noqa: BLE001 -- any raise is a defect
                result = f"{type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            tally[result if result.startswith("exit") else "defect"] += 1
            if not result.startswith("exit"):
                bad.append(f"{name} {label}: {result}")
    print(dict(sorted(tally.items())))
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
    assert time.monotonic() - start < 15


if __name__ == "__main__":
    sys.exit(main())
