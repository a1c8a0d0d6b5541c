"""Regenerate ``expected.json``: the SHA-256 and spot thresholds of each
benchmark certificate, and the exact scan results on the frozen seed.

    python3 perfbench/freeze.py

Run it only when a change is meant to alter these outputs; the
benchmark treats any difference from the frozen values as a wrong
answer.  Jobs that refuse with PrecisionExhausted get no frozen value
and keep their invariant checks.
"""
import hashlib
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
FROZEN_SEED = 1


def main() -> None:
    sys.path.insert(0, str(SRC))
    from singvec.errors import PrecisionExhausted

    import jobs
    from inputs import WORKLOADS

    blank = {"sha256": None, "spot_checks": []}
    skeleton = {
        "seed": None,
        "certify-sup": {"sup": blank},
        "certify-weighted": {"w21": blank, "w12": blank},
        "scan-enclosed": {},
        "scan-exact": {},
    }
    out = {"seed": FROZEN_SEED}
    for workload in WORKLOADS:
        frozen, ctx = {}, {}
        for job in jobs.build(workload, FROZEN_SEED, skeleton):
            try:
                result = ctx[job.name] = job.run(ctx)
            except PrecisionExhausted:
                continue
            kind, _, tag = job.name.partition(".")
            if job.plain is not None:
                frozen[job.name] = job.plain(result)
            elif kind == "dumps":
                frozen.setdefault(tag, {})["sha256"] = hashlib.sha256(result.encode()).hexdigest()
            elif kind == "verify":
                frozen.setdefault(tag, {})["spot_checks"] = [str(s.t) for s in result.spot_checks]
        out[workload] = frozen
        print(workload, "frozen", file=sys.stderr)
    path = Path(jobs.EXPECTED_PATH)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
