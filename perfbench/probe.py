"""One set-up sample, run in a fresh interpreter by ``run.py``:
import singvec from the checkout, then build the workload's inputs.

    python3 perfbench/probe.py <workload> <seed>

Prints one JSON object with ``import_s`` and ``inputs_s``.
"""
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import singvec  # noqa: F401

    imported = time.perf_counter()
    import jobs

    expected = jobs.load_expected()
    begin = time.perf_counter()
    jobs.build(workload, seed, expected)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "inputs_s": done - begin}))


if __name__ == "__main__":
    main()
