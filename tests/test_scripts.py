"""Example scripts: each runs to completion on a small input and ends
with its expected last line, which also guards the public names the
scripts import."""
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv, last",
    [
        (("bounds_table.py", "--n-max", "3"), "  3   2      0.543689012692"),
        (
            ("badness_sweep.py", "--q-max", "100"),
            "cbrt2,100,21884014073108465/288230376151711744,"
            "10942007036554243/144115188075855872,0.0759254259225,5 8",
        ),
        (("demo_construction.py", "--steps", "1"), "verified"),
        (("demo_construction.py", "--steps", "2", "--weighted"), "verified"),
    ],
    ids=["bounds-table", "badness-sweep", "demo", "demo-weighted"],
)
def test_script_runs(argv, last):
    script, *args = argv
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == last
