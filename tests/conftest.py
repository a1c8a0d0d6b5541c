"""Let the command-line tests' child processes import singvec from the
checkout's src/, as pytest's pythonpath setting does for the tests."""
import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH")))
)
