"""Make the checkout's singvec sources importable for the benchmark's
own tests (``python3 -m pytest perfbench``)."""
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
