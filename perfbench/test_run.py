"""The runner's declared metrics and its refusal to run without sources."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import reference
import run
import spans

ROOT = Path(__file__).resolve().parent.parent


def test_per_layer_metrics_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = run.layer_metrics(spans.Tracer(), 1, {"import_s": 0.1, "inputs_s": 0.0},
                               [1.0], [1.0])
    declared = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert declared == [(k, run.unit_of(k)) for k in values]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert all(run.unit_of(m["name"]) == m["unit"] for m in bench["end_to_end"])
    assert set(run.PROBE) == set(run.WORKLOADS)
    assert set(run.PROBE.values()) <= set(reference.KERNELS)


def test_exits_nonzero_without_singvec_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
