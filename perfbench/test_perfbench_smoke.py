"""Smoke run of the benchmark, so it cannot rot: every workload at reduced
size, its correctness gate, and the traced run. No timing is asserted."""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402


def test_smoke_run_is_correct_and_reports_every_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] > 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert [m for m, _, _ in PER_LAYER] == [m["name"] for m in spec["per_layer"]]
    for workload in (w["name"] for w in spec["workloads"]):
        reported = {k.split("/", 1)[1] for k in result["metrics"] if k.startswith(workload + "/")}
        assert reported == set(expected), workload
