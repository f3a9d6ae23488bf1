"""The benchmark's contract with the package: ``perfbench/run.py``, run as
``BENCHMARK.json`` runs it, completes every workload on a few runs, and its
last line reports every end-to-end metric with its declared unit."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_three_runs_report_every_end_to_end_metric(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--runs", "3", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert (report["correct"], report["failed"], report["attempted"]) == (
        True, 0, 3)
    units = {name: m["unit"] for name, m in report["metrics"].items()}
    assert {m["name"]: units.get(m["name"])
            for m in BENCHMARK["end_to_end"]} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
