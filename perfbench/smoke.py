"""Smoke test of the benchmark: a few runs of every workload.

    python3 perfbench/smoke.py            (or: python3 -m pytest perfbench/smoke.py)

For each workload it checks that every metric BENCHMARK.json names is printed
with its unit, that no run fails, and that the outcome digest is the same in
two untraced invocations and in the traced run. It also checks that the
benchmark fails without a result when the sources are missing. The file is
not named test_*.py, so the repository's own test suite does not collect it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3
RUNS = {"acceptance": 3, "sparse": 2, "crowd": 2}


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def run_workload(workload: str, trace: int):
    proc = bench(ROOT, "--workload", workload, "--seed", str(SEED),
                 "--runs", str(RUNS[workload]), "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] == RUNS[workload]
    return proc.stdout, result


def assert_metrics(result: dict, specs: list):
    for spec in specs:
        metric = result["metrics"].get(spec["name"])
        assert metric is not None, f"{spec['name']} missing"
        assert metric["unit"] == spec["unit"], spec["name"]
        assert isinstance(metric["value"], (int, float)), spec["name"]


def check_workload(workload: str):
    first, r1 = run_workload(workload, 0)
    second, r2 = run_workload(workload, 0)
    traced, r3 = run_workload(workload, 1)
    assert_metrics(r1, SPEC["end_to_end"])
    assert_metrics(r3, SPEC["per_layer"])
    plain = re.compile(r"digest of the first \d+ runs: (\w+)$", re.M)
    assert plain.search(first).group(1) == plain.search(second).group(1)
    untraced, with_trace = re.search(
        r"untraced (\w+), traced (\w+)$", traced, re.M).groups()
    assert untraced == with_trace == plain.search(first).group(1)
    for name in ("events_per_run", "moves_per_run"):
        assert r1["metrics"][name] == r2["metrics"][name], name


def test_acceptance():
    check_workload("acceptance")


def test_sparse():
    check_workload("sparse")


def test_crowd():
    check_workload("crowd")


def test_fails_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for src in HERE.glob("*.py"):
        shutil.copy(src, bare / "perfbench")
    try:
        proc = bench(bare, "--workload", "acceptance", "--runs", "1")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
