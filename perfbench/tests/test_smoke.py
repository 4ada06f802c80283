"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root with: python3 -m pytest perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def bench(*args, cwd=ROOT, script=ROOT / "perfbench" / "run.py"):
    return subprocess.run([sys.executable, str(script), *args, "--seconds", "1", "--smoke"],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit_and_nothing_fails(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--trace", str(trace))
    out = result(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert re.search(r"^fail_frac\s+0\.0$", proc.stderr, re.M), proc.stderr


def test_traced_counts_repeat_for_the_same_seed():
    runs = [result(bench("--workload", WORKLOADS[1], "--seed", "5", "--trace", "1"))
            for _ in range(2)]
    counts = [{k: v["value"] for k, v in out["metrics"].items()
               if k.endswith(".calls") or k.startswith(("solvers.iterations", "solvers.converged"))}
              for out in runs]
    assert counts[0] == counts[1] and counts[0]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
