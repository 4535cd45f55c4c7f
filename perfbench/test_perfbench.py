"""Smoke tests for the benchmark harness at a tiny size.

Run from the repository root: python -m pytest perfbench
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = {"count", "count_computed", "count/step", "B", "MB_computed"}


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int, attempt: int = 0) -> list[str]:
    """Stdout lines of one tiny run; `attempt` tells repeated runs apart."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True,
    )
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines = bench(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(l.startswith(f"{workload} {name} = ") and l.endswith(f" {unit}") for l in lines)
    if not trace:
        assert any(l.startswith(f"{workload} fail_frac = 0 ratio") for l in lines)
        assert any(l.startswith(f"{workload} job_s.tail is p") for l in lines)
    record = json.loads(next(l for l in lines if l.startswith("record "))[len("record "):])
    assert {"python", "numpy", "nproc", "blas_threads", "git_commit"} <= set(record["environment"])
    assert record["seed"] == 3 and record["jobs"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first, second = (json.loads(bench(workload, 1, attempt)[-1])["metrics"] for attempt in (0, 1))
    counts = {n: m["value"] for n, m in first.items() if m["unit"] in COUNT_UNITS}
    assert counts == {n: second[n]["value"] for n in counts}
    assert any(counts.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
