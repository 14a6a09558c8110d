"""Smoke tests of the repo benchmark: ``python -m pytest bench/``.

Every workload runs with ``--quick`` (2 s), untraced and traced, each in
a fresh subprocess as ``BENCHMARK.json``'s command runs it, and the
result line must satisfy the contract ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from compare import verdict

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, trace_dir: Path) -> dict:
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", "3", "--quick", "--trace", str(trace),
    ]
    if trace:
        command += ["--trace-dir", str(trace_dir)]
    proc = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_contract(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert result["correct"] is True
    units = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(units)  # all declared, none extra
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    result = _run(workload, 0, tmp_path)
    _assert_contract(result, SPEC["end_to_end"])
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_layers_add_up_to_the_operation(workload, tmp_path):
    result = _run(workload, 1, tmp_path)
    _assert_contract(result, SPEC["per_layer"])
    layers = json.loads((tmp_path / f"{workload}.layers.json").read_text())
    assert sum(layers["rows"].values()) == pytest.approx(
        layers["total_ms"], rel=0.05
    )
    trace = json.loads((tmp_path / f"{workload}.trace.json").read_text())
    assert any(e["ph"] == "X" for e in trace["traceEvents"])


def test_fails_without_the_program_under_test(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "__pycache__", "results"
    ))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize(
    "base, new, expected",
    [
        ([10.0] * 10, [10.0] * 10, "unchanged"),
        ([10.0 + i * 0.01 for i in range(10)], [12.0 + i * 0.01 for i in range(10)], "worse"),
        ([10.0 + i * 0.01 for i in range(10)], [9.0 + i * 0.01 for i in range(10)], "better"),
        ([8.0, 9.0, 10.0, 11.0, 12.0] * 2, [10.0] * 10, "unresolved"),
        ([8.0, 9.0, 10.0, 11.0, 12.0] * 2, [5.0] * 10, "better"),
    ],
)
def test_compare_verdicts_for_a_lower_is_better_metric(base, new, expected):
    assert verdict(base, new, "lower", 0.1) == expected
