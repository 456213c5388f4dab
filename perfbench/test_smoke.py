"""Smoke test for the benchmark: every workload at tiny size, both trace modes.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_passes_its_checks(workload, trace):
    proc = run_bench("--workload", workload, "--seconds", "0", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stderr
    assert result["correct"] is True
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_dynamic_trace_shows_one_rebuild_per_trial_and_round():
    proc = run_bench("--workload", "dynamic", "--seconds", "0", "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["graphs.rebuilds_per_round"]["value"] == 2.0


def test_same_seed_gives_same_digest_and_counts():
    reports = []
    for _ in range(2):
        proc = run_bench("--workload", "stall", "--seed", "5", "--seconds", "0", "--trace", "1", "--tiny")
        assert proc.returncode == 0, proc.stderr
        report = json.loads((ROOT / ".perfbench" / "stall-seed5-trace1.json").read_text())
        reports.append(report)
    assert reports[0]["digest"] == reports[1]["digest"]
    counts = [{k: v for k, v in r["metrics"].items() if k.endswith(".calls")} for r in reports]
    assert counts[0] == counts[1]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "stall", "--seconds", "0", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
