"""Smoke runs of the experiment scripts at small sizes."""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, tmp_path, *args: str) -> list[str]:
    """Run ``scripts/<name>``; return the CSV lines it wrote after checking stdout echoes them."""
    out = tmp_path / "out.csv"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args, "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert proc.stdout.splitlines() == lines[1:]
    return lines


def test_complete_graph_benchmark(tmp_path):
    lines = run_script("complete_graph_benchmark.py", tmp_path, "--trials", "2")
    assert lines[0] == "graph,protocol,q,predicted,mean_completion,p95_completion,fraction_completed"
    assert len(lines) == 1 + 2 * 4
    for line in lines[1:]:
        assert 0.0 <= float(line.split(",")[-1]) <= 1.0


def test_decay_dichotomies(tmp_path):
    lines = run_script("decay_dichotomies.py", tmp_path, "--n", "1024", "--trials", "2")
    assert lines[0] == "family,alpha,alpha_times_log_n,median_final_fraction"
    families = [line.split(",")[0] for line in lines[1:]]
    assert families == ["multiplicative"] * 8 + ["additive"] * 4
    for line in lines[1:]:
        assert 0.0 < float(line.split(",")[-1]) <= 1.0


def test_bench_pairs_smoke():
    # one pair of tiny runs, both sides on this checkout: the digests must match
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "--parent", str(ROOT), "--workload", "stall",
         "--pairs", "1", "--seconds", "0", "--tiny"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("pair 1 (parent first), parent/change: run_s ")
    for name in ("run_s", "trial_rounds_per_s", "checks_per_s", "peak_rss_mb", "setup_s"):
        assert any(line.startswith(f"{name} ") and line.endswith("is better)") for line in lines)
        assert any(
            line.startswith(f"verdict {name}: median gap ") and " against parent IQR 0, better in " in line
            and line.endswith(("/1: claim holds", "/1: claim does not hold"))
            for line in lines
        )
        assert any(
            line.startswith(f"regression {name}: change median ") and ", parent IQR/median 0.0%, bound " in line
            and line.endswith(("%: within bound", "%: regressed"))
            for line in lines
        )
    caches = [line for line in lines if line.startswith("bytecode caches at the start: ")]
    assert len(caches) == 1 and caches[0].split(": ")[1].startswith("parent ")
    assert "; match" in lines[-3] and lines[-2] == "runs whose passes disagreed: parent 0, change 0"
    assert lines[-1] == "failed checks: parent 0, change 0"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_workload_list():
    bench_pairs = _bench_pairs()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # without --workload every declared workload is paired, in the file's order
    assert bench_pairs.workloads(spec, None) == [w["name"] for w in spec["workloads"]]
    assert bench_pairs.workloads(spec, None) == ["stall", "spread", "dynamic", "verify"]
    assert bench_pairs.workloads(spec, "dynamic") == ["dynamic"]


def test_bench_pairs_claim_rule():
    bench_pairs = _bench_pairs()
    # parent median 11, quartiles 10 and 12
    parent = [10.0] * 5 + [12.0] * 5
    assert bench_pairs.compare("lower", parent, [8.0] * 10) == (10, 3.0, 2.0, True)
    assert bench_pairs.compare("lower", parent, [8.0] * 9 + [13.0]) == (9, 3.0, 2.0, True)
    assert bench_pairs.compare("lower", parent, [8.0] * 8 + [13.0] * 2) == (8, 3.0, 2.0, False)
    assert bench_pairs.compare("lower", parent, [9.5] * 10) == (10, 1.5, 2.0, False)
    assert bench_pairs.compare("lower", parent, parent) == (0, 0.0, 2.0, False)
    assert bench_pairs.compare("higher", parent, [14.0] * 9 + [9.0]) == (9, 3.0, 2.0, True)
    assert bench_pairs.compare("higher", parent, [8.0] * 10) == (0, -3.0, 2.0, False)


def test_bench_pairs_memory_claim_needs_half_a_megabyte(monkeypatch, capsys):
    bench_pairs = _bench_pairs()
    assert bench_pairs.compare("lower", [44.0] * 10, [43.75] * 10, 0.5) == (10, 0.25, 0.0, False)
    assert bench_pairs.compare("lower", [44.0] * 10, [43.25] * 10, 0.5)[3]
    # a 0.25 MB gain in every pair, over a parent that never moves, is drift for
    # peak_rss_mb; the same gap on another metric still certifies its claim
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: 10.0 for m in spec["end_to_end"]}
    fake = {"parent": dict(metrics, peak_rss_mb=44.0), "change": dict(metrics, peak_rss_mb=43.75, run_s=9.75)}
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, workload, args: {
        "metrics": fake[checkout.name], "failed": 0, "digest": "d", "agree": True})
    args = bench_pairs.argparse.Namespace(pairs=10, seconds=1.0, seed=None)
    sides = {"parent": Path("parent"), "change": Path("change")}
    assert bench_pairs.pair_workload("stall", sides, {"parent": "none", "change": "none"}, spec, args)
    out = capsys.readouterr().out
    assert "verdict peak_rss_mb: median gap +0.25 against parent IQR 0, better in 10/10: claim does not hold\n" \
           "floor peak_rss_mb: a claimed gain also needs a median gap above 0.5\n" in out
    assert "verdict run_s: median gap +0.25 against parent IQR 0, better in 10/10: claim holds" in out


def test_bench_pairs_regression_rule():
    bench_pairs = _bench_pairs()
    # parent median 10, quartiles 9 and 11: IQR/median 0.2
    parent = [9.0] * 5 + [11.0] * 5
    assert bench_pairs.regression("lower", 0.25, parent, [12.0] * 10) == (0.2, 0.2, "within bound")
    assert bench_pairs.regression("lower", 0.25, parent, [13.0] * 10) == (0.3, 0.2, "regressed")
    assert bench_pairs.regression("higher", 0.25, parent, [7.0] * 10) == (0.3, 0.2, "regressed")
    assert bench_pairs.regression("higher", 0.25, parent, [13.0] * 10) == (-0.3, 0.2, "within bound")
    # a parent spread wider than the bound leaves a verdict open ...
    assert bench_pairs.regression("lower", 0.1, parent, [10.0] * 10) == (0.0, 0.2, "unresolved")
    assert bench_pairs.regression("lower", 0.1, parent, [13.0] * 10) == (0.3, 0.2, "unresolved")
    # ... unless every change run beats every parent run
    assert bench_pairs.regression("lower", 0.1, parent, [8.0] * 10) == (-0.2, 0.2, "within bound")
    assert bench_pairs.regression("higher", 0.1, parent, [12.0] * 10) == (-0.2, 0.2, "within bound")


def test_bench_pairs_refuses_one_sided_bytecode_cache(tmp_path, capsys):
    bench_pairs = _bench_pairs()
    parent, change = tmp_path / "parent", tmp_path / "change"
    (parent / "src" / "gossipsim" / "__pycache__").mkdir(parents=True)
    (parent / "src" / "gossipsim" / "__pycache__" / "graphs.cpython-311.pyc").write_bytes(b"")
    (change / "src" / "gossipsim").mkdir(parents=True)
    assert bench_pairs.bytecode_cache(parent) == "1 .pyc files"
    assert bench_pairs.bytecode_cache(change) == "none"
    # refused before any run starts, naming the checkout that holds the cache
    cached = re.escape(str(parent.resolve()))
    with pytest.raises(SystemExit, match=f"the parent checkout {cached} holds a bytecode cache"):
        bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workload", "stall"])
    with pytest.raises(SystemExit, match=f"the change checkout {cached} holds a bytecode cache"):
        bench_pairs.main(["--parent", str(change), "--change", str(parent), "--workload", "stall"])
