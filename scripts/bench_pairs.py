#!/usr/bin/env python3
"""Alternating parent/change pairs of ``perfbench/run.py``, workload by workload.

Usage:

    python3 scripts/bench_pairs.py --parent ../parent-checkout --pairs 10
    python3 scripts/bench_pairs.py --parent ../parent-checkout --workload verify --pairs 10
    python3 scripts/bench_pairs.py --parent A --change B --workload dynamic --seconds 8 --seed 9

Without ``--workload`` it runs the pairs of every workload that
``BENCHMARK.json`` names, one workload after another, in the file's order;
the report below is printed once per workload.

Each pair runs the benchmark once in each checkout, one after the other, with
the same settings; which side runs first alternates from pair to pair, the
parent first in pair 1. ``--change`` defaults to the checkout holding this
script. For every end-to-end metric that ``BENCHMARK.json`` declares, the
script prints each pair's values, each side's median and quartiles, and in
how many pairs the change read better (ties count for neither side). A
verdict line per metric then gives the median gap (positive when the change's
median is better) against the parent's interquartile range, and whether a
claimed gain would hold: the change better in at least 9 of every 10 pairs
and the gap wider than that range; for ``peak_rss_mb`` the gap must also pass
0.5 MB (``CLAIM_FLOORS``, printed on a line after the verdict), twice the drift
seen between trees that differ in no allocation. A regression line per metric
compares the change's median with the parent's against the metric's ``bound``
in ``BENCHMARK.json``: ``unresolved`` when the parent's IQR/median is wider than
the bound and not every change run beats every parent run, else ``regressed``
when the change is worse by more than the bound, else ``within bound``. Last
it prints each side's pass digests, read from the report a run writes to
``.perfbench/`` in its checkout, and whether they all match. It exits 1 when
a run of any workload fails, reports failed checks, or a digest differs,
between runs or between the passes of one run; it writes nothing under
``perfbench/``.

Each report's header also gives both checkouts' bytecode caches
(``src/gossipsim/__pycache__``) as found at the start. A side that holds a
cache imports the package without compiling it, which shows in its timings and
``peak_rss_mb``, so the script refuses to start, naming the checkout, when
exactly one side holds one.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The least median gap a claimed gain needs, by metric, whatever the IQR. Two
# trees that differ in no allocation read peak_rss_mb up to 0.25 MB apart,
# consistently within a batch, so a gain must be twice that drift.
CLAIM_FLOORS = {"peak_rss_mb": 0.5}


def run_once(checkout: Path, workload: str, args) -> dict:
    """One benchmark run of ``workload`` in ``checkout``: its metric values,
    failures, digest and whether all its passes agreed on that digest."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(args.seconds)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(cmd)} failed in {checkout}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    # run.py names the seed it used on stderr ("verify seed=4: ...") and in its report's file name
    seed = re.search(rf"^{re.escape(workload)} seed=(-?\d+):", proc.stderr, re.MULTILINE).group(1)
    report = json.loads((checkout / ".perfbench" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "failed": result["failed"],
        "digest": report["digest"],
        "agree": report["digests_agree"],
    }


def bytecode_cache(checkout: Path) -> str:
    """``checkout``'s package bytecode cache: "none", or how many compiled files it holds."""
    files = len(list((checkout / "src" / "gossipsim" / "__pycache__").glob("*.pyc")))
    return f"{files} .pyc files" if files else "none"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile); one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(
    direction: str, parent: list[float], change: list[float], floor: float = 0.0
) -> tuple[int, float, float, bool]:
    """For one metric over paired runs: the pairs the change read better (ties
    count for neither side), the median gap (positive when the change's median
    is better), the parent's interquartile range, and whether a claimed gain
    holds: the change better in at least 9 of every 10 pairs and the gap wider
    than that range and than ``floor``."""
    sign = -1 if direction == "lower" else 1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, med, q3 = quartiles(parent)
    gap = sign * (quartiles(change)[1] - med)
    return wins, gap, q3 - q1, 10 * wins >= 9 * len(parent) and gap > max(q3 - q1, floor)


def regression(direction: str, bound: float, parent: list[float], change: list[float]) -> tuple[float, float, str]:
    """For one metric over paired runs: how much worse the change's median is
    than the parent's, as a fraction of the parent's (negative when better),
    the parent's IQR/median, and the verdict against ``bound``: "unresolved"
    when that spread is wider than the bound and not every change run beats
    every parent run, else "regressed" when the change is worse by more than
    the bound, else "within bound"."""
    sign = -1 if direction == "lower" else 1
    q1, med, q3 = quartiles(parent)
    worse = sign * (med - quartiles(change)[1]) / med
    spread = (q3 - q1) / med
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not beats_all:
        return worse, spread, "unresolved"
    return worse, spread, "regressed" if worse > bound else "within bound"


def workloads(spec: dict, chosen: str | None) -> list[str]:
    """``[chosen]``, or without one every workload ``spec`` (``BENCHMARK.json``) names, in its order."""
    return [chosen] if chosen is not None else [w["name"] for w in spec["workloads"]]


def pair_workload(workload: str, sides: dict[str, Path], caches: dict[str, str], spec: dict, args) -> bool:
    """Run and report ``args.pairs`` pairs of ``workload``; True when the digests
    match and no run reports a failed check. ``caches`` holds each side's
    :func:`bytecode_cache` at the start, for the report's header."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], workload, args))
        values = "  ".join(
            f"{name} {runs['parent'][-1]['metrics'][name]:.6g}/{runs['change'][-1]['metrics'][name]:.6g}"
            for name in better
        )
        print(f"pair {pair + 1} ({order[0]} first), parent/change: {values}", flush=True)

    seed = "default" if args.seed is None else args.seed
    print(f"\n{workload} seed={seed}: {args.pairs} pairs of {args.seconds:g} s runs")
    print(f"bytecode caches at the start: parent {caches['parent']}, change {caches['change']}")
    print(f"{'metric':20s} {'parent median [q1, q3]':34s} {'change median [q1, q3]':34s} change better")
    verdicts = []
    for name, direction in better.items():
        values = {side: [r["metrics"][name] for r in runs[side]] for side in runs}
        cells = [f"{med:.6g} [{q1:.6g}, {q3:.6g}]" for q1, med, q3 in map(quartiles, values.values())]
        floor = CLAIM_FLOORS.get(name, 0.0)
        wins, gap, iqr, holds = compare(direction, values["parent"], values["change"], floor)
        print(f"{name:20s} {cells[0]:34s} {cells[1]:34s} {wins}/{args.pairs} ({direction} is better)")
        worse, spread, status = regression(direction, bounds[name], values["parent"], values["change"])
        verdicts += [
            f"verdict {name}: median gap {gap:+.6g} against parent IQR {iqr:.6g}, better in "
            f"{wins}/{args.pairs}: claim {'holds' if holds else 'does not hold'}",
            *([f"floor {name}: a claimed gain also needs a median gap above {floor:g}"] if floor else []),
            f"regression {name}: change median {abs(worse):.1%} {'worse' if worse > 0 else 'better'}, "
            f"parent IQR/median {spread:.1%}, bound {bounds[name]:.0%}: {status}",
        ]
    print("\n".join(verdicts))

    digests = {side: sorted({r["digest"] for r in runs[side]}) for side in runs}
    failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    split = {side: sum(not r["agree"] for r in runs[side]) for side in runs}
    match = digests["parent"] == digests["change"] and len(digests["parent"]) == 1 and not any(split.values())
    print(f"digests: parent {', '.join(d[:16] for d in digests['parent'])}; "
          f"change {', '.join(d[:16] for d in digests['change'])}; {'match' if match else 'DIFFER'}")
    print(f"runs whose passes disagreed: parent {split['parent']}, change {split['change']}")
    print(f"failed checks: parent {failed['parent']}, change {failed['change']}")
    return match and not any(failed.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="alternating parent/change benchmark pairs")
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT, help="checkout of the change (default: this one)")
    parser.add_argument("--workload", help="one workload (default: every one BENCHMARK.json names)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0, help="timed phase of each run")
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the workload's)")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for a smoke run")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    caches = {side: bytecode_cache(path) for side, path in sides.items()}
    cached = [side for side in sides if caches[side] != "none"]
    if len(cached) == 1:
        (side,) = cached
        sys.exit(f"bench_pairs: the {side} checkout {sides[side]} holds a bytecode cache "
                 f"({caches[side]} in src/gossipsim/__pycache__) and the other does not; "
                 "remove it, or give both sides one, before comparing")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    passed = [pair_workload(workload, sides, caches, spec, args) for workload in workloads(spec, args.workload)]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
