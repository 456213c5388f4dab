#!/usr/bin/env python3
"""Spreading-time benchmark on complete graphs and a random regular graph.

Measures empirical completion times for PUSH / PULL / PUSH-PULL at several
constant credibilities and compares them against the leading-order runtime
formulas. Writes one CSV row per (graph, protocol, q) point.

Usage:
    python scripts/complete_graph_benchmark.py [--trials 100] [--out bench.csv]
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from gossipsim import (
    Constant,
    ExperimentSpec,
    ProtocolKind,
    RecordLevel,
    StaticGraph,
    complete_graph,
    fixed_q_runtime,
    generate_random_regular,
)
from gossipsim.harness import run_experiment


def completion_stats(spec: ExperimentSpec) -> tuple[float, float, float]:
    records, summary = run_experiment(spec)
    done = [r.completion_round for r in records if r.completion_round is not None]
    if not done:
        return summary.fraction_completed, math.nan, math.nan
    return summary.fraction_completed, summary.completion_mean, float(np.quantile(done, 0.95))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    graphs = [
        ("K_1024", StaticGraph(complete_graph(1024))),
        ("rr_4096_32", StaticGraph(generate_random_regular(4096, 32, seed=11))),
    ]
    points = [
        (ProtocolKind.PUSH, 1.0),
        (ProtocolKind.PUSH, 0.5),
        (ProtocolKind.PULL, 0.5),
        (ProtocolKind.PUSH_PULL, 0.5),
    ]

    lines = ["graph,protocol,q,predicted,mean_completion,p95_completion,fraction_completed"]
    for gname, graph in graphs:
        for kind, q in points:
            predicted = fixed_q_runtime(kind, q, graph.n)
            spec = ExperimentSpec(
                graph=graph,
                protocol=kind,
                credibility=Constant(q),
                trials=args.trials,
                max_rounds=math.ceil(3 * predicted),
                master_seed=args.seed,
                record_level=RecordLevel.SUMMARY,
            )
            frac, mean, p95 = completion_stats(spec)
            lines.append(
                f"{gname},{kind.value},{q},{predicted:.2f},{mean:.2f},{p95:.1f},{frac:.2f}"
            )
            print(lines[-1])

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
