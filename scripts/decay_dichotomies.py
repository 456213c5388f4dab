#!/usr/bin/env python3
"""Locate the spread/no-spread boundary for decaying credibility empirically.

Sweeps the decay rate of the multiplicative schedule q(t) = (1-alpha)^t on a
complete graph and reports the median final informed fraction per point.
The log of the total growth product is (pi^2/12)/alpha, so the transition
to a vanishing informed set sits near alpha = (pi^2/6)/ln n, noticeably
above the 0.5/ln n constant sometimes quoted for this regime; the sweep
makes that visible. An additive sweep around its cutoff decay is included
for comparison.

Usage:
    python scripts/decay_dichotomies.py [--n 65536] [--trials 20] [--out dich.csv]
"""

from __future__ import annotations

import argparse
import math
import sys

from gossipsim import (
    Additive,
    ExperimentSpec,
    Multiplicative,
    ProtocolKind,
    RecordLevel,
    StaticGraph,
    complete_graph,
)
from gossipsim.harness import run_experiment


def median_final_fraction(spec: ExperimentSpec) -> float:
    _, summary = run_experiment(spec)
    return summary.final_informed_median / summary.n


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=65536)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    n = args.n
    log_n = math.log(n)
    graph = StaticGraph(complete_graph(n))
    lines = ["family,alpha,alpha_times_log_n,median_final_fraction"]

    for coeff in (0.125, 0.25, 0.5, 1.0, 1.4, math.pi**2 / 6, 2.0, 3.0):
        alpha = coeff / log_n
        spec = ExperimentSpec(
            graph=graph,
            protocol=ProtocolKind.PUSH,
            credibility=Multiplicative(alpha),
            trials=args.trials,
            max_rounds=math.ceil(8 * log_n),
            master_seed=args.seed,
            record_level=RecordLevel.SUMMARY,
        )
        frac = median_final_fraction(spec)
        lines.append(f"multiplicative,{alpha:.6f},{coeff:.3f},{frac:.4f}")
        print(lines[-1])

    # additive: the cutoff decay log(4/e) / (0.75 * log n) stops the spread
    # hard at round 1/alpha; halving it lets the rumor through
    cutoff = math.log(4 / math.e) / (0.75 * log_n)
    for alpha in (2 * cutoff, cutoff, cutoff / 2, cutoff / 4):
        spec = ExperimentSpec(
            graph=graph,
            protocol=ProtocolKind.PUSH,
            credibility=Additive(alpha),
            trials=args.trials,
            max_rounds=math.ceil(1 / alpha) + 1,
            master_seed=args.seed,
            record_level=RecordLevel.SUMMARY,
        )
        frac = median_final_fraction(spec)
        lines.append(f"additive,{alpha:.6f},{alpha * log_n:.3f},{frac:.4f}")
        print(lines[-1])

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
