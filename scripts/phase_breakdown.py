#!/usr/bin/env python3
"""Where a run's rounds go: measured rounds per phase of ``phase_schedule``.

Reads the informed counts of exported per-round records (CSV, or JSONL when
the path ends in ``.jsonl``); n comes from the records. Round t belongs to
the phase whose range holds the count at its start: a growing phase holds
|I_t| in [start, finish), a shrinking phase |U_t| = n - |I_t| in
(finish, start], and the first such phase in schedule order takes it. For
the trials that complete, it prints each phase's mean measured rounds beside
its ``duration_bound``, then the mean and p95 (numpy's linear quantile)
completion round and 1.2 x ``fixed_q_runtime``. Each phase row also gives
the phase's per-round rate floor ``nu``, the one column lambda moves. The
output depends on the records and flags only.

Usage:
    python scripts/phase_breakdown.py --in records.csv --protocol push --q 1 [--lambda 0.35]
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from gossipsim import ProtocolKind, fixed_q_runtime, phase_schedule
from gossipsim.errors import GossipSimError, RangeError
from gossipsim.harness import load_records_csv, load_records_jsonl


def phase_of(count: int, n: int, phases) -> int:
    """Index of the first phase whose range holds ``count`` informed vertices."""
    for k, p in enumerate(phases):
        if p.mode == "growing" and p.start_size <= count < p.finish_size:
            return k
        if p.mode == "shrinking" and p.finish_size < n - count <= p.start_size:
            return k
    raise RangeError(f"informed count {count} lies in no phase of n = {n}")


def breakdown(counts_by_trial: list[list[int]], n: int, phases) -> list[float]:
    """Mean measured rounds per phase over trials whose counts end at completion."""
    rounds = np.zeros(len(phases))
    for counts in counts_by_trial:
        for count in counts[:-1]:
            rounds[phase_of(count, n, phases)] += 1
    return (rounds / len(counts_by_trial)).tolist()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--in", dest="infile", required=True, help="per-round records, CSV or .jsonl")
    parser.add_argument("--protocol", required=True, choices=[k.value for k in ProtocolKind])
    parser.add_argument("--q", type=float, required=True, help="the run's constant credibility")
    parser.add_argument("--lambda", dest="lam", type=float, default=0.0, help="spectral lambda (default 0)")
    args = parser.parse_args(argv)
    try:
        records = (load_records_jsonl if args.infile.endswith(".jsonl") else load_records_csv)(args.infile)
        sizes = {r.n for r in records}
        if not records or None in sizes or len(sizes) > 1 or any(r.informed_counts is None for r in records):
            raise RangeError(f"{args.infile}: needs per-round records that all carry the same n")
        (n,) = sizes
        kind = ProtocolKind.parse(args.protocol)
        phases = phase_schedule(kind, args.q, n, lam=args.lam).phases
        # each completed trial's counts, up to its completion round
        done = [r.informed_counts[: r.informed_counts.index(n) + 1] for r in records if n in r.informed_counts]
        if not done:
            raise RangeError(f"{args.infile}: none of {len(records)} trials completed")
        measured = breakdown(done, n, phases)
        completions = [len(counts) - 1 for counts in done]
        target = 1.2 * fixed_q_runtime(kind, args.q, n)
    except GossipSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"n = {n}, {kind.value}, q = {args.q:g}, lambda = {args.lam:g}: {len(done)} of {len(records)} trials completed")
    print(f"{'phase':>5}  {'mode':9}  {'from':>10}  {'to':>10}  {'nu':>6}  {'measured':>8}  {'bound':>8}")
    for k, (p, rounds) in enumerate(zip(phases, measured), start=1):
        print(f"{k:5d}  {p.mode:9}  {p.start_size:10.2f}  {p.finish_size:10.2f}  {p.nu:6.3f}  {rounds:8.2f}  "
              f"{p.duration_bound:8.2f}")
    print(f"mean completion {np.mean(completions):.2f}, p95 completion {np.quantile(completions, 0.95):.2f}, "
          f"1.2 x fixed_q_runtime {target:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
