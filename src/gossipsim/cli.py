"""Command line interface.

Subcommands: ``simulate`` (seeded Monte Carlo runs), ``predict`` (threshold
and runtime calculators), ``bounds`` (growth/shrink bound tables),
``verify`` (built-in verification suites), ``sweep`` (cartesian parameter
sweeps) and ``plot`` (SVG trajectory charts). Exit code 0 on success, 1 on
verification failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import math
import sys
from dataclasses import asdict

from . import harness
from .bounds import GROWTH_CONSTANT, basic_growth_bounds, refined_spectral_lower, shrink_bounds
from .credibility import Constant, parse_credibility
from .errors import DomainError, GossipSimError, RangeError, _io_errors
from .graphs import load_graph, parse_graph_spec, spectral_lambda
from .plotting import plot_trajectories
from .predictor import (
    general_strong_T,
    phase_schedule,
    predictor_comparison,
    tau2_threshold,
    tau3_threshold,
)
from .protocol import ProtocolKind

__all__ = ["main", "build_parser"]

_VERIFY_SCOPES = {scope: suite for suite, (scope, _) in harness.VERIFY_SUITES.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gossipsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run seeded Monte Carlo trials")
    _add_simulate_args(sim)
    sim.add_argument("--out", help="write trial records to this path")
    sim.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    sim.add_argument("--summary-out", help="write the summary JSON to this path")

    pred = sub.add_parser("predict", help="thresholds, phase plan and runtime predictions")
    pred.add_argument("--protocol", required=True)
    pred.add_argument("--cred", required=True)
    pred.add_argument("--n", type=int, required=True)
    group = pred.add_mutually_exclusive_group()
    group.add_argument("--lambda", dest="lam", type=float)
    group.add_argument("--graph-file")

    bnd = sub.add_parser("bounds", help="print growth/shrink bound rows")
    bnd.add_argument("--protocol", required=True)
    bnd.add_argument("--q", type=float, required=True)
    bnd.add_argument("--phi", type=float, required=True)
    bnd.add_argument("--lambda", dest="lam", type=float)
    bnd.add_argument("--fraction", type=float, default=0.0,
                     help="informed fraction for the spectral lower bound")
    bnd.add_argument("--d", type=int)
    bnd.add_argument("--csv", action="store_true")

    ver = sub.add_parser("verify", help="run a built-in verification suite")
    ver.add_argument("--scope", required=True, choices=_VERIFY_SCOPES)

    swp = sub.add_parser("sweep", help="cartesian parameter sweep, one summary row per point")
    _add_simulate_args(swp)
    swp.add_argument("--param", action="append", required=True,
                     choices=("alpha", "q", "n", "d", "trials", "seed", "max-rounds"))
    swp.add_argument("--values", action="append", required=True,
                     help="comma-separated values, one flag per --param")
    swp.add_argument("--out", help="write the sweep CSV here instead of stdout")

    plt = sub.add_parser("plot", help="render exported records as an SVG chart")
    plt.add_argument("--in", dest="infile", required=True)
    plt.add_argument("--out", required=True)
    plt.add_argument("--protocol")
    plt.add_argument("--q", type=float)
    plt.add_argument("--n", type=int)
    plt.add_argument("--lambda", dest="lam", type=float, default=0.0)
    return parser


def _add_simulate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="e.g. complete:1024 or regular:4096,32,seed=7")
    p.add_argument("--protocol", required=True, help="push | pull | push-pull")
    p.add_argument("--cred", required=True, help="e.g. const:0.5 or power:2")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--max-rounds", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--initial", type=int, default=1, help="number of initially informed vertices")
    p.add_argument("--record", default="per-round",
                   choices=("summary", "per-round", "per-round-exact"))


def _spec_from_args(args) -> harness.ExperimentSpec:
    return harness.ExperimentSpec(
        graph=parse_graph_spec(args.graph),
        protocol=ProtocolKind.parse(args.protocol),
        credibility=parse_credibility(args.cred),
        initial_informed=args.initial,
        trials=args.trials,
        max_rounds=args.max_rounds,
        master_seed=args.seed,
        record_level=harness.RecordLevel.parse(args.record),
    )


def _cmd_simulate(args) -> int:
    spec = _spec_from_args(args)
    records, summary = harness.run_experiment(spec)
    if args.out:
        harness.export_records(records, args.out, fmt=args.format)
    if args.summary_out:
        harness.export_summary(summary, args.summary_out)
    print(summary.to_json())
    return 0


def _cmd_predict(args) -> int:
    kind = ProtocolKind.parse(args.protocol)
    cred = parse_credibility(args.cred)
    n = args.n
    if n < 3:
        raise RangeError(f"need n >= 3, got {n}")
    lam = args.lam
    if lam is not None and not 0.0 <= lam <= 1.0:
        raise RangeError(f"lambda must be in [0, 1], got {lam}")
    if args.graph_file:
        g = load_graph(args.graph_file)
        if g.n != n:
            raise RangeError(f"{args.graph_file} has {g.n} vertices but --n is {n}")
        lam = spectral_lambda(g).lam

    out: dict = {
        "protocol": kind.value,
        "n": n,
        "lambda": lam,
        "credibility": args.cred,
        "leading_order": True,
        "family": predictor_comparison(kind, cred, n, lam=lam),
    }

    if isinstance(cred, Constant) and 0.0 < cred.q <= 1.0:
        q = cred.q
        out["fixed_q_runtime"] = out["family"]["fixed_q_runtime"]
        try:
            plan = phase_schedule(kind, q, n, lam=lam or 0.0)
            out["phase_plan"] = [asdict(p) for p in plan.phases]
            out["phase_plan_total"] = plan.total_rounds
        except (DomainError, RangeError):
            out["phase_plan"] = None
    log_n = math.log(n)
    out["tau2_threshold_main_phase"] = tau2_threshold(log_n, n / log_n, GROWTH_CONSTANT[kind])
    out["tau3_threshold_main_phase"] = tau3_threshold(n / log_n, max(log_n, 0.75), 0.5)
    if lam is not None and kind in (ProtocolKind.PUSH, ProtocolKind.PULL):
        try:
            res = general_strong_T(cred, lam, n, kind)
            out["general_strong_T"] = {
                "rounds": res.rounds,
                "threshold": res.threshold,
                "gamma": res.gamma,
                "epsilon_ok": res.epsilon_ok,
            }
        except GossipSimError as exc:
            out["general_strong_T"] = {"error": str(exc)}
    print(json.dumps(harness._jsonable(out), sort_keys=True))
    return 0


def _cmd_bounds(args) -> int:
    kind = ProtocolKind.parse(args.protocol)
    rows = []
    basic = basic_growth_bounds(kind, args.q, args.phi)
    rows.append(("growth-basic", basic.lower, basic.upper, basic.source))
    if args.lam is not None and kind is not ProtocolKind.PULL:
        refined = refined_spectral_lower(kind, args.q, args.lam, args.fraction)
        rows.append(("growth-spectral-lower", refined, float("nan"), "refined/spectral"))
    if args.d is not None:
        sb = shrink_bounds(kind, args.q, args.phi, args.d)
        rows.append(("shrink", sb.lower, sb.upper, sb.source))

    if args.csv:
        print("bound,lower,upper,source")
        for name, lower, upper, source in rows:
            print(f"{name},{lower!r},{upper!r},{source}")
    else:
        print(f"{'bound':<24}{'lower':>14}{'upper':>14}  source")
        for name, lower, upper, source in rows:
            upper_text = f"{upper:>14.9f}" if upper == upper else f"{'-':>14}"
            print(f"{name:<24}{lower:>14.9f}{upper_text}  {source}")
    return 0


def _cmd_verify(args) -> int:
    report = harness.verify_suite(_VERIFY_SCOPES[args.scope])
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _apply_sweep_value(args, param: str, value: str):
    if param == "alpha":
        if not hasattr(parse_credibility(args.cred), "alpha"):
            raise RangeError("--param alpha needs a power/add/mult credibility")
        args.cred = f"{args.cred.partition(':')[0]}:{value}"
    elif param == "q":
        args.cred = f"const:{value}"
    elif param in ("n", "d"):
        head, _, rest = args.graph.partition(":")
        parts = [p.strip() for p in rest.split(",") if p.strip()]
        plain = [i for i, p in enumerate(parts) if not p.startswith("seed=")]
        slot = 0 if param == "n" else 1
        if slot >= len(plain):
            raise RangeError(f"--param {param} does not apply to graph spec {args.graph!r}")
        parts[plain[slot]] = value
        args.graph = f"{head}:{','.join(parts)}"
    else:
        try:
            setattr(args, param.replace("-", "_"), int(value))
        except ValueError as exc:
            raise RangeError(f"--param {param} needs integer values, got {value!r}") from exc


def _cmd_sweep(args) -> int:
    if len(args.param) != len(args.values):
        raise RangeError("each --param needs a matching --values")
    grids = [vals.split(",") for vals in args.values]

    fixed_n = "n" not in args.param  # a swept n already has its column
    header = [*args.param, *(["n"] if fixed_n else []), "fraction_completed", "completion_mean",
              "completion_median", "final_informed_mean", "final_informed_median"]
    lines = [",".join(header)]
    for combo in itertools.product(*grids):
        point = copy.copy(args)
        for param, value in zip(args.param, combo):
            _apply_sweep_value(point, param, value)
        _, summary = harness.run_experiment(_spec_from_args(point))
        row = [
            *combo,
            *([str(summary.n)] if fixed_n else []),
            repr(summary.fraction_completed),
            repr(summary.completion_mean) if summary.completion_mean is not None else "",
            repr(summary.completion_median) if summary.completion_median is not None else "",
            repr(summary.final_informed_mean),
            repr(summary.final_informed_median),
        ]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if args.out:
        with _io_errors(), open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_plot(args) -> int:
    if args.infile.endswith(".jsonl"):
        records = harness.load_records_jsonl(args.infile)
    else:
        records = harness.load_records_csv(args.infile)
    phases = None
    if args.protocol and args.q is not None and args.n is not None:
        phases = phase_schedule(ProtocolKind.parse(args.protocol), args.q, args.n, lam=args.lam)
    plot_trajectories(records, args.out, phases=phases, n=args.n)
    return 0


_DISPATCH = {
    "simulate": _cmd_simulate,
    "predict": _cmd_predict,
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "plot": _cmd_plot,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except GossipSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
