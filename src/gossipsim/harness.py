"""Seeded Monte Carlo experiment running, aggregation, persistence and checks.

An :class:`ExperimentSpec` pins everything a run depends on: the dynamic
graph, protocol, credibility schedule, trial count, round budget and master
seed. Trial ``i`` draws all of its randomness from the one stream
``rng_for(master_seed, i)``, whose seed is its record's, so a trial's record
is the same alone or beside others and two runs of the same spec agree byte
for byte. Trials run in lockstep, one round at a time, sharing each round's
snapshot, and every live trial-round runs ``step``, a stalled one included.
On the implicit complete graph only |I| matters: trial ``i`` runs the
event-driven count chain on its stream instead.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .bounds import basic_growth_bounds, shrink_bounds
from .credibility import Constant, Credibility, PowerLaw, format_credibility
from .errors import DomainError, IoError, RangeError
from .graphs import (
    DynamicGraphSpec,
    StaticGraph,
    complete_graph,
    conductance,
    cycle_graph,
    generate_random_regular,
    is_connected,
    matching_graph,
)
from .predictor import (
    PredictorConfig,
    fixed_q_runtime,
    harmonic_sum_check,
    multiplicative_product_check,
    predictor_comparison,
    stirling_product_check,
    tau2_rounds,
    tau2_threshold,
    tau3_rounds,
    tau3_threshold,
)
from .protocol import (
    ProtocolKind,
    complete_chain,
    complete_delta_expectation,
    complete_final_law,
    complete_size_law,
    enumerate_joint_distribution,
    exact_delta_expectation,
    growth_factor,
    initial_state,
    step,
    verify_process_properties,
)
from .seeds import mix_seed, rng_for

__all__ = [
    "RecordLevel",
    "ExperimentSpec",
    "TrialRecord",
    "ExperimentSummary",
    "resolved_max_rounds",
    "run_trial",
    "run_experiment",
    "summarize",
    "export_records",
    "export_summary",
    "load_records_csv",
    "load_records_jsonl",
    "tiny_corpus",
    "iter_tiny_instances",
    "VerifyReport",
    "VERIFY_SUITES",
    "verify_suite",
]


class RecordLevel(Enum):
    SUMMARY = "summary"
    PER_ROUND = "per_round"
    PER_ROUND_EXACT = "per_round_with_exact_delta"

    @classmethod
    def parse(cls, text: str) -> "RecordLevel":
        aliases = {
            "summary": cls.SUMMARY,
            "per-round": cls.PER_ROUND,
            "per_round": cls.PER_ROUND,
            "per-round-exact": cls.PER_ROUND_EXACT,
            "per_round_with_exact_delta": cls.PER_ROUND_EXACT,
        }
        key = text.strip().lower()
        if key not in aliases:
            raise RangeError(f"unknown record level {text!r}")
        return aliases[key]


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
    graph: DynamicGraphSpec
    protocol: ProtocolKind
    credibility: Credibility
    initial_informed: int = 1
    trials: int = 1
    max_rounds: int | None = None
    master_seed: int = 0
    record_level: RecordLevel = RecordLevel.PER_ROUND

    def __post_init__(self):
        if self.trials < 1:
            raise RangeError(f"trials must be >= 1, got {self.trials}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise RangeError(f"max rounds must be >= 1, got {self.max_rounds}")
        if not 1 <= self.initial_informed <= self.graph.n:
            raise RangeError(
                f"initial informed count {self.initial_informed} not in [1, {self.graph.n}]"
            )


def resolved_max_rounds(spec: ExperimentSpec) -> int:
    """Explicit budget, else 10x the fixed-q runtime estimate, else 100 log n.

    The fallback keeps runs with vanishing credibility (power-law alpha > 1
    never completes) from spinning forever.
    """
    if spec.max_rounds is not None:
        return spec.max_rounds
    if isinstance(spec.credibility, Constant):
        try:
            return max(1, math.ceil(10.0 * fixed_q_runtime(spec.protocol, spec.credibility.q, spec.graph.n)))
        except (RangeError, DomainError):
            pass
    return max(1, math.ceil(100.0 * math.log(spec.graph.n)))


@dataclass
class TrialRecord:
    """Per-trial outcome; per-round fields are None at summary record level.

    ``seed`` is ``mix_seed(master_seed, trial)``: the trial replays from
    ``Generator(PCG64(seed))`` alone.
    """

    trial: int
    final_informed: int
    completion_round: int | None
    seed: int | None = None
    n: int | None = None
    informed_counts: list[int] | None = None
    q_values: list[float] | None = None
    exact_deltas: list[float] | None = None


def _run_lockstep(spec: ExperimentSpec, trials: Sequence[int]) -> list[TrialRecord]:
    """Run ``trials`` until each completes or the budget runs out.

    q(0) .. q(budget) is read once into one array ``q``: either engine steps
    round t with ``q[t]``. Trial i draws from its own stream
    ``rng_for(master_seed, i)``, whose seed is the record's. On the implicit
    K_n (a :class:`StaticGraph` of ``complete_graph(n)``) only |I| matters:
    the trial runs :func:`protocol.complete_chain` on it. Every other graph
    runs the mask engine round-major (:func:`_run_masks`). Either way a
    trial's record is the same alone or beside others.
    """
    n = spec.graph.n
    exact = spec.record_level is RecordLevel.PER_ROUND_EXACT
    budget = resolved_max_rounds(spec)
    q = spec.credibility.first(budget + 1)
    rngs = [rng_for(spec.master_seed, i) for i in trials]
    if isinstance(spec.graph, StaticGraph) and spec.graph.graph.is_complete:
        counts = [complete_chain(spec.protocol, n, spec.initial_informed, q[:budget], rng) for rng in rngs]
        deltas = [
            complete_delta_expectation(spec.protocol, n, c[:-1], q[: len(c) - 1]).tolist() if exact else []
            for c in counts
        ]
    else:
        counts, deltas = _run_masks(spec, rngs, q[:budget])

    per_round = spec.record_level is not RecordLevel.SUMMARY
    return [
        TrialRecord(
            trial=i,
            seed=mix_seed(spec.master_seed, i),
            n=n,
            final_informed=c[-1],
            completion_round=len(c) - 1 if c[-1] == n else None,
            informed_counts=c if per_round else None,
            q_values=q[: len(c)].tolist() if per_round else None,
            exact_deltas=d if exact else None,
        )
        for i, c, d in zip(trials, counts, deltas)
    ]


def _run_masks(spec, rngs, q):
    """Per-trial counts and exact deltas of the mask engine, run round-major.

    Round t's snapshot is fetched once, and every live trial steps on it with
    credibility ``q[t]``, trial j on its own Generator ``rngs[j]``.
    """
    n = spec.graph.n
    exact = spec.record_level is RecordLevel.PER_ROUND_EXACT
    states = [initial_state(n, spec.initial_informed)] * len(rngs)
    counts = [[spec.initial_informed] for _ in rngs]
    deltas: list[list[float]] = [[] for _ in rngs]

    for t, q_t in enumerate(q.tolist()):
        live = [j for j, c in enumerate(counts) if c[-1] < n]
        if not live:
            break
        g = spec.graph.snapshot(t)
        for j in live:
            if exact:
                deltas[j].append(exact_delta_expectation(spec.protocol, g, states[j].informed, q_t))
            states[j] = step(spec.protocol, g, states[j], q_t, rngs[j])
            counts[j].append(int(np.count_nonzero(states[j].informed)))
    return counts, deltas


def run_trial(spec: ExperimentSpec, trial_index: int) -> TrialRecord:
    """Run one seeded trial until everyone is informed or the budget runs out."""
    return _run_lockstep(spec, [trial_index])[0]


@dataclass
class ExperimentSummary:
    trials: int
    n: int
    fraction_completed: float
    completion_mean: float | None
    completion_median: float | None
    completion_quantiles: dict[str, float] | None
    final_informed_mean: float
    final_informed_median: float
    mean_informed_fraction_by_round: list[float] | None
    predictor: dict | None
    config: dict

    def to_dict(self) -> dict:
        return _jsonable(asdict(self))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def summarize(spec: ExperimentSpec, records: list[TrialRecord]) -> ExperimentSummary:
    """Aggregate trial records; every statistic is recomputable from exports."""
    n = spec.graph.n
    completions = [r.completion_round for r in records if r.completion_round is not None]
    finals = np.array([r.final_informed for r in records], dtype=float)

    quantiles = None
    if completions:
        arr = np.array(completions, dtype=float)
        quantiles = {
            "q10": float(np.quantile(arr, 0.10)),
            "q25": float(np.quantile(arr, 0.25)),
            "q75": float(np.quantile(arr, 0.75)),
            "q90": float(np.quantile(arr, 0.90)),
        }

    by_round = None
    traced = [r.informed_counts for r in records if r.informed_counts]
    if traced:
        horizon = max(len(c) for c in traced)
        total = np.zeros(horizon)
        for c in traced:
            padded = np.array(c + [c[-1]] * (horizon - len(c)), dtype=float)
            total += padded
        by_round = list(total / (len(traced) * n))

    return ExperimentSummary(
        trials=len(records),
        n=n,
        fraction_completed=len(completions) / len(records) if records else 0.0,
        completion_mean=float(np.mean(completions)) if completions else None,
        completion_median=float(np.median(completions)) if completions else None,
        completion_quantiles=quantiles,
        final_informed_mean=float(finals.mean()) if len(finals) else 0.0,
        final_informed_median=float(np.median(finals)) if len(finals) else 0.0,
        mean_informed_fraction_by_round=by_round,
        predictor=predictor_comparison(spec.protocol, spec.credibility, n),
        config={
            "graph": spec.graph.describe(),
            "n": n,
            "protocol": spec.protocol.value,
            "credibility": format_credibility(spec.credibility),
            "initial_informed": spec.initial_informed,
            "trials": spec.trials,
            "max_rounds": resolved_max_rounds(spec),
            "master_seed": spec.master_seed,
            "record_level": spec.record_level.value,
        },
    )


def run_experiment(spec: ExperimentSpec) -> tuple[list[TrialRecord], ExperimentSummary]:
    """Run all trials in lockstep; return their records and the summary."""
    records = _run_lockstep(spec, range(spec.trials))
    return records, summarize(spec, records)


# -- persistence ---------------------------------------------------------------

PER_ROUND_HEADER = ("trial", "round", "informed", "q_t", "n")
SUMMARY_HEADER = ("trial", "completion", "final", "n")


def _cell(value: int | None):
    """A CSV cell for an optional integer: empty when unknown."""
    return "" if value is None else value


def _optional_int(text: str) -> int | None:
    return None if text == "" else int(text)


def _count(text: str, n: int | None) -> int:
    """An informed count, which may not exceed a known n."""
    count = int(text)
    if n is not None and count > n:
        raise ValueError(f"informed count {count} exceeds n = {n}")
    return count


def _per_round_row(trial, rnd, informed, q_t, n=""):
    n = _optional_int(n)
    return int(trial), int(rnd), _count(informed, n), float(q_t) if q_t else None, n


def _summary_row(trial, completion, final, n=""):
    n = _optional_int(n)
    return _consistent(
        TrialRecord(trial=int(trial), n=n, final_informed=_count(final, n), completion_round=_optional_int(completion))
    )


def export_records(records: list[TrialRecord], path, fmt: str = "csv") -> None:
    """Write records as CSV or JSONL (UTF-8, LF newlines, headers present).

    CSV uses per-round rows (trial, round, informed, q_t, n) when the records
    carry trajectories, else summary rows (trial, completion, final, n); an
    unknown n is left empty; a CSV export of both kinds of record raises
    RangeError, since one header cannot hold them. JSONL writes one full
    record object per line.
    """
    if fmt not in ("csv", "jsonl"):
        raise RangeError(f"unknown export format {fmt!r}")
    if fmt == "csv" and len({bool(r.informed_counts) for r in records}) > 1:
        raise RangeError("a CSV export cannot mix per-round and summary records")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            if fmt == "jsonl":
                for r in records:
                    fh.write(json.dumps(_jsonable(asdict(r)), sort_keys=True) + "\n")
                return
            writer = csv.writer(fh, lineterminator="\n")
            per_round = any(r.informed_counts for r in records)
            if per_round or not records:
                writer.writerow(PER_ROUND_HEADER)
                for r in records:
                    for t, informed in enumerate(r.informed_counts or ()):
                        q_t = r.q_values[t] if r.q_values else ""
                        writer.writerow([r.trial, t, informed, q_t, _cell(r.n)])
            else:
                writer.writerow(SUMMARY_HEADER)
                for r in records:
                    writer.writerow([r.trial, _cell(r.completion_round), r.final_informed, _cell(r.n)])
    except OSError as exc:
        raise IoError(str(exc)) from exc


def export_summary(summary: ExperimentSummary, path) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(summary.to_json() + "\n")
    except OSError as exc:
        raise IoError(str(exc)) from exc


def _parse_rows(path, rows: list[list[str]], parse) -> list:
    """``parse(*row)`` for each data row; a malformed row raises RangeError naming its line."""
    width = len(rows[0])
    parsed = []
    for line, row in enumerate(rows[1:], start=2):
        try:
            if len(row) != width:
                raise ValueError(f"expected {width} fields, got {len(row)}")
            parsed.append(parse(*row))
        except ValueError as exc:
            raise RangeError(f"{path}, line {line}: {exc}") from exc
    return parsed


def load_records_csv(path) -> list[TrialRecord]:
    """Re-import an exported CSV (either row schema, with or without the n column).

    A per-round trial's rows, in any order, must hold rounds 0..k exactly
    once each; a skipped or repeated round raises RangeError naming the first
    offending line. Its completion round is the first round whose informed
    count reaches n; without n it stays None. A trial whose q_t cells are all
    blank loads with ``q_values=None``; a blank cell among filled ones raises
    RangeError naming its line. So does a row whose n differs from an earlier
    row of its trial, or whose informed count or final exceeds its n. After
    those checks, so does each record that no run produces (:func:`_run_fault`).
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise IoError(str(exc)) from exc
    if not rows:
        raise RangeError(f"{path}: missing header")
    header = tuple(rows[0])
    if header in (PER_ROUND_HEADER, PER_ROUND_HEADER[:-1]):
        by_trial: dict[int, list[tuple[int, int, float | None, int]]] = {}
        n_of: dict[int, int | None] = {}
        for line, (trial, rnd, informed, q_t, n) in enumerate(_parse_rows(path, rows, _per_round_row), start=2):
            by_trial.setdefault(trial, []).append((rnd, informed, q_t, line))
            if n_of.setdefault(trial, n) != n:
                raise RangeError(f"{path}, line {line}: trial {trial} has n = {n} here, but n = {n_of[trial]} before")
        records = []
        for trial in sorted(by_trial):
            entries = sorted(by_trial[trial], key=lambda e: e[0])
            for k, (rnd, _, _, line) in enumerate(entries):
                if rnd != k:
                    raise RangeError(f"{path}, line {line}: trial {trial} needs round {k} here, got round {rnd}")
            n = n_of[trial]
            blank = [line for _, _, q, line in entries if q is None]
            if 0 < len(blank) < len(entries):
                raise RangeError(f"{path}, line {blank[0]}: blank q_t, but trial {trial} has q_t in other rounds")
            records.append(
                TrialRecord(
                    trial=trial,
                    n=n,
                    final_informed=entries[-1][1],
                    completion_round=next((rnd for rnd, inf, _, _ in entries if inf == n), None),
                    informed_counts=[inf for _, inf, _, _ in entries],
                    q_values=None if blank else [q for _, _, q, _ in entries],
                )
            )
            fault = _run_fault(records[-1])
            if fault is not None:
                raise RangeError(f"{path}, line {entries[fault[0]][3]}: {fault[1]}")
        return records
    if header in (SUMMARY_HEADER, SUMMARY_HEADER[:-1]):
        return _parse_rows(path, rows, _summary_row)
    raise RangeError(f"{path}: unrecognized header {header}")


def _consistent(r: TrialRecord) -> TrialRecord:
    """``r`` if its counts are integers within n that end in its final, with one q per count,
    and a run could produce it (:func:`_run_fault`)."""
    counts = r.informed_counts
    ints = [r.final_informed, *(counts or ())]
    if any(type(x) is not int for x in ints) or type(r.n) not in (int, type(None)):
        raise ValueError("n, informed counts and final_informed must be integers")
    if r.n is not None and max(ints) > r.n:
        raise ValueError(f"informed count {max(ints)} exceeds n = {r.n}")
    if counts is not None and counts[-1:] != [r.final_informed]:
        raise ValueError(f"final_informed {r.final_informed} is not the last informed count")
    if r.q_values is not None and len(r.q_values) != len(ints) - 1:
        raise ValueError(f"{len(r.q_values)} q_values for {len(ints) - 1} informed counts")
    fault = _run_fault(r)
    if fault is not None:
        raise ValueError(fault[1])
    return r


def _run_fault(r: TrialRecord) -> tuple[int, str] | None:
    """(index of its count, reason) for the first thing in ``r`` that no run produces, else None.

    q is not range-checked: a run exports q(budget), a round no trial steps.
    """
    counts = r.informed_counts or [r.final_informed]
    done = r.completion_round
    if type(r.trial) is not int or r.trial < 0:
        return 0, f"trial {r.trial!r} is not a non-negative integer"
    for k, count in enumerate(counts):
        if count < 1:
            return k, f"informed count {count} is below 1"
        if k and count < counts[k - 1]:
            return k, f"informed count {count} is below the count {counts[k - 1]} before it"
    if done is not None and (type(done) is not int or done < 0):
        return 0, f"completion round {done!r} is neither empty nor a non-negative integer"
    if r.n is not None:
        reached = next((k for k, count in enumerate(counts) if count == r.n), None)
        if r.informed_counts is not None and done != reached:
            return 0, f"completion round {done}, but the first round whose count is n = {r.n} is {reached}"
        if (done is None) != (reached is None):
            return 0, f"completion round {done} disagrees with final {r.final_informed} and n = {r.n}"
    if any(type(x) not in (int, float) for x in r.q_values or ()):
        return 0, "q values must be numbers"
    return None


def load_records_jsonl(path) -> list[TrialRecord]:
    """Re-import an exported JSONL file; a malformed line raises RangeError naming it.

    As in :func:`load_records_csv`, counts and the final must be integers no
    larger than n, the final must be the last count, a record with q_values
    needs one per count, and then the record must be one a run produces. A q
    written as the text ``_jsonable`` gives a non-finite float loads as that float.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = list(fh)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    records = []
    for line, text in enumerate(lines, start=1):
        if not text.strip():
            continue
        try:
            record = TrialRecord(**json.loads(text))
            if isinstance(record.q_values, list):
                record.q_values = [float(x) if x in ("nan", "inf", "-inf") else x for x in record.q_values]
            records.append(_consistent(record))
        except (TypeError, ValueError) as exc:
            raise RangeError(f"{path}, line {line}: {exc}") from exc
    return records


# -- built-in verification suites ----------------------------------------------


def tiny_corpus() -> list[tuple[str, object]]:
    """The exhaustively checkable instances: K2-K5, C3-C6 and two matchings."""
    graphs: list[tuple[str, object]] = []
    for n in range(2, 6):
        graphs.append((f"K{n}", complete_graph(n)))
    for n in range(3, 7):
        graphs.append((f"C{n}", cycle_graph(n)))
    graphs.append(("M4", matching_graph([(0, 1), (2, 3)])))
    graphs.append(("M6", matching_graph([(0, 1), (2, 3), (4, 5)])))
    return graphs


TINY_Q_GRID = (0.25, 0.5, 1.0)


def iter_tiny_instances():
    """Yield (name, graph, informed mask, q, kind) over the whole tiny corpus."""
    for name, g in tiny_corpus():
        for bits in range(1, 2**g.n - 1):
            informed = np.array([(bits >> v) & 1 == 1 for v in range(g.n)])
            for q in TINY_Q_GRID:
                for kind in ProtocolKind:
                    yield name, g, informed, q, kind


@dataclass
class VerifyReport:
    """A suite's checks by name; the suite passes when every check's ``ok`` does."""

    scope: str
    checks: dict[str, dict]

    @property
    def ok(self) -> bool:
        return all(info["ok"] for info in self.checks.values())

    def lines(self) -> list[str]:
        out = []
        for name, info in self.checks.items():
            status = "PASS" if info.get("ok") else "FAIL"
            detail = ", ".join(f"{k}={v}" for k, v in info.items() if k != "ok")
            out.append(f"[{status}] {self.scope}/{name}: {detail}")
        return out


def _verify_tiny_exhaustive() -> dict[str, dict]:
    """Negative correlation, the variance bound and oracle mean agreement on every tiny instance."""
    reports = [verify_process_properties(kind, g, informed, q) for _, g, informed, q, kind in iter_tiny_instances()]
    worst_corr = max(r.worst_slack for r in reports)
    worst_var = min(r.var_margin for r in reports)
    worst_mean_err = max(abs(r.mean_size - r.exact_mean) for r in reports)
    return {
        "negative_correlation": {"ok": all(r.neg_corr_ok for r in reports), "worst_slack": worst_corr},
        "bounded_variance": {"ok": all(r.var_ok for r in reports), "worst_margin": worst_var},
        "oracle_mean_equality": {"ok": worst_mean_err <= 1e-12, "worst_abs_err": worst_mean_err},
        "instances": {"ok": True, "count": len(reports)},
    }


def _verify_bound_sandwich() -> dict[str, dict]:
    """The growth/shrink brackets on 1000 sampled (graph, set, q) triples."""
    seed = 20_240_601
    rng = rng_for(seed)
    slacks = []
    q_grid = np.linspace(0.1, 1.0, 10)
    for i in range(1000):
        d = int(rng.integers(2, 17))
        n = int(rng.integers(max(d + 1, 8), 129))
        if (n * d) % 2:
            n += 1
        g = generate_random_regular(n, d, seed=mix_seed(seed, i))
        connected = is_connected(g)
        size = int(rng.integers(1, n))
        informed = np.zeros(n, dtype=bool)
        informed[rng.choice(n, size=size, replace=False)] = True
        q = float(rng.choice(q_grid))
        phi = conductance(g, informed)
        for kind in ProtocolKind:
            gf = growth_factor(kind, g, informed, q)
            basic = basic_growth_bounds(kind, q, phi)
            slacks += [gf - basic.lower, basic.upper - gf]
            if size >= n / 2:
                sb = shrink_bounds(kind, q, phi, d)
                slacks.append(gf - sb.lower)
                if not sb.upper_requires_connected or connected:
                    slacks.append(sb.upper - gf)
    violations = sum(slack < -1e-9 for slack in slacks)
    return {
        "table_sandwich": {
            "ok": violations == 0,
            "violations": violations,
            "worst_slack": min(slacks),
            "inequalities": len(slacks),
        }
    }


def _claim_check(failing: list[str], cases: int) -> dict:
    """A claim check over ``cases`` cases, naming each failing one."""
    return {"ok": not failing, "cases": cases, "failing": failing}


def _verify_predictor_claims() -> dict[str, dict]:
    """The numeric claim oracles and the stopping-time closed forms, every case evaluated."""
    stirling = [
        f"stirling alpha=1/{2**k}"
        for k in range(7)
        if not ((r := stirling_product_check(1.0 / 2**k)).lower_ok and r.upper_ok)
    ]
    mult = []
    for log_n in (10.0, 20.0):
        r = multiplicative_product_check(math.exp(log_n))
        if not r.few_ok:
            mult.append(
                f"multiplicative few-product at log n={log_n:.0f} "
                f"(log-product {r.log_product_few:.2f} > target {r.few_bound:.2f})"
            )
        if not r.most_ok:
            mult.append(f"multiplicative most-product at log n={log_n:.0f}")
    harm = [
        f"harmonic T={t} alpha={alpha}"
        for t in (10, 100, 1000)
        for alpha in (0.25, 0.5, 0.75)
        if not ((r := harmonic_sum_check(alpha, t)).lower_ok and r.upper_ok)
    ]

    # At the theory's xi = 1e-30 every tau2 threshold sits at the 1/xi^2
    # scale, far beyond any scan; a larger configured xi keeps the
    # closed-form comparison meaningful.
    cfg = PredictorConfig(xi=0.5)
    closed = [
        f"tau2 closed form a={a}"
        for a, b, c_grow, nu in ((2.0, 500.0, 1.0, 0.3), (10.0, 1e5, 2.0, 0.7))
        if tau2_rounds(lambda t: nu, 5, a, b, c_grow, cfg)
        != 5 + math.ceil(tau2_threshold(a, b, c_grow, cfg.xi) / math.log1p(nu))
    ] + [
        f"tau3 closed form c={c}"
        for c, d_, c_shrink, nu in ((250.0, 0.75, 0.5, 0.2), (4096.0, 12.0, 0.9, 0.05))
        if tau3_rounds(lambda t: nu, 3, c, d_, c_shrink)
        != 3 + math.ceil(tau3_threshold(c, d_, c_shrink) / -math.log1p(-nu))
    ]
    return {
        "stirling_product": _claim_check(stirling, 7),
        "multiplicative_product": _claim_check(mult, 2),
        "generalized_harmonic": _claim_check(harm, 9),
        "stopping_time_closed_forms": _claim_check(closed, 4),
    }


CRITERION_6 = (ProtocolKind.PUSH, 1024, PowerLaw(2.0), 500)
"""Acceptance criterion 6's protocol, n of K_n, credibility and rounds, as the ``complete_law`` suite runs them."""


def _verify_complete_law() -> dict[str, dict]:
    """The exact K_n size law against enumeration on K2-K5, and criterion 6's exact E[final]."""
    errs, mass_errs = [], []
    for _, g, informed, q, kind in iter_tiny_instances():
        if not g.is_complete:
            continue
        law = complete_size_law(kind, g.n, int(informed.sum()), q)
        enumerated = np.zeros(g.n + 1)
        for members, p in enumerate_joint_distribution(kind, g, informed, q).support.items():
            enumerated[len(members)] += p
        err = max(np.abs(enumerated[: len(law)] - law).max(), enumerated[len(law) :].sum())
        # the law spans k = 0..n - |I|, so one of any other length is wrong
        errs.append(err if len(law) == g.n - int(informed.sum()) + 1 else math.inf)
        mass_errs.append(abs(law.sum() - 1.0))
    worst, worst_mass = max(errs), max(mass_errs)
    kind, n, cred, rounds = CRITERION_6
    law, dropped = complete_final_law(kind, n, cred.first(rounds))
    lost = abs(law.sum() + dropped - 1.0)
    return {
        "size_law_vs_enumeration": {"ok": worst <= 1e-12, "worst_abs_err": worst, "instances": len(errs)},
        "size_law_mass": {"ok": worst_mass <= 1e-12, "worst_abs_err": worst_mass},
        "criterion_6_forward_pass": {
            "ok": lost <= 1e-12,
            "exact_mean_final": f"{law @ np.arange(len(law)):.6f}",
            "dropped_mass": dropped,
        },
    }


VERIFY_SUITES = {
    "tiny_exhaustive": ("tiny", _verify_tiny_exhaustive),
    "bound_sandwich": ("sandwich", _verify_bound_sandwich),
    "predictor_claims": ("claims", _verify_predictor_claims),
    "complete_law": ("complete", _verify_complete_law),
}
"""Suite name -> (its ``gossipsim verify --scope`` name, the function returning its checks)."""


def verify_suite(scope: str) -> VerifyReport:
    """Run the built-in verification suite named ``scope``, a key of :data:`VERIFY_SUITES`."""
    if scope not in VERIFY_SUITES:
        raise RangeError(f"unknown verify scope {scope!r}")
    return VerifyReport(scope, VERIFY_SUITES[scope][1]())
