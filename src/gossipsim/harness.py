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
from itertools import zip_longest

import numpy as np

from .bounds import basic_growth_bounds, shrink_bounds
from .credibility import Constant, Credibility, PowerLaw, format_credibility
from .errors import DomainError, RangeError, _io_errors
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
        for name in ("initial_informed", "trials", "max_rounds"):
            value = getattr(self, name)
            if type(value) is not int and not (value is None and name == "max_rounds"):
                if not isinstance(value, np.integer):
                    raise RangeError(f"{name} must be an integer, got {value!r}")
                object.__setattr__(self, name, int(value))  # a numpy integer would reach the records
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
    trial's record is the same alone or beside others. A trial index that is
    not a non-negative ``int`` raises :class:`RangeError`, as the loaders
    would refuse its record.
    """
    for i in trials:
        if type(i) is not int or i < 0:
            raise RangeError(f"trial {i!r} is not a non-negative integer")
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

PER_ROUND_HEADER = ("trial", "round", "informed", "q_t", "n", "seed", "exact_delta")
SUMMARY_HEADER = ("trial", "completion", "final", "n", "seed")
_HEADERS = {h[:k]: h for h, widths in ((PER_ROUND_HEADER, (4, 5, 7)), (SUMMARY_HEADER, (3, 4, 5))) for k in widths}
"""A header a CSV may have -> the header it begins; the shorter ones are those earlier versions wrote."""


def _blank_or(parse):
    """``parse`` for a cell that may be blank, which reads as None."""
    return lambda text: None if text == "" else parse(text)


_PARSERS = {
    PER_ROUND_HEADER: (int, int, int, _blank_or(float), _blank_or(int), _blank_or(int), _blank_or(float)),
    SUMMARY_HEADER: (int, _blank_or(int), int, _blank_or(int), _blank_or(int)),
}
"""Each header -> how the cells of its columns parse."""


def _cell(value: int | None) -> str:
    """A CSV cell for an optional integer: empty when unknown."""
    return "" if value is None else str(value)


def _checked(r: TrialRecord, where) -> TrialRecord:
    """``r``, or RangeError ``"{where(index)}: {reason}"`` for its :func:`_record_fault`."""
    fault = _record_fault(r)
    if fault is not None:
        raise RangeError(f"{where(fault[0])}: {fault[1]}")
    return r


def export_records(records: list[TrialRecord], path, fmt: str = "csv") -> None:
    """Write records as CSV or JSONL (UTF-8, LF newlines, headers present).

    CSV uses per-round rows (trial, round, informed, q_t, n, seed,
    exact_delta) when the records carry trajectories, else summary rows
    (trial, completion, final, n, seed); an unknown value is left empty, as
    is exact_delta on a trial's last row. JSONL writes one full record object
    per line. A record that the loaders would refuse (:func:`_record_fault`),
    or a CSV export of both kinds of record, which one header cannot hold,
    raises RangeError before the file is opened.
    """
    if fmt not in ("csv", "jsonl"):
        raise RangeError(f"unknown export format {fmt!r}")
    for r in records:
        _checked(r, lambda _: f"record of trial {r.trial!r}")
    if fmt == "csv" and len({bool(r.informed_counts) for r in records}) > 1:
        raise RangeError("a CSV export cannot mix per-round and summary records")
    with _io_errors(), open(path, "w", encoding="utf-8", newline="\n") as fh:
        if fmt == "jsonl":
            for r in records:
                fh.write(json.dumps(_jsonable(asdict(r)), sort_keys=True) + "\n")
            return
        writer = csv.writer(fh, lineterminator="\n")
        if not records or records[0].informed_counts:
            writer.writerow(PER_ROUND_HEADER)
            for r in records:
                n, seed = _cell(r.n), _cell(r.seed)
                cells = zip_longest(r.informed_counts, r.q_values or (), r.exact_deltas or (), fillvalue="")
                for t, (informed, q_t, delta) in enumerate(cells):
                    writer.writerow([r.trial, t, informed, q_t, n, seed, delta])
        else:
            writer.writerow(SUMMARY_HEADER)
            for r in records:
                writer.writerow([r.trial, _cell(r.completion_round), r.final_informed, _cell(r.n), _cell(r.seed)])


def export_summary(summary: ExperimentSummary, path) -> None:
    with _io_errors(), open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(summary.to_json() + "\n")


def load_records_csv(path) -> list[TrialRecord]:
    """Re-import an exported CSV of either row schema; a column older files lack loads as None.

    A per-round trial's rows, in any order, must hold rounds 0..k exactly
    once each, else RangeError names the first offending line. Its completion
    round is the first whose count reaches n; all-blank q_t or exact_delta
    cells load as None, and exact_delta is blank on the last row. Then
    RangeError names the line of a record's :func:`_record_fault`, and after
    that a row whose n or seed differs from an earlier row of its trial.
    """
    with _io_errors(), open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise RangeError(f"{path}: missing header")
    header = _HEADERS.get(tuple(rows[0]))
    if header is None:
        raise RangeError(f"{path}: unrecognized header {tuple(rows[0])}")
    width, parsers = len(rows[0]), _PARSERS[header]
    missing = [""] * (len(header) - width)
    parsed = []  # per row: its line, then its cells' values in the columns of ``header``
    for line, row in enumerate(rows[1:], start=2):
        try:
            if len(row) != width:
                raise ValueError(f"expected {width} fields, got {len(row)}")
            parsed.append([line] + [parse(text) for parse, text in zip(parsers, row + missing)])
        except ValueError as exc:
            raise RangeError(f"{path}, line {line}: {exc}") from exc
    if header == SUMMARY_HEADER:
        return [
            _checked(TrialRecord(trial=trial, final_informed=final, completion_round=done, seed=seed, n=n),
                     lambda _: f"{path}, line {line}")
            for line, trial, done, final, n, seed in parsed
        ]
    by_trial: dict[int, list[list]] = {}
    for entry in parsed:
        by_trial.setdefault(entry[1], []).append(entry)
    records = []
    for trial in sorted(by_trial):
        trial_rows = by_trial[trial]
        lines, _, rounds, counts, q, _, _, deltas = map(list, zip(*sorted(trial_rows, key=lambda e: e[2])))
        for k, rnd in enumerate(rounds):
            if rnd != k:
                raise RangeError(f"{path}, line {lines[k]}: trial {trial} needs round {k} here, got round {rnd}")
        n, seed = trial_rows[0][5:7]
        if deltas[-1] is None:
            deltas.pop()
        record = TrialRecord(
            trial=trial,
            final_informed=counts[-1],
            completion_round=counts.index(n) if n in counts else None,
            seed=seed,
            n=n,
            informed_counts=counts,
            q_values=None if q.count(None) == len(q) else q,
            exact_deltas=None if deltas.count(None) == len(deltas) else deltas,
        )
        records.append(_checked(record, lambda k: f"{path}, line {lines[k]}"))
        for line, *_, row_n, row_seed, _ in trial_rows:
            for name, value, first in (("n", row_n, n), ("seed", row_seed, seed)):
                if value != first:
                    raise RangeError(f"{path}, line {line}: trial {trial} has {name} = {value} here, "
                                     f"but {name} = {first} before")
    return records


def _record_fault(r: TrialRecord) -> tuple[int, str] | None:
    """(index of its count, reason) for the first thing in ``r`` that no run writes, else None.

    Every loader and :func:`export_records` run it on every record. q is not
    range-checked: a run exports q(budget), a round no trial steps.
    """
    counts = r.informed_counts
    if set(map(type, [r.final_informed, *(counts or ())])) != {int} or type(r.n) not in (int, type(None)):
        return 0, "n, informed counts and final_informed must be integers"
    if counts is not None and counts[-1:] != [r.final_informed]:
        return 0, f"final_informed {r.final_informed} is not the last informed count"
    rounds = len(counts or ())
    stepped = max(rounds - 1, 0)
    counts = counts or [r.final_informed]
    if r.n is not None and max(counts) > r.n:
        over = next(k for k, count in enumerate(counts) if count > r.n)
        return over, f"informed count {counts[over]} exceeds n = {r.n}"
    if r.q_values is not None and len(r.q_values) != rounds:
        return len(counts) - 1, f"{len(r.q_values)} q_values for {rounds} informed counts"
    if r.exact_deltas is not None and len(r.exact_deltas) != stepped:
        return len(counts) - 1, f"{len(r.exact_deltas)} exact_deltas for {stepped} stepped rounds"
    if type(r.trial) is not int or r.trial < 0:
        return 0, f"trial {r.trial!r} is not a non-negative integer"
    if counts[0] < 1 or counts != sorted(counts):
        k = next(k for k, count in enumerate(counts) if count < 1 or k and count < counts[k - 1])
        if counts[k] < 1:
            return k, f"informed count {counts[k]} is below 1"
        return k, f"informed count {counts[k]} is below the count {counts[k - 1]} before it"
    done = r.completion_round
    if done is not None and (type(done) is not int or done < 0):
        return 0, f"completion round {done!r} is neither empty nor a non-negative integer"
    if r.n is not None:
        reached = counts.index(r.n) if r.n in counts else None
        if r.informed_counts is not None and done != reached:
            return 0, f"completion round {done}, but the first round whose count is n = {r.n} is {reached}"
        if (done is None) != (reached is None):
            return 0, f"completion round {done} disagrees with final {r.final_informed} and n = {r.n}"
    for name, values in (("q values", r.q_values), ("exact deltas", r.exact_deltas)):
        if not set(map(type, values or ())) <= {int, float}:
            bad = next(k for k, x in enumerate(values) if type(x) not in (int, float))
            return bad, f"{name} must be numbers, got {values[bad]!r} at round {bad}"
    if r.seed is not None and (type(r.seed) is not int or not 0 <= r.seed < 2**64):
        return 0, f"seed {r.seed!r} is neither empty nor an integer in [0, 2^64)"
    return None


def load_records_jsonl(path) -> list[TrialRecord]:
    """Re-import an exported JSONL file; a malformed line, or a record that
    fails :func:`_record_fault`, raises RangeError naming the line. A q or
    delta written as the text ``_jsonable`` gives a non-finite float loads as
    that float."""
    with _io_errors(), open(path, "r", encoding="utf-8") as fh:
        lines = list(fh)
    records = []
    for line, text in enumerate(lines, start=1):
        if not text.strip():
            continue
        try:
            record = TrialRecord(**json.loads(text))
            for name in ("q_values", "exact_deltas"):
                values = getattr(record, name)
                if isinstance(values, list):
                    setattr(record, name, [float(x) if x in ("nan", "inf", "-inf") else x for x in values])
            records.append(_checked(record, lambda _: f"{path}, line {line}"))
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
