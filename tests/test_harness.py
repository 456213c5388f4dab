from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import pytest

from gossipsim.credibility import Constant, PowerLaw, parse_credibility
from gossipsim.errors import RangeError
from gossipsim import credibility, graphs, harness
from gossipsim.graphs import (
    MatchingSequence,
    ResampledRegular,
    StaticGraph,
    complete_graph,
    cycle_graph,
    matching_graph,
)
from gossipsim.harness import (
    ExperimentSpec,
    RecordLevel,
    TrialRecord,
    VerifyReport,
    export_records,
    export_summary,
    load_records_csv,
    load_records_jsonl,
    resolved_max_rounds,
    run_experiment,
    run_trial,
    summarize,
    verify_suite,
)
from gossipsim.predictor import fixed_q_runtime
from gossipsim.protocol import (
    ProtocolKind,
    complete_chain,
    complete_final_law,
    complete_size_law,
    exact_delta_expectation,
    initial_state,
    step,
)
from gossipsim.seeds import mix_seed, rng_for


def explicit_complete(n: int) -> graphs.GraphSnapshot:
    """K_n with explicit adjacency, so it runs on the mask engine. Its draws are
    the implicit K_n's: row v is ``np.delete(arange(n), v)``, so adj[v, j] = j + (j >= v)."""
    ids = np.arange(n)
    return graphs.GraphSnapshot(n=n, d=n - 1, adj=np.array([np.delete(ids, v) for v in range(n)]))


EXPLICIT_K1024 = explicit_complete(1024)


def small_spec(**overrides) -> ExperimentSpec:
    base = dict(
        graph=StaticGraph(complete_graph(8)),
        protocol=ProtocolKind.PUSH,
        credibility=Constant(1.0),
        trials=3,
        max_rounds=30,
        master_seed=11,
        record_level=RecordLevel.PER_ROUND,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestRunTrial:
    def test_zero_credibility_never_spreads(self):
        record = run_trial(small_spec(credibility=Constant(0.0), max_rounds=10), 0)
        assert record.final_informed == 1
        assert record.completion_round is None
        assert record.informed_counts == [1] * 11

    def test_pull_k2_completes_in_one_round(self):
        spec = small_spec(
            graph=StaticGraph(complete_graph(2)), protocol=ProtocolKind.PULL, trials=1
        )
        for i in range(10):
            assert run_trial(spec, i).completion_round == 1

    def test_trajectories_are_monotone(self):
        record = run_trial(small_spec(credibility=Constant(0.4)), 0)
        counts = record.informed_counts
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert record.final_informed == counts[-1]

    def test_exact_delta_level_records_per_round(self):
        record = run_trial(small_spec(record_level=RecordLevel.PER_ROUND_EXACT), 0)
        assert record.exact_deltas is not None
        assert len(record.exact_deltas) == len(record.informed_counts) - 1

    def test_summary_level_drops_trajectories(self):
        record = run_trial(small_spec(record_level=RecordLevel.SUMMARY), 0)
        assert record.informed_counts is None
        assert record.q_values is None

    @pytest.mark.parametrize("trial", [-1, 2.0, True], ids=["negative", "float", "bool"])
    def test_rejects_a_trial_index_the_loaders_refuse(self, trial):
        with pytest.raises(RangeError, match="is not a non-negative integer"):
            run_trial(small_spec(), trial)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_valid_trial_index_round_trips(self, tmp_path, fmt):
        record = run_trial(small_spec(), 5)
        path = tmp_path / f"records.{fmt}"
        export_records([record], path, fmt=fmt)
        loaded = load_records_csv(path) if fmt == "csv" else load_records_jsonl(path)
        assert [(r.trial, r.informed_counts) for r in loaded] == [(5, record.informed_counts)]

    @pytest.mark.parametrize(
        "graph, budget",
        [(StaticGraph(complete_graph(1024)), 500), (StaticGraph(explicit_complete(16)), 60)],
        ids=["chain", "masks"],
    )
    def test_a_run_trial_loop_computes_each_q_once(self, graph, budget):
        cred = CountingPowerLaw()
        spec = small_spec(graph=graph, credibility=cred, trials=40, max_rounds=budget)
        records = [run_trial(spec, i) for i in range(spec.trials)]
        assert cred.calls == list(range(budget + 1))
        assert records == run_experiment(replace(spec, credibility=PowerLaw(2.0)))[0]


class TestDeterminism:
    def test_identical_summaries_for_same_seed(self):
        _, a = run_experiment(small_spec(credibility=Constant(0.6), trials=5))
        _, b = run_experiment(small_spec(credibility=Constant(0.6), trials=5))
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        _, a = run_experiment(small_spec(credibility=Constant(0.6), trials=5))
        _, b = run_experiment(small_spec(credibility=Constant(0.6), trials=5, master_seed=12))
        assert a.to_json() != b.to_json()

    def test_trials_are_independent_of_execution_order(self):
        spec = small_spec(credibility=Constant(0.6), trials=4)
        forward = [run_trial(spec, i).informed_counts for i in range(4)]
        backward = [run_trial(spec, i).informed_counts for i in reversed(range(4))]
        assert forward == backward[::-1]


class TestSummaries:
    def test_single_trial_summary_echoes_record(self):
        spec = small_spec(trials=1, credibility=Constant(0.8))
        record = run_trial(spec, 0)
        summary = summarize(spec, [record])
        assert summary.trials == 1
        assert summary.completion_mean == record.completion_round
        assert summary.final_informed_mean == record.final_informed
        assert summary.fraction_completed == 1.0

    def test_quantiles_are_monotone(self):
        _, summary = run_experiment(small_spec(trials=20, credibility=Constant(0.7)))
        q = summary.completion_quantiles
        assert q["q10"] <= q["q25"] <= q["q75"] <= q["q90"]
        assert 0.0 <= summary.fraction_completed <= 1.0

    def test_mean_fraction_by_round_recomputable_from_export(self, tmp_path):
        spec = small_spec(trials=4, credibility=Constant(0.5))
        records = [run_trial(spec, i) for i in range(4)]
        summary = summarize(spec, records)
        export_records(records, tmp_path / "r.csv")
        loaded = load_records_csv(tmp_path / "r.csv")
        horizon = max(len(r.informed_counts) for r in loaded)
        total = np.zeros(horizon)
        for r in loaded:
            padded = r.informed_counts + [r.informed_counts[-1]] * (horizon - len(r.informed_counts))
            total += np.array(padded, dtype=float)
        recomputed = list(total / (len(loaded) * 8))
        assert recomputed == pytest.approx(summary.mean_informed_fraction_by_round)

    def test_config_echo(self):
        _, summary = run_experiment(small_spec(trials=2))
        assert summary.config["protocol"] == "push"
        assert summary.config["credibility"] == "const:1"
        assert summary.config["n"] == 8


class TestLockstep:
    @pytest.mark.parametrize(
        "spec",
        [
            small_spec(
                graph=ResampledRegular(n=64, d=4, seed=2),
                credibility=PowerLaw(2.0),
                trials=2,
                max_rounds=200,
            ),
            small_spec(
                graph=MatchingSequence(n=32, seed=5),
                protocol=ProtocolKind.PUSH_PULL,
                credibility=Constant(0.5),
                max_rounds=150,
            ),
            small_spec(
                graph=StaticGraph(cycle_graph(12)),
                credibility=Constant(0.5),
                trials=4,
                record_level=RecordLevel.PER_ROUND_EXACT,
            ),
        ],
        ids=["resampled", "matching", "static-exact"],
    )
    def test_experiment_records_equal_solo_trials(self, spec):
        records, summary = run_experiment(spec)
        assert records == [run_trial(spec, i) for i in range(spec.trials)]
        assert summary.to_json() == summarize(spec, records).to_json()

    def test_dynamic_graph_is_built_once_per_round(self, monkeypatch):
        built = []
        original = graphs.generate_random_regular

        def counting(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(graphs, "generate_random_regular", counting)
        spec = small_spec(
            graph=ResampledRegular(n=64, d=4, seed=2),
            credibility=PowerLaw(2.0),
            trials=3,
            max_rounds=200,
        )
        records, _ = run_experiment(spec)
        assert [len(r.informed_counts) for r in records] == [201] * 3
        assert len(built) == 200


def reference_records(spec: ExperimentSpec, trials) -> list[TrialRecord]:
    """The lockstep loop with one fresh ``rng_for(master_seed, i)`` Generator per
    trial, created before round 0 and stepped every live round: the stream
    contract that the mask engine must reproduce."""
    n = spec.graph.n
    exact = spec.record_level is RecordLevel.PER_ROUND_EXACT
    rngs = [rng_for(spec.master_seed, i) for i in trials]
    states = [initial_state(n, spec.initial_informed)] * len(trials)
    counts = [[spec.initial_informed] for _ in trials]
    deltas: list[list[float]] = [[] for _ in trials]
    q_values = [spec.credibility.value_at(0)]
    for t in range(resolved_max_rounds(spec)):
        live = [j for j, c in enumerate(counts) if c[-1] < n]
        if not live:
            break
        g = spec.graph.snapshot(t)
        q_t = q_values[t]
        q_values.append(spec.credibility.value_at(t + 1))
        for j in live:
            if exact:
                deltas[j].append(exact_delta_expectation(spec.protocol, g, states[j].informed, q_t))
            states[j] = step(spec.protocol, g, states[j], q_t, rngs[j])
            counts[j].append(int(states[j].informed.sum()))
    per_round = spec.record_level is not RecordLevel.SUMMARY
    return [
        TrialRecord(
            trial=i,
            seed=mix_seed(spec.master_seed, i),
            n=n,
            final_informed=c[-1],
            completion_round=len(c) - 1 if c[-1] == n else None,
            informed_counts=c if per_round else None,
            q_values=q_values[: len(c)] if per_round else None,
            exact_deltas=d if exact else None,
        )
        for i, c, d in zip(trials, counts, deltas)
    ]


def assert_same_records(records, expected):
    """Equal field by field, with equal types down to the list elements."""
    assert len(records) == len(expected)
    for got, want in zip(records, expected):
        for field in fields(TrialRecord):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert a == b, field.name
            assert type(a) is type(b), field.name
            if isinstance(a, list):
                assert [type(x) for x in a] == [type(x) for x in b], field.name


class TestTrialStreams:
    @pytest.mark.parametrize(
        "spec",
        [
            small_spec(
                graph=StaticGraph(EXPLICIT_K1024),
                credibility=PowerLaw(2.0),
                max_rounds=200,
                master_seed=21,
            ),
            small_spec(
                graph=StaticGraph(graphs.generate_random_regular(256, 8, seed=3)),
                protocol=ProtocolKind.PULL,
                credibility=Constant(0.5),
                trials=4,
                max_rounds=None,
            ),
            small_spec(
                graph=StaticGraph(graphs.generate_random_regular(256, 8, seed=3)),
                protocol=ProtocolKind.PUSH_PULL,
                credibility=Constant(0.5),
                trials=4,
                max_rounds=None,
            ),
            small_spec(
                graph=ResampledRegular(n=64, d=4, seed=2),
                credibility=PowerLaw(1.0),
                trials=2,
                max_rounds=150,
            ),
            small_spec(
                graph=MatchingSequence(n=32, seed=5),
                protocol=ProtocolKind.PUSH_PULL,
                credibility=Constant(0.5),
                max_rounds=150,
            ),
            small_spec(
                graph=StaticGraph(cycle_graph(32)),
                credibility=Constant(0.5),
                trials=4,
                max_rounds=None,
                initial_informed=3,
                master_seed=-7,
                record_level=RecordLevel.PER_ROUND_EXACT,
            ),
            small_spec(
                graph=StaticGraph(cycle_graph(32)),
                protocol=ProtocolKind.PULL,
                credibility=Constant(0.05),
                trials=4,
                max_rounds=None,
                initial_informed=30,
            ),
            small_spec(
                graph=StaticGraph(explicit_complete(16)),
                protocol=ProtocolKind.PUSH_PULL,
                credibility=PowerLaw(2.0),
                trials=4,
                max_rounds=200,
            ),
            small_spec(
                graph=StaticGraph(matching_graph([(0, 1), (2, 3), (4, 5), (6, 7)])),
                protocol=ProtocolKind.PUSH_PULL,
                credibility=PowerLaw(1.0),
                trials=4,
                max_rounds=150,
                initial_informed=3,
            ),
            small_spec(
                graph=StaticGraph(explicit_complete(2)),
                protocol=ProtocolKind.PULL,
                credibility=Constant(0.1),
                trials=6,
                max_rounds=150,
            ),
            small_spec(
                graph=StaticGraph(graphs.generate_random_regular(64, 6, seed=4)),
                credibility=PowerLaw(1.5),
                trials=3,
                max_rounds=150,
                master_seed=-3,
                record_level=RecordLevel.PER_ROUND_EXACT,
            ),
            small_spec(
                graph=StaticGraph(explicit_complete(256)),
                credibility=PowerLaw(2.0),
                trials=4,
                max_rounds=129,
                master_seed=5,
                record_level=RecordLevel.SUMMARY,
            ),
            small_spec(
                graph=StaticGraph(graphs.generate_random_regular(256, 8, seed=3)),
                credibility=PowerLaw(2.0),
                trials=4,
                max_rounds=200,
                master_seed=21,
            ),
            small_spec(
                graph=StaticGraph(graphs.generate_random_regular(64, 7, seed=6)),
                protocol=ProtocolKind.PUSH_PULL,
                credibility=Constant(0.3),
                trials=5,
                max_rounds=None,
                initial_informed=3,
            ),
            small_spec(
                graph=StaticGraph(graphs.generate_random_regular(64, 6, seed=4)),
                protocol=ProtocolKind.PULL,
                credibility=parse_credibility("table:1,0.5,0.2;tail=0.1"),
                trials=3,
                max_rounds=150,
                record_level=RecordLevel.PER_ROUND_EXACT,
            ),
            small_spec(
                graph=StaticGraph(explicit_complete(256)),
                credibility=parse_credibility("add:0.05"),
                trials=4,
                max_rounds=60,
            ),
            small_spec(
                graph=MatchingSequence(n=32, seed=5),
                protocol=ProtocolKind.PUSH_PULL,
                credibility=parse_credibility("mult:0.01"),
                max_rounds=150,
            ),
        ],
        ids=["complete1024-power2", "regular256-pull", "regular256-push-pull", "resampled", "matching",
             "cycle32-exact-initial3-negative-seed", "cycle32-pull", "complete16-push-pull", "matching-d1",
             "complete2", "regular64-exact", "complete256-summary", "regular256-power2-stall",
             "regular64-d7-push-pull", "regular64-table-exact", "complete256-add", "matching-mult"],
    )
    def test_records_equal_the_reference_loop(self, spec):
        expected = reference_records(spec, range(spec.trials))
        records, _ = run_experiment(spec)
        assert_same_records(records, expected)
        assert_same_records([run_trial(spec, i) for i in range(spec.trials)], expected)


class TestReplayFromSeed:
    """Any trial replays from its record's ``seed`` alone: ``initial_state``
    stepped on ``Generator(PCG64(seed))``, or ``complete_chain`` on that
    Generator for the implicit K_n, gives the record's counts."""

    SPECS = [
        small_spec(graph=StaticGraph(graphs.generate_random_regular(256, 8, seed=3)), credibility=Constant(0.5)),
        small_spec(graph=ResampledRegular(n=64, d=4, seed=2), credibility=PowerLaw(1.0), max_rounds=150),
        small_spec(graph=MatchingSequence(n=32, seed=5), credibility=Constant(0.5), max_rounds=150),
        small_spec(
            graph=StaticGraph(cycle_graph(32)),
            credibility=Constant(0.5),
            trials=4,
            max_rounds=None,
            initial_informed=3,
            master_seed=-7,
            record_level=RecordLevel.PER_ROUND_EXACT,
        ),
        small_spec(graph=StaticGraph(complete_graph(1024)), credibility=PowerLaw(2.0), max_rounds=200),
        small_spec(
            graph=StaticGraph(cycle_graph(32)),
            credibility=Constant(0.05),
            trials=4,
            max_rounds=None,
            initial_informed=30,
        ),
        small_spec(
            graph=StaticGraph(matching_graph([(0, 1), (2, 3), (4, 5), (6, 7)])),
            credibility=PowerLaw(1.0),
            trials=4,
            max_rounds=150,
            initial_informed=3,
        ),
        small_spec(
            graph=StaticGraph(graphs.generate_random_regular(64, 7, seed=6)),
            credibility=PowerLaw(1.5),
            trials=3,
            max_rounds=150,
            master_seed=-3,
        ),
        *(
            small_spec(graph=StaticGraph(graph), credibility=parse_credibility(text), max_rounds=100)
            for text in ("table:1,0.5,0.2;tail=0.1", "add:0.05", "mult:0.05")
            for graph in (complete_graph(512), graphs.generate_random_regular(128, 8, seed=3))
        ),
    ]

    @pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda k: k.value)
    @pytest.mark.parametrize(
        "spec",
        SPECS,
        ids=["regular256", "resampled", "matching", "cycle32-exact", "complete1024", "cycle32-initial30",
             "matching-d1", "regular64-d7", "complete512-table", "regular128-table", "complete512-add",
             "regular128-add", "complete512-mult", "regular128-mult"],
    )
    def test_counts_replay_from_the_record_seed(self, spec, kind):
        spec = replace(spec, protocol=kind)
        n, budget = spec.graph.n, resolved_max_rounds(spec)
        q = [spec.credibility.value_at(t) for t in range(budget + 1)]
        for record in run_experiment(spec)[0]:
            rng = np.random.Generator(np.random.PCG64(record.seed))
            if isinstance(spec.graph, StaticGraph) and spec.graph.graph.is_complete:
                counts = complete_chain(kind, n, spec.initial_informed, np.array(q[:budget]), rng)
            else:
                state = initial_state(n, spec.initial_informed)
                counts = [state.informed_count]
                for t in range(budget):
                    if counts[-1] == n:
                        break
                    state = step(kind, spec.graph.snapshot(t), state, q[t], rng)
                    counts.append(state.informed_count)
            assert counts == record.informed_counts

    def test_records_take_each_q_from_value_at(self):
        for spec in self.SPECS:
            for record in run_experiment(spec)[0]:
                want = [spec.credibility.value_at(t) for t in range(len(record.informed_counts))]
                assert [q.hex() for q in record.q_values] == [q.hex() for q in want]


@dataclass(frozen=True)
class CountingPowerLaw(credibility._Schedule):
    """power:2 that lists the rounds it is asked for."""

    calls: list = field(default_factory=list, compare=False)

    def value_at(self, t: int) -> float:
        self.calls.append(t)
        return PowerLaw(2.0).value_at(t)


@dataclass(frozen=True)
class SpikeAt100(credibility._Schedule):
    """power:2, except an out-of-range q at round 100."""

    spike: float

    def value_at(self, t: int) -> float:
        return self.spike if t == 100 else PowerLaw(2.0).value_at(t)


@dataclass(frozen=True)
class OneUntilNan(credibility._Schedule):
    """q = 1 before round ``at``, NaN from then on."""

    at: int

    def value_at(self, t: int) -> float:
        return 1.0 if t < self.at else math.nan


class TestStalledTrials:
    """Trials that stall under a vanishing or out-of-range credibility."""

    def test_stalled_rounds_draw_from_the_trial_stream(self):
        # a trial steps on its stream every live round, quiet or not, so what
        # it informs after a quiet stretch depends on the stretch's draws
        spec = small_spec(graph=StaticGraph(explicit_complete(256)), credibility=PowerLaw(2.0), trials=4, max_rounds=129)
        records, _ = run_experiment(spec)
        assert_same_records(records, reference_records(spec, range(spec.trials)))
        # some trial grows right after 16 quiet rounds
        assert any(
            c[t] > c[t - 1] and len(set(c[t - 17 : t])) == 1
            for c in (r.informed_counts for r in records)
            for t in range(17, len(c))
        )

    # at q = -0.5 every coin would reject, so only the range check makes
    # round 100 raise
    @pytest.mark.parametrize("spike", [1.5, -0.5])
    def test_out_of_range_credibility_raises_as_the_reference_does(self, spike):
        spec = small_spec(
            graph=StaticGraph(complete_graph(1024)), credibility=SpikeAt100(spike), trials=3, max_rounds=200
        )
        with pytest.raises(RangeError) as want:
            reference_records(spec, range(spec.trials))
        for run in (lambda: run_experiment(spec), lambda: run_trial(spec, 1)):
            with pytest.raises(RangeError) as got:
                run()
            assert str(got.value) == str(want.value) == f"credibility must be in [0, 1], got {spike}"


class TestGoldenRecords:
    """Record digests pinned across commits: a change to the engines, the seed
    derivation or numpy's samplers that moves any record fails here, even where
    ``reference_records`` moves with it."""

    SPECS = {
        "regular512-push-power2": (
            ExperimentSpec(
                graph=graphs.parse_graph_spec("regular:512,16"),
                protocol=ProtocolKind.PUSH,
                credibility=PowerLaw(2.0),
                trials=8,
                max_rounds=300,
                master_seed=11,
            ),
            "e37075e1d43d1a22ac7093448f96600cf40b088e116bf9871786b6db26b593b3",
        ),
        "resampled64-exact": (
            ExperimentSpec(
                graph=ResampledRegular(64, 4, 2),
                protocol=ProtocolKind.PUSH,
                credibility=PowerLaw(1.0),
                trials=3,
                max_rounds=200,
                master_seed=11,
                record_level=RecordLevel.PER_ROUND_EXACT,
            ),
            "a0c060db9bcdb250df59b33b4bb3f5d4be8747459729d7c6f677d8baa059aefe",
        ),
        "matching32-push-pull": (
            ExperimentSpec(
                graph=MatchingSequence(32, 5),
                protocol=ProtocolKind.PUSH_PULL,
                credibility=Constant(0.5),
                trials=3,
                max_rounds=150,
                master_seed=11,
            ),
            "96b358416e0cc1a7331591365864ed7e945ac04df1a209f882a10068274463f9",
        ),
        "complete1024-chain": (
            ExperimentSpec(
                graph=graphs.parse_graph_spec("complete:1024"),
                protocol=ProtocolKind.PUSH,
                credibility=PowerLaw(2.0),
                trials=40,
                max_rounds=500,
                master_seed=11,
            ),
            "21dba48b6661cebd19c87bfcb3f252842e88d8d5f6f3d533204217103f5fdeae",
        ),
        "complete1024-pull-const": (
            ExperimentSpec(
                graph=graphs.parse_graph_spec("complete:1024"),
                protocol=ProtocolKind.PULL,
                credibility=Constant(0.5),
                trials=40,
                max_rounds=500,
                master_seed=11,
            ),
            "2efaf41d3ad6afb889df21eea162e93775f4d834717aa0b11474116148f68cc4",
        ),
        "complete1024-push-pull-power1": (
            ExperimentSpec(
                graph=graphs.parse_graph_spec("complete:1024"),
                protocol=ProtocolKind.PUSH_PULL,
                credibility=PowerLaw(1.0),
                trials=40,
                max_rounds=500,
                master_seed=11,
            ),
            "901886cb9ede6562573b184ef97f56b9d20bdaccf5acd008b609e8459ec84789",
        ),
        # middle rounds accept ~1,000-13,000 pushes each, so many balls reach _distinct
        "complete65536-push-const1": (
            ExperimentSpec(
                graph=graphs.parse_graph_spec("complete:65536"),
                protocol=ProtocolKind.PUSH,
                credibility=Constant(1.0),
                trials=4,
                max_rounds=100,
                master_seed=11,
            ),
            "d77324468b73156c4f0f08f3936cd354d99f26380fd4fe4de01e0547a215ccbd",
        ),
    }

    @pytest.mark.parametrize("name", list(SPECS))
    def test_records_match_their_digest(self, name):
        spec, digest = self.SPECS[name]
        records, _ = run_experiment(spec)
        text = json.dumps([asdict(r) for r in records], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestOutputGoldens:
    """The bytes of both record files and of ``summary.to_json()``, pinned
    across commits: a change to the export or summary code that moves any
    byte fails here. The runs cover the exact deltas and a non-finite q, the
    quartiles and even-count medians, and summary-level records."""

    RUNS = {
        "complete256-push-pull-power2-exact": (
            small_spec(graph=graphs.parse_graph_spec("complete:256"), protocol=ProtocolKind.PUSH_PULL,
                       credibility=PowerLaw(2.0), trials=4, max_rounds=60,
                       record_level=RecordLevel.PER_ROUND_EXACT),
            "6d48d022d2317082da9d40208e1307c7ca40d013a96049b57307ca4d422649c3",
            "7d095eced046b5183a3cedff9ae3dd537b7f8f72f43b95bde409e74091474d1a",
            "57e75499108992376a159848494c6fc700129628c7151303e7f9799fa0883415",
        ),
        "regular64-pull-const-completes": (
            small_spec(graph=graphs.parse_graph_spec("regular:64,4"), protocol=ProtocolKind.PULL,
                       credibility=Constant(0.5), trials=4, max_rounds=None),
            "4f086b7147a7276ae42874b17629cc1d9ab016084c7226529c09298cc3c05cf2",
            "57ad89527637d98c0390c2ca7896cca8db35c13124e0595644f33cde10c70d6d",
            "8d80f521666899ebd823f1bd80fc1dabaa882d6720280e596262b6cdabf10e2e",
        ),
        "dynamic64-push-summary": (
            small_spec(graph=graphs.parse_graph_spec("dynamic-regular:64,4"), trials=5, max_rounds=None,
                       record_level=RecordLevel.SUMMARY),
            "a89613845b701e5224314378024e5ffc2c7e0710bec3d18753d073ffbd478513",
            "0d86c120ae491bd2f0a90c0512b5225e957bc14a7ecaf22f9684046045a6eb21",
            "670c3914509f349197f9e4152a04ee02288c9b1e64fa92b476d17d9c81cbdd30",
        ),
        # q turns NaN at round 3; a custom schedule has no summary text
        "complete64-nan-at-3": (
            small_spec(graph=StaticGraph(complete_graph(64)), credibility=OneUntilNan(3), max_rounds=3),
            "1c17245e8261f8d949019724128429df1f434c8107fd8d41e6870280dbbb96d0",
            "3657c53c84389f50198b4132accc4945de3d5e6b50f0abcfa671cacc7c33ed0d",
            None,
        ),
    }

    @pytest.mark.parametrize("name", list(RUNS))
    def test_outputs_match_their_digests(self, tmp_path, name):
        spec, csv_digest, jsonl_digest, summary_digest = self.RUNS[name]
        records = [run_trial(spec, i) for i in range(spec.trials)]
        for fmt, digest in (("csv", csv_digest), ("jsonl", jsonl_digest)):
            path = tmp_path / f"records.{fmt}"
            export_records(records, path, fmt=fmt)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, fmt
        if summary_digest is not None:
            text = summarize(spec, records).to_json()
            assert hashlib.sha256(text.encode()).hexdigest() == summary_digest


def assert_law_fits(samples: np.ndarray, law: np.ndarray) -> None:
    """Every bin within 6 standard errors plus 1/N of the exact law (N fixed before the run)."""
    freq = np.bincount(samples, minlength=len(law)) / len(samples)
    assert len(freq) == len(law)
    se = np.sqrt(law * (1.0 - law) / len(samples))
    assert np.all(np.abs(freq - law) <= 6 * se + 1.0 / len(samples))


class TestCompleteChain:
    """Trials on the implicit K_n run on the count chain; its law is the exact K_n law."""

    @pytest.mark.parametrize(
        "n,informed,q",
        [(64, 1, 1.0), (64, 20, 0.5), (64, 63, 0.25), (1024, 3, 0.25), (1024, 512, 1.0), (1024, 1000, 0.05)],
    )
    @pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda k: k.value)
    def test_one_round_law_is_the_size_law(self, kind, n, informed, q):
        spec = small_spec(
            graph=StaticGraph(complete_graph(n)),
            protocol=kind,
            credibility=Constant(q),
            initial_informed=informed,
            trials=2000,
            max_rounds=1,
            record_level=RecordLevel.SUMMARY,
        )
        finals = np.array([r.final_informed for r in run_experiment(spec)[0]])
        assert_law_fits(finals - informed, complete_size_law(kind, n, informed, q))

    @pytest.mark.parametrize("engine", ["chain", "masks"])
    @pytest.mark.parametrize(
        "credibility,rounds", [(Constant(0.5), 4), (PowerLaw(2.0), 20)], ids=["const0.5", "power2"]
    )
    @pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda k: k.value)
    def test_final_count_law_is_the_forward_pass(self, kind, credibility, rounds, engine):
        graph = complete_graph(64) if engine == "chain" else explicit_complete(64)
        spec = small_spec(
            graph=StaticGraph(graph),
            protocol=kind,
            credibility=credibility,
            trials=600,
            max_rounds=rounds,
            record_level=RecordLevel.SUMMARY,
        )
        law, dropped = complete_final_law(kind, 64, [credibility.value_at(t) for t in range(rounds)])
        assert dropped <= 1e-12
        assert_law_fits(np.array([r.final_informed for r in run_experiment(spec)[0]]), law)

    SPECS = [
        small_spec(record_level=RecordLevel.PER_ROUND_EXACT, credibility=Constant(0.3), trials=4),
        small_spec(
            graph=StaticGraph(complete_graph(1024)),
            protocol=ProtocolKind.PUSH_PULL,
            credibility=PowerLaw(1.0),
            trials=4,
            max_rounds=300,
            master_seed=-4,
            record_level=RecordLevel.PER_ROUND_EXACT,
        ),
        small_spec(
            graph=StaticGraph(complete_graph(4096)),
            protocol=ProtocolKind.PULL,
            credibility=Constant(0.5),
            initial_informed=40,
            max_rounds=None,
            record_level=RecordLevel.SUMMARY,
        ),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=["K8-exact", "K1024-push-pull-exact", "K4096-pull-summary"])
    def test_records_are_per_trial_and_deterministic(self, spec):
        records, _ = run_experiment(spec)
        assert_same_records([run_trial(spec, i) for i in range(spec.trials)], records)
        assert_same_records(harness._run_lockstep(spec, [2, 0]), [records[2], records[0]])
        assert_same_records(run_experiment(spec)[0], records)
        assert [r.seed for r in records] == [mix_seed(spec.master_seed, i) for i in range(spec.trials)]

    @pytest.mark.parametrize("spec", SPECS[:2], ids=["K8-exact", "K1024-push-pull-exact"])
    def test_exact_deltas_are_the_oracle(self, spec):
        g = spec.graph.graph
        for r in run_experiment(spec)[0]:
            assert len(r.exact_deltas) == len(r.informed_counts) - 1
            for i, q, delta in zip(r.informed_counts, r.q_values, r.exact_deltas):
                informed = np.arange(g.n) < i
                assert delta == pytest.approx(exact_delta_expectation(spec.protocol, g, informed, q), rel=1e-12)

    def test_everyone_informed_completes_at_round_0(self):
        spec = small_spec(initial_informed=8, record_level=RecordLevel.PER_ROUND_EXACT)
        for r in run_experiment(spec)[0]:
            assert (r.completion_round, r.informed_counts, r.exact_deltas) == (0, [8], [])

    @pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda k: k.value)
    def test_nan_credibility_at_a_reached_round_raises(self, kind):
        spec = small_spec(
            graph=StaticGraph(complete_graph(1024)), protocol=kind, credibility=SpikeAt100(math.nan), max_rounds=200
        )
        with pytest.raises(RangeError, match=r"credibility must be in \[0, 1\], got nan"):
            run_experiment(spec)
        # a trial that completes before round 100 never reaches it
        done = small_spec(protocol=kind, credibility=OneUntilNan(100), max_rounds=200)
        assert all(run_trial(done, i).completion_round < 100 for i in range(done.trials))


class TestMaxRoundsDefault:
    def test_constant_uses_runtime_estimate(self):
        spec = small_spec(max_rounds=None)
        expected = math.ceil(10 * fixed_q_runtime(ProtocolKind.PUSH, 1.0, 8))
        assert resolved_max_rounds(spec) == expected

    def test_pull_q1_falls_back_to_log_budget(self):
        spec = small_spec(max_rounds=None, protocol=ProtocolKind.PULL)
        assert resolved_max_rounds(spec) == math.ceil(100 * math.log(8))

    def test_decaying_credibility_uses_log_budget(self):
        spec = small_spec(max_rounds=None, credibility=PowerLaw(2.0))
        assert resolved_max_rounds(spec) == math.ceil(100 * math.log(8))

    @pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("text", ["const:0", "table:0.5", "add:0.1", "mult:0.1"])
    def test_no_constant_runtime_falls_back_to_log_budget(self, kind, text):
        spec = small_spec(max_rounds=None, protocol=kind, credibility=parse_credibility(text))
        assert resolved_max_rounds(spec) == math.ceil(100 * math.log(8))


class TestExports:
    def test_per_round_csv_roundtrip(self, tmp_path):
        spec = small_spec(trials=3, credibility=Constant(0.5))
        records = [run_trial(spec, i) for i in range(3)]
        path = tmp_path / "records.csv"
        export_records(records, path)
        text = path.read_text()
        assert text.startswith("trial,round,informed,q_t,n,seed,exact_delta\n")
        assert "\r" not in text
        loaded = load_records_csv(path)
        for orig, back in zip(records, loaded):
            assert back.trial == orig.trial
            assert back.informed_counts == orig.informed_counts
            assert back.q_values == pytest.approx(orig.q_values)

    def test_row_count_matches_recorded_rounds(self, tmp_path):
        records = [
            TrialRecord(
                trial=i,
                final_informed=5,
                completion_round=None,
                informed_counts=[1, 2, 3, 4, 5],
                q_values=[1.0] * 5,
            )
            for i in range(3)
        ]
        path = tmp_path / "records.csv"
        export_records(records, path)
        rows = path.read_text().splitlines()
        assert len(rows) == 1 + 15

    def test_empty_records_give_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_records([], path)
        assert path.read_text() == "trial,round,informed,q_t,n,seed,exact_delta\n"

    def test_summary_level_csv(self, tmp_path):
        spec = small_spec(trials=3, record_level=RecordLevel.SUMMARY)
        records = [run_trial(spec, i) for i in range(3)]
        path = tmp_path / "records.csv"
        export_records(records, path)
        assert path.read_text().startswith("trial,completion,final,n,seed\n")
        loaded = load_records_csv(path)
        assert [r.completion_round for r in loaded] == [r.completion_round for r in records]
        assert [r.final_informed for r in loaded] == [r.final_informed for r in records]

    def test_jsonl_roundtrip_preserves_all_fields(self, tmp_path):
        spec = small_spec(trials=2, record_level=RecordLevel.PER_ROUND_EXACT)
        records = [run_trial(spec, i) for i in range(2)]
        path = tmp_path / "records.jsonl"
        export_records(records, path, fmt="jsonl")
        loaded = load_records_jsonl(path)
        assert loaded == records

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("level", list(RecordLevel))
    @pytest.mark.parametrize(
        "graph, credibility, completes",
        [("complete:64", Constant(1.0), True), ("complete:1024", PowerLaw(2.0), False),
         ("regular:64,4", Constant(1.0), True), ("dynamic-regular:64,4", PowerLaw(2.0), False)],
        ids=["chain-completes", "chain-stalls", "regular-completes", "dynamic-regular-stalls"],
    )
    def test_records_round_trip(self, tmp_path, fmt, level, graph, credibility, completes):
        spec = small_spec(graph=graphs.parse_graph_spec(graph), credibility=credibility, record_level=level)
        records = [run_trial(spec, i) for i in range(3)]
        assert all((r.completion_round is not None) == completes for r in records)
        path = tmp_path / f"records.{fmt}"
        export_records(records, path, fmt=fmt)
        loaded = load_records_csv(path) if fmt == "csv" else load_records_jsonl(path)
        assert loaded == records
        bits = [[float.hex(x) for x in (r.q_values or []) + (r.exact_deltas or [])] for r in records]
        assert [[float.hex(x) for x in (r.q_values or []) + (r.exact_deltas or [])] for r in loaded] == bits

    @pytest.mark.parametrize(
        "text, expected",
        [("trial,round,informed,q_t\n0,1,2,0.5\n0,0,1,0.25\n",
          [TrialRecord(0, 2, None, informed_counts=[1, 2], q_values=[0.25, 0.5])]),
         ("trial,round,informed,q_t,n\n0,0,1,0.25,2\n0,1,2,0.5,2\n1,0,2,,2\n",
          [TrialRecord(0, 2, 1, n=2, informed_counts=[1, 2], q_values=[0.25, 0.5]),
           TrialRecord(1, 2, 0, n=2, informed_counts=[2])]),
         ("trial,completion,final\n0,3,8\n1,,5\n", [TrialRecord(0, 8, 3), TrialRecord(1, 5, None)]),
         ("trial,completion,final,n\n0,3,8,8\n1,,5,8\n", [TrialRecord(0, 8, 3, n=8), TrialRecord(1, 5, None, n=8)])],
        ids=["per-round-without-n", "per-round-with-n", "summary-without-n", "summary-with-n"],
    )
    def test_headers_of_earlier_versions_still_load(self, tmp_path, text, expected):
        path = tmp_path / "records.csv"
        path.write_text(text)
        assert load_records_csv(path) == expected

    @pytest.mark.parametrize(
        "text, line, message",
        [("trial,round,informed,q_t,n,seed,exact_delta\n0,0,1,0.5,8,7,\n1,0,1,0.5,8,5,\n0,1,2,0.5,8,9,\n", 4,
          "trial 0 has seed = 9 here, but seed = 7 before"),
         ("trial,round,informed,q_t,n,seed,exact_delta\n0,0,1,0.5,8,7,0.5\n0,1,2,0.5,8,7,0.25\n", 3,
          "2 exact_deltas for 1 stepped rounds"),
         ("trial,round,informed,q_t,n,seed,exact_delta\n0,0,1,0.5,8,7,\n0,1,2,0.5,8,7,0.5\n0,2,3,0.5,8,7,\n", 2,
          "exact deltas must be numbers"),
         ("trial,round,informed,q_t,n,seed,exact_delta\n0,0,1,0.5,8,-7,\n", 2, "seed -7 is neither"),
         ("trial,completion,final,n,seed\n0,,5,8,18446744073709551616\n", 2, "seed 18446744073709551616 is neither")],
        ids=["seed-changes", "delta-on-last-row", "blank-delta-beside-filled", "negative-seed", "seed-past-2^64"],
    )
    def test_csv_seeds_and_deltas_must_be_ones_a_run_writes(self, tmp_path, text, line, message):
        path = tmp_path / "records.csv"
        path.write_text(text)
        with pytest.raises(RangeError, match=rf"line {line}: {message}"):
            load_records_csv(path)

    @pytest.mark.parametrize(
        "fields, message",
        [('"seed": "x"', "seed 'x' is neither"), ('"seed": -1', "seed -1 is neither"),
         ('"seed": 18446744073709551616', "seed 18446744073709551616 is neither"),
         ('"exact_deltas": ["abc", 1, 2, 3]', "4 exact_deltas for 1 stepped rounds"),
         ('"exact_deltas": []', "0 exact_deltas for 1 stepped rounds"),
         ('"exact_deltas": ["abc"]', "exact deltas must be numbers"),
         ('"exact_deltas": [null]', "exact deltas must be numbers")],
        ids=["seed-not-int", "seed-negative", "seed-past-2^64", "deltas-too-many", "deltas-too-few",
             "delta-not-number", "delta-null"],
    )
    def test_jsonl_seeds_and_deltas_must_be_ones_a_run_writes(self, tmp_path, fields, message):
        path = tmp_path / "records.jsonl"
        good = '{"trial": 0, "n": 8, "final_informed": 2, "completion_round": null, "informed_counts": [1, 2]'
        path.write_text(f'{good}, "seed": 3, "exact_deltas": [0.5]}}\n{good}, {fields}}}\n')
        with pytest.raises(RangeError, match=rf"line 2: {message}"):
            load_records_jsonl(path)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("delta", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_a_non_finite_delta_reloads_as_a_float(self, tmp_path, fmt, delta):
        record = TrialRecord(trial=0, final_informed=2, completion_round=None, seed=3, n=8,
                             informed_counts=[1, 2], q_values=[0.5, 0.5], exact_deltas=[delta])
        path = tmp_path / f"records.{fmt}"
        export_records([record], path, fmt=fmt)
        loaded = load_records_csv(path) if fmt == "csv" else load_records_jsonl(path)
        assert repr(loaded) == repr([record])

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize(
        "record, message",
        [(TrialRecord(trial=0, final_informed=3, completion_round=None, n=8, informed_counts=[1, 2, 3],
                      q_values=[1.0]), "record of trial 0: 1 q_values for 3 informed counts"),
         (TrialRecord(trial=-1, final_informed=9, completion_round=None, n=8),
          "record of trial -1: informed count 9 exceeds n = 8")],
        ids=["q-length", "summary-final-exceeds-n"],
    )
    def test_export_refuses_a_record_the_loaders_refuse(self, tmp_path, fmt, record, message):
        path = tmp_path / f"records.{fmt}"
        with pytest.raises(RangeError, match=message):
            export_records([record], path, fmt=fmt)
        assert not path.exists()

    def test_csv_without_n_column_still_loads(self, tmp_path):
        per_round = tmp_path / "per_round.csv"
        per_round.write_text("trial,round,informed,q_t\n0,0,1,1.0\n0,1,2,1.0\n")
        [record] = load_records_csv(per_round)
        assert (record.n, record.completion_round, record.informed_counts) == (None, None, [1, 2])
        summary = tmp_path / "summary.csv"
        summary.write_text("trial,completion,final\n0,3,8\n1,,5\n")
        loaded = [(r.n, r.completion_round, r.final_informed) for r in load_records_csv(summary)]
        assert loaded == [(None, 3, 8), (None, None, 5)]

    def test_blank_credibility_cells_load_as_no_q_values(self, tmp_path):
        records = [
            TrialRecord(trial=0, n=8, final_informed=3, completion_round=None, informed_counts=[1, 2, 3]),
            TrialRecord(trial=1, n=3, final_informed=3, completion_round=1, informed_counts=[2, 3], q_values=[0.5, 0.25]),
        ]
        path = tmp_path / "records.csv"
        export_records(records, path)
        assert load_records_csv(path) == records

    def test_blank_credibility_cell_beside_filled_ones_names_its_line(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("trial,round,informed,q_t,n\n0,0,1,0.5,8\n0,1,2,,8\n0,2,3,0.25,8\n1,0,1,,8\n")
        with pytest.raises(RangeError, match=r"line 3: "):
            load_records_csv(path)

    @pytest.mark.parametrize(
        "rows, line",
        [("0,0,1,1.0,4\n0,2,4,1.0,4\n", 3), ("0,0,1,1.0,4\n0,1,2,1.0,4\n0,1,3,1.0,4\n0,2,4,1.0,4\n", 4),
         ("0,1,2,1.0,4\n", 2), ("1,0,1,,4\n0,1,2,,4\n1,1,2,,4\n", 3)],
        ids=["skipped", "repeated", "no-round-0", "other-trial"],
    )
    def test_per_round_rows_must_run_0_to_k_without_gaps(self, tmp_path, rows, line):
        path = tmp_path / "records.csv"
        path.write_text("trial,round,informed,q_t,n\n" + rows)
        with pytest.raises(RangeError, match=rf"line {line}: "):
            load_records_csv(path)

    @pytest.mark.parametrize(
        "text, line",
        [("trial,round,informed,q_t,n\n0,0,1,1.0,8\n0,1,2,1.0,16\n0,2,4,1.0,16\n", 3),
         ("trial,round,informed,q_t,n\n0,0,1,1.0,\n0,1,2,1.0,8\n", 3),
         ("trial,round,informed,q_t,n\n0,0,1,1.0,8\n1,0,1,1.0,4\n0,1,9,1.0,8\n", 4),
         ("trial,round,informed,q_t,n\n0,0,1,1.0,8\n0,1,2,1.0,16\n0,2,20,1.0,16\n", 4),
         ("trial,completion,final,n\n0,3,8,8\n0,,20,8\n", 3)],
        ids=["n-changes", "n-blank-then-set", "count-exceeds-n", "n-changes-and-count-exceeds-n",
             "final-exceeds-n"],
    )
    def test_rows_must_agree_with_their_n(self, tmp_path, text, line):
        path = tmp_path / "records.csv"
        path.write_text(text)
        with pytest.raises(RangeError, match=rf"line {line}: "):
            load_records_csv(path)

    @pytest.mark.parametrize(
        "fields, message",
        [('"n": 8, "informed_counts": [1, 2, 20], "final_informed": 20, "q_values": [1.0, 0.5]', "exceeds n = 8"),
         ('"n": 8, "informed_counts": [1, 2, 3], "final_informed": 2, "q_values": [1.0, 0.5, 0.25]',
          "not the last informed count"),
         ('"n": 8, "informed_counts": [1, 2, 3], "final_informed": 3, "q_values": [1.0, 0.5]',
          "2 q_values for 3 informed counts"),
         ('"n": 8, "informed_counts": [1, 2, 3], "final_informed": "x"', "must be integers"),
         ('"n": 8, "informed_counts": [1, 2.0, 3], "final_informed": 3', "must be integers"),
         ('"n": "8", "final_informed": 3', "must be integers"),
         ('"n": 8, "final_informed": 9', "exceeds n = 8")],
        ids=["count-exceeds-n", "final-not-last", "q-length", "final-not-int", "count-not-int", "n-not-int",
             "summary-final-exceeds-n"],
    )
    def test_jsonl_records_must_agree_with_themselves(self, tmp_path, fields, message):
        path = tmp_path / "records.jsonl"
        good = '{"trial": 0, "n": 8, "final_informed": 2, "completion_round": null, "informed_counts": [1, 2]}'
        path.write_text(good + '\n{"trial": 1, "completion_round": null, ' + fields + "}\n")
        with pytest.raises(RangeError, match=rf"line 2: .*{message}"):
            load_records_jsonl(path)
        path.write_text(good + "\n")
        assert load_records_jsonl(path)[0].informed_counts == [1, 2]

    @pytest.mark.parametrize(
        "text, line, message",
        [("trial,completion,final,n\n0,3,8,8\n1,3,5,8\n", 3, "completion round 3 disagrees with final 5"),
         ("trial,completion,final,n\n0,,8,8\n", 2, "completion round None disagrees with final 8"),
         ("trial,completion,final,n\n1,,-2,8\n", 2, "informed count -2 is below 1"),
         ("trial,completion,final,n\n-1,,5,8\n", 2, "trial -1 is not a non-negative integer"),
         ("trial,completion,final\n0,-1,5\n", 2, "completion round -1 is neither"),
         ("trial,round,informed,q_t,n\n0,0,3,0.5,8\n0,2,8,0.5,8\n0,1,1,0.5,8\n", 4,
          "informed count 1 is below the count 3 before it"),
         ("trial,round,informed,q_t,n\n0,0,0,0.5,8\n0,1,4,0.5,8\n", 2, "informed count 0 is below 1"),
         ("trial,round,informed,q_t\n0,0,1,\n0,1,2,\n-3,0,1,\n", 4, "trial -3 is not")],
        ids=["summary-completes-short-of-n", "summary-reaches-n-without-completing", "summary-final-below-1",
             "summary-negative-trial", "summary-negative-completion", "per-round-counts-decrease",
             "per-round-count-below-1", "per-round-negative-trial"],
    )
    def test_csv_records_must_be_ones_a_run_produces(self, tmp_path, text, line, message):
        path = tmp_path / "records.csv"
        path.write_text(text)
        with pytest.raises(RangeError, match=rf"line {line}: {message}"):
            load_records_csv(path)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_non_finite_q_past_the_last_step_still_loads(self, tmp_path, fmt):
        spec = small_spec(graph=StaticGraph(complete_graph(64)), credibility=OneUntilNan(3), max_rounds=3)
        record = run_trial(spec, 0)
        path = tmp_path / f"records.{fmt}"
        export_records([record], path, fmt=fmt)
        [loaded] = load_records_csv(path) if fmt == "csv" else load_records_jsonl(path)
        assert loaded.informed_counts == record.informed_counts and len(loaded.q_values) == 4
        assert loaded.q_values[:3] == record.q_values[:3] and math.isnan(loaded.q_values[3])

    def test_a_csv_export_of_mixed_records_raises(self, tmp_path):
        per_round = run_trial(small_spec(), 0)
        summary = replace(run_trial(small_spec(), 1), informed_counts=None, q_values=None)
        path = tmp_path / "records.csv"
        with pytest.raises(RangeError, match="cannot mix per-round and summary records"):
            export_records([per_round, summary], path)
        assert not path.exists()
        export_records([per_round, summary], tmp_path / "records.jsonl", fmt="jsonl")
        assert load_records_jsonl(tmp_path / "records.jsonl") == [per_round, summary]

    def test_a_csv_export_of_an_empty_exact_deltas_raises(self, tmp_path):
        # complete:8 with all 8 informed steps no round, so its exact deltas are []
        record = run_trial(small_spec(initial_informed=8, record_level=RecordLevel.PER_ROUND_EXACT), 0)
        assert (record.informed_counts, record.exact_deltas) == ([8], [])
        path = tmp_path / "records.csv"
        with pytest.raises(RangeError, match="record of trial 0: a CSV export cannot hold an empty exact_deltas"):
            export_records([run_trial(small_spec(record_level=RecordLevel.PER_ROUND_EXACT), 1), record], path)
        assert not path.exists()

    def test_a_jsonl_export_keeps_an_empty_exact_deltas(self, tmp_path):
        record = run_trial(small_spec(initial_informed=8, record_level=RecordLevel.PER_ROUND_EXACT), 0)
        path = tmp_path / "records.jsonl"
        export_records([record], path, fmt="jsonl")
        assert load_records_jsonl(path) == [record]
        assert load_records_jsonl(path)[0].exact_deltas == []

    def test_a_records_older_errors_come_first(self, tmp_path):
        # trial -1 is new to the checks; a final above n is the older error
        path = tmp_path / "records.csv"
        path.write_text("trial,completion,final,n\n-1,,20,8\n")
        with pytest.raises(RangeError, match=r"line 2: informed count 20 exceeds n = 8"):
            load_records_csv(path)
        path = tmp_path / "records.jsonl"
        path.write_text('{"trial": -1, "n": 8, "final_informed": 20, "completion_round": null}\n')
        with pytest.raises(RangeError, match=r"line 1: informed count 20 exceeds n = 8"):
            load_records_jsonl(path)

    @pytest.mark.parametrize(
        "fields, message",
        [('"trial": "a", "n": 8, "final_informed": 2, "completion_round": null', "trial 'a' is not"),
         ('"trial": -1, "n": 8, "final_informed": 2, "completion_round": null', "trial -1 is not"),
         ('"trial": 1, "n": 8, "final_informed": 2, "completion_round": 2.5', "completion round 2.5 is neither"),
         ('"trial": 1, "n": 8, "final_informed": 2, "completion_round": 5, "informed_counts": [3, 1, 2]',
          "informed count 1 is below the count 3 before it"),
         ('"trial": 1, "n": 8, "final_informed": -4, "completion_round": null', "informed count -4 is below 1"),
         ('"trial": 1, "n": 8, "final_informed": 3, "completion_round": null, "informed_counts": [1, 2, 3], '
          '"q_values": ["x", null, 3]', "q values must be numbers"),
         ('"trial": 1, "n": 3, "final_informed": 3, "completion_round": 2, "informed_counts": [1, 3, 3]',
          "completion round 2, but the first round whose count is n = 3 is 1"),
         ('"trial": 1, "n": 3, "final_informed": 3, "completion_round": null, "informed_counts": [1, 3]',
          "completion round None, but the first round whose count is n = 3 is 1"),
         ('"trial": 1, "n": 3, "final_informed": 2, "completion_round": 4', "completion round 4 disagrees"),
         ('"trial": 1, "n": 3, "final_informed": 3, "completion_round": null', "completion round None disagrees")],
        ids=["trial-not-int", "trial-negative", "completion-not-int", "counts-decrease", "final-below-1",
             "q-not-number", "completion-not-first-full-round", "full-but-not-complete",
             "summary-completes-short-of-n", "summary-full-but-not-complete"],
    )
    def test_jsonl_records_must_be_ones_a_run_produces(self, tmp_path, fields, message):
        path = tmp_path / "records.jsonl"
        good = '{"trial": 0, "n": 8, "final_informed": 2, "completion_round": null, "informed_counts": [1, 2]}'
        path.write_text(good + "\n\n{" + fields + "}\n")
        with pytest.raises(RangeError, match=rf"line 3: {message}"):
            load_records_jsonl(path)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(RangeError):
            export_records([], tmp_path / "x.bin", fmt="parquet")

    def test_summary_export_is_valid_json(self, tmp_path):
        _, summary = run_experiment(small_spec(trials=2))
        path = tmp_path / "summary.json"
        export_summary(summary, path)
        parsed = json.loads(path.read_text())
        assert parsed["trials"] == 2

    def test_a_stalled_run_and_its_files_leave_numpy_ma_unimported(self, tmp_path):
        # trials that never complete reach no quantile; numpy's median and
        # quantile import numpy.ma on their first call, so nothing else may
        code = textwrap.dedent(f"""
            import sys
            from pathlib import Path
            from gossipsim.credibility import PowerLaw
            from gossipsim.graphs import parse_graph_spec
            from gossipsim.harness import (
                ExperimentSpec, export_records, load_records_csv, load_records_jsonl, run_experiment,
            )
            from gossipsim.protocol import ProtocolKind
            spec = ExperimentSpec(graph=parse_graph_spec("complete:1024"), protocol=ProtocolKind.PUSH,
                                  credibility=PowerLaw(2.0), trials=4, max_rounds=200)
            records, summary = run_experiment(spec)
            assert summary.completion_quantiles is None and summary.to_json()
            for fmt, load in (("csv", load_records_csv), ("jsonl", load_records_jsonl)):
                path = Path({str(tmp_path)!r}) / ("records." + fmt)
                export_records(records, path, fmt=fmt)
                assert [r.informed_counts for r in load(path)] == [r.informed_counts for r in records]
            assert "numpy.ma" not in sys.modules
        """)
        path = [str(Path(harness.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestVerifySuites:
    def test_tiny_exhaustive_passes(self):
        report = verify_suite("tiny_exhaustive")
        assert report.ok
        assert report.checks["negative_correlation"]["worst_slack"] <= 1e-12
        assert report.checks["instances"]["count"] == 2160

    def test_bound_sandwich_passes(self):
        # pinned, so an edit to the graphs, bounds or oracles it samples cannot
        # move the suite's output unseen
        report = verify_suite("bound_sandwich")
        assert report.ok
        table = report.checks["table_sandwich"]
        assert table["violations"] == 0
        assert table["inequalities"] == 8846
        assert table["worst_slack"] == -7.771561172376096e-16

    def test_predictor_claims_reports_known_false_inequality(self):
        # Every subcheck passes except the multiplicative "few" product
        # inequality, whose stated decay constant 1/2 does not satisfy it
        # (the product's log is ~1.64 log n, above the sqrt(n) target).
        report = verify_suite("predictor_claims")
        assert not report.ok
        assert {name: (info["ok"], info["cases"], info["failing"]) for name, info in report.checks.items()} == {
            "stirling_product": (True, 7, []),
            "multiplicative_product": (False, 2, [
                "multiplicative few-product at log n=10 (log-product 16.38 > target 5.00)",
                "multiplicative few-product at log n=20 (log-product 32.83 > target 10.00)",
            ]),
            "generalized_harmonic": (True, 9, []),
            "stopping_time_closed_forms": (True, 4, []),
        }

    def test_report_ok_is_every_checks_ok(self):
        assert VerifyReport("s", {"a": {"ok": True}, "b": {"ok": True}}).ok
        assert not VerifyReport("s", {"a": {"ok": True}, "b": {"ok": False}}).ok

    def test_unknown_scope_rejected(self):
        with pytest.raises(RangeError):
            verify_suite("everything")


def test_spec_validation():
    with pytest.raises(RangeError):
        small_spec(trials=0)
    with pytest.raises(RangeError):
        small_spec(initial_informed=9)
    with pytest.raises(RangeError):
        small_spec(max_rounds=0)


@pytest.mark.parametrize(
    "field, value",
    [("trials", 2.5), ("trials", math.nan), ("trials", True), ("max_rounds", 2.5), ("max_rounds", math.nan),
     ("initial_informed", 2.5)],
)
def test_spec_counts_must_be_integers(field, value):
    with pytest.raises(RangeError, match=f"{field} must be an integer"):
        small_spec(**{field: value})


def test_spec_takes_numpy_integers_as_ints():
    spec = small_spec(graph=StaticGraph(cycle_graph(8)), trials=np.int64(2), max_rounds=np.int32(5),
                      initial_informed=np.int64(2))
    assert [type(x) for x in (spec.trials, spec.max_rounds, spec.initial_informed)] == [int] * 3
    assert all(type(c) is int for r in run_experiment(spec)[0] for c in r.informed_counts)


def test_record_level_parsing():
    assert RecordLevel.parse("per-round") is RecordLevel.PER_ROUND
    assert RecordLevel.parse("summary") is RecordLevel.SUMMARY
    assert RecordLevel.parse("per-round-exact") is RecordLevel.PER_ROUND_EXACT
    with pytest.raises(RangeError):
        RecordLevel.parse("verbose")


def test_cyclic_dynamic_graph_participates_in_runs():
    from gossipsim.graphs import CyclicGraphs

    spec = ExperimentSpec(
        graph=CyclicGraphs((cycle_graph(6), complete_graph(6))),
        protocol=ProtocolKind.PUSH_PULL,
        credibility=Constant(1.0),
        trials=3,
        max_rounds=40,
        master_seed=2,
    )
    _, summary = run_experiment(spec)
    assert summary.fraction_completed == 1.0
