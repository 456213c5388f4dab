"""Typed-error guards that no other test reaches, inputs once silently misread, and the one file-error wrapper."""

from __future__ import annotations

import re

import numpy as np
import pytest

from gossipsim import bounds, graphs, harness, plotting, predictor, protocol, seeds
from gossipsim.credibility import Additive, Constant, PowerLaw, Table
from gossipsim.errors import (
    AlphaRange,
    DomainError,
    IoError,
    RangeError,
    SetRangeError,
    SizeGuardExceeded,
    _is_integer,
)
from gossipsim.protocol import ProtocolKind


def _file(path, text: str):
    path.write_text(text)
    return path


def _half_informed_matching(pairs: int):
    """A perfect matching on 2 * pairs vertices with one end of each pair informed."""
    informed = np.zeros(2 * pairs, dtype=bool)
    informed[::2] = True
    return graphs.matching_graph([(2 * i, 2 * i + 1) for i in range(pairs)]), informed


GUARDS = {
    "load_graph-empty": (lambda tmp: graphs.load_graph(_file(tmp / "g.txt", "")), RangeError, "empty graph file"),
    "load_graph-non-integer": (lambda tmp: graphs.load_graph(_file(tmp / "g.txt", "0 x\n")), RangeError,
                               "malformed line"),
    "cycle_graph-2": (lambda tmp: graphs.cycle_graph(2), RangeError, "cycle needs n >= 3"),
    "CyclicGraphs-empty": (lambda tmp: graphs.CyclicGraphs(()), RangeError, "at least one snapshot"),
    "initial_state-0": (lambda tmp: protocol.initial_state(8, 0), SetRangeError, "not an integer in \\[1, 8\\]"),
    "initial_state-2.5": (lambda tmp: protocol.initial_state(5, 2.5), SetRangeError,
                          "count 2.5 not an integer in \\[1, 5\\]"),
    "initial_state-n-2.5": (lambda tmp: protocol.initial_state(2.5, 1), RangeError,
                            "vertex count must be an integer, got 2.5"),
    "step-state-size": (
        lambda tmp: protocol.step(ProtocolKind.PUSH, graphs.complete_graph(8), protocol.initial_state(7),
                                  0.5, np.random.default_rng(0)),
        RangeError, "mask length \\(7,\\) != \\(8,\\)"),
    **{
        f"sample_delta_sizes-{name}": (
            lambda tmp, informed=informed, draws=draws: protocol.sample_delta_sizes(
                ProtocolKind.PUSH, graphs.complete_graph(4), informed, 0.5, np.random.default_rng(0), draws),
            error, message)
        for name, informed, draws, error, message in (
            ("samples--1", [0], -1, RangeError, "n_samples must be a non-negative integer, got -1"),
            ("samples-2.5", [0], 2.5, RangeError, "n_samples must be a non-negative integer, got 2.5"),
            ("empty-set", [], 3, SetRangeError, "informed set must be nonempty"),
        )
    },
    **{
        f"seed-{name}": (lambda tmp, seed=seed: graphs.generate_random_regular(10, 3, seed=seed), RangeError,
                         f"seed part {seed!r} is not an integer")
        for name, seed in (("str", "5"), ("none", None), ("nan", float("nan")))
    },
    "ResampledRegular-seed-2.5": (lambda tmp: graphs.ResampledRegular(10, 3, 2.5).snapshot(0), RangeError,
                                  "seed part 2.5 is not an integer"),
    "MatchingSequence-seed-2.5": (lambda tmp: graphs.MatchingSequence(10, 2.5).snapshot(0), RangeError,
                                  "seed part 2.5 is not an integer"),
    "shrink_bounds-degree-2.5": (lambda tmp: bounds.shrink_bounds(ProtocolKind.PUSH, 0.5, 0.5, 2.5), RangeError,
                                 "degree must be an integer >= 1, got 2.5"),
    "step-credibility-str": (
        lambda tmp: protocol.step(ProtocolKind.PUSH, graphs.complete_graph(4), protocol.initial_state(4), "0.5",
                                  np.random.default_rng(0)),
        RangeError, "credibility must be a number in \\[0, 1\\], got '0.5'"),
    "Constant-str": (lambda tmp: Constant("x"), RangeError,
                     "constant credibility must be a number in \\[0, 1\\], got 'x'"),
    "Table-str": (lambda tmp: Table(("x",)), RangeError,
                  "table credibility values must be a number in \\[0, 1\\], got 'x'"),
    "cycle_graph-str": (lambda tmp: graphs.cycle_graph("6"), RangeError, "vertex count must be an integer, got '6'"),
    **{
        f"as_vertex_mask-{name}": (lambda tmp, s=s: graphs.as_vertex_mask(6, s), RangeError, message)
        for name, s, message in (
            ("scalar", 3, "a vertex set is a bool mask or integer vertex ids, got 3"),
            ("2d-ids", np.array([[0, 1]]), "integer vertex ids, got a 2-d int64 array"),
            ("id-2**70", [2**70], "vertex id out of range"),
        )
    },
    **{
        f"matching_graph-{name}": (lambda tmp, pairs=pairs: graphs.matching_graph(pairs), RangeError, message)
        for name, pairs, message in (
            ("overlap", [(0, 1), (1, 2)], "matching vertex 1 appears 2 times, not exactly once"),
            ("repeat", [(0, 1), (0, 1)], "matching vertex 0 appears 2 times, not exactly once"),
            ("triple", [(0, 1, 2)], "matching pairs must be \\(u, v\\) pairs, got shape \\(1, 3\\)"),
            ("empty", [], "matching pairs must be \\(u, v\\) pairs, got shape \\(0,\\)"),
            ("flat", [0, 1, 2, 3], "matching pairs must be \\(u, v\\) pairs, got shape \\(4,\\)"),
            ("ragged", [(0, 1), (2,)], "matching pairs must be \\(u, v\\) pairs, got ragged rows"),
            ("no-pairs", np.empty((0, 2), dtype=np.int64), "need at least 2 vertices, got 0"),
        )
    },
    **{
        f"render_trajectories_svg-n-{n}": (lambda tmp, n=n: plotting.render_trajectories_svg([RECORD], n=n),
                                           RangeError, f"n = {n} is below the largest informed count plotted, 2")
        for n in (0, 1, -4)
    },
    **{
        f"parse_graph_spec-{spec}": (lambda tmp, spec=spec: graphs.parse_graph_spec(spec), RangeError,
                                     re.escape(f"bad graph spec {spec!r}: {reason}"))
        for spec, reason in (
            ("complete:8,seed=3", "a complete graph takes no seed"),
            ("cycle:5,seed=9", "a cycle graph takes no seed"),
            ("regular:8,3,seed=1,seed=2", "more than one seed"),
        )
    },
    "tau2_rounds-negative-nu": (lambda tmp: predictor.tau2_rounds(lambda t: -0.1, 0, 2.0, 100.0, 1.0), RangeError,
                                "must be >= 0"),
    "tau3_rounds-nu-1": (lambda tmp: predictor.tau3_rounds(lambda t: 1.0, 0, 250.0, 0.75, 0.5), RangeError,
                         "must be in \\[0, 1\\)"),
    "phase_schedule-lambda": (lambda tmp: predictor.phase_schedule(ProtocolKind.PUSH, 0.5, 1000, lam=1.5),
                              RangeError, "lambda must be in"),
    "phase_schedule-q-0": (lambda tmp: predictor.phase_schedule(ProtocolKind.PUSH, 0.0, 1000), RangeError,
                           "q must be in"),
    "general_strong_T-lambda-1": (
        lambda tmp: predictor.general_strong_T(Constant(0.5), 1.0, 1000, ProtocolKind.PUSH),
        RangeError, "lambda must be in"),
    **{
        f"{name}-xi-{xi}": (lambda tmp, call=call, xi=xi: call(xi), RangeError, "xi must be in \\(0, 1\\)")
        for name, call in {
            "tau2_threshold": lambda xi: predictor.tau2_threshold(2.0, 100.0, 1.0, xi=xi),
            "powerlaw_thresholds": lambda xi: predictor.powerlaw_thresholds(0.5, 0.1, 1.0, 1000, xi=xi),
            "additive_thresholds": lambda xi: predictor.additive_thresholds(1000, 0.1, 1.0, xi=xi),
        }.items()
        for xi in (0.0, float("nan"), 2.0)
    },
    "general_strong_T-xi-0": (
        lambda tmp: predictor.general_strong_T(Constant(0.5), 0.1, 1000, ProtocolKind.PULL, xi=0.0),
        RangeError, "xi must be in \\(0, 1\\)"),
    **{
        f"predictor_comparison-lambda-{name}": (
            lambda tmp, cred=cred, lam=lam: predictor.predictor_comparison(ProtocolKind.PUSH, cred, 4096, lam=lam),
            RangeError, "lambda must be in \\[0, 1\\]")
        for name, cred, lam in (("additive", Additive(0.05), -0.5), ("power-law", PowerLaw(0.5), 2.0),
                                ("table-nan", Table((0.5,)), float("nan")))
    },
    "fixed_q_log_rates-q-0": (lambda tmp: bounds.fixed_q_log_rates(ProtocolKind.PUSH, 0.0), RangeError,
                              "q must be in \\(0, 1\\]"),
    "fixed_q_log_rates-pull-q-1": (lambda tmp: bounds.fixed_q_log_rates(ProtocolKind.PULL, 1.0), DomainError,
                                   "PULL shrink rate undefined at q = 1"),
    **{
        f"complete_final_law-{name}": (
            lambda tmp, n=n, start=start: protocol.complete_final_law(ProtocolKind.PUSH, n, [0.5], start),
            error, message)
        for name, n, start, error, message in (
            ("start--1", 8, -1, SetRangeError, "count -1 not an integer in \\[1, 8\\]"),
            ("start-0", 8, 0, SetRangeError, "count 0 not an integer in \\[1, 8\\]"),
            ("start-9", 8, 9, SetRangeError, "count 9 not an integer in \\[1, 8\\]"),
            ("start-2.5", 8, 2.5, SetRangeError, "count 2.5 not an integer in \\[1, 8\\]"),
            ("n-1", 1, 1, RangeError, "need at least 2 vertices, got 1"),
            ("n-8.0", 8.0, 1, RangeError, "vertex count must be an integer, got 8.0"),
        )
    },
    "complete_size_law-n-2.5": (lambda tmp: protocol.complete_size_law(ProtocolKind.PUSH, 2.5, 1, 0.5), RangeError,
                                "vertex count must be an integer, got 2.5"),
    "complete_size_law-count-2.5": (lambda tmp: protocol.complete_size_law(ProtocolKind.PUSH, 8, 2.5, 0.5),
                                    SetRangeError, "count 2.5 not an integer in \\[1, 7\\]"),
    "complete_size_law-count-True": (lambda tmp: protocol.complete_size_law(ProtocolKind.PUSH, 8, True, 0.5),
                                     SetRangeError, "count True not an integer in \\[1, 7\\]"),
    "harmonic_sum_check-alpha": (lambda tmp: predictor.harmonic_sum_check(1.5, 10), AlphaRange,
                                 "needs alpha in \\(0, 1\\)"),
    "load_records_csv-empty": (lambda tmp: harness.load_records_csv(_file(tmp / "r.csv", "")), RangeError,
                               "missing header"),
    "load_records_csv-unknown-header": (lambda tmp: harness.load_records_csv(_file(tmp / "r.csv", "a,b\n")),
                                        RangeError, "unrecognized header"),
    "pull-enumeration-20-reachable": (
        lambda tmp: protocol.enumerate_joint_distribution(ProtocolKind.PULL, *_half_informed_matching(20), 0.5),
        SizeGuardExceeded, "20 reachable vertices"),
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_guard_raises_its_type(tmp_path, name):
    call, error, message = GUARDS[name]
    with pytest.raises(error, match=message):
        call(tmp_path)


def _spec(**fields):
    return harness.ExperimentSpec(graphs.StaticGraph(graphs.cycle_graph(8)), ProtocolKind.PUSH, Constant(0.5),
                                  **fields)


C4_ROWS = np.array([[1, 3], [0, 2], [1, 3], [0, 2]])
MISREADS = {
    "conductance-int-0/1-array": (
        lambda: graphs.conductance(graphs.cycle_graph(6), np.array([0, 0, 1, 0, 0, 0])), RangeError),
    "vertex-set-float-ids": (lambda: graphs.as_vertex_mask(6, np.array([1.0, 2.0])), RangeError),
    "vertex-set-bool-among-ids": (lambda: graphs.as_vertex_mask(6, [True, 2]), RangeError),
    "generator-float-seed": (lambda: graphs.generate_random_regular(10, 3, seed=2.7), RangeError),
    "rng_for-float-part": (lambda: seeds.rng_for(1, 2.0), RangeError),
    "spec-master-seed-2.5": (lambda: _spec(master_seed=2.5), RangeError),
    "snapshot-float-adjacency": (lambda: graphs.GraphSnapshot(4, 2, C4_ROWS + 0.25), RangeError),
    "matching-float-pairs": (lambda: graphs.matching_graph([(0.5, 1), (2, 3)]), RangeError),
    "edge-list-float-vertex": (lambda: graphs.from_edge_list(4, [(0, 1.0), (1, 2), (2, 3), (3, 0)]), RangeError),
    "complete_delta_expectation-bool-count": (
        lambda: protocol.complete_delta_expectation(ProtocolKind.PUSH, 8, True, 0.5), SetRangeError),
    "complete_chain-bool-count": (
        lambda: protocol.complete_chain(ProtocolKind.PUSH, 8, True, np.full(4, 0.5), seeds.rng_for(0)),
        SetRangeError),
}


@pytest.mark.parametrize("name", list(MISREADS))
def test_an_input_once_read_as_another_raises(name):
    # each of these was coerced (truncated, or a bool read as 1) and run as some other input
    call, error = MISREADS[name]
    with pytest.raises(error):
        call()


def test_a_bool_list_is_a_mask_not_ids():
    # [False, False, True, ...] is the set {2}, once read as the ids {0, 1}
    informed = [False, False, True, False, False, False]
    assert graphs.conductance(graphs.cycle_graph(6), informed) == 1.0
    assert graphs.conductance(graphs.cycle_graph(6), [2]) == 1.0


def test_a_numpy_integer_trial_index_runs_as_an_int():
    record = harness.run_trial(_spec(), np.int64(3))
    assert type(record.trial) is int and record == harness.run_trial(_spec(), 3)


@pytest.mark.parametrize("x", [0, -7, 2**70, np.int64(3), np.uint8(1), np.array([1, 2]), np.array([], np.uint64)])
def test_is_integer_accepts_python_and_numpy_integers(x):
    assert _is_integer(x)


@pytest.mark.parametrize("x", [True, np.True_, 2.0, np.float64(2.0), "2", None, np.array([True]), np.array([1.0])])
def test_is_integer_refuses_bools_floats_and_strings(x):
    assert not _is_integer(x)


def test_a_complete_graph_is_connected():
    assert graphs.is_connected(graphs.complete_graph(5))


RECORD = harness.TrialRecord(trial=0, final_informed=2, completion_round=None, n=8, informed_counts=[1, 2])
FILE_CALLS = {
    "export_records-csv": lambda path: harness.export_records([RECORD], path),
    "export_records-jsonl": lambda path: harness.export_records([RECORD], path, fmt="jsonl"),
    "export_summary": lambda path: harness.export_summary(
        harness.run_experiment(harness.ExperimentSpec(graphs.StaticGraph(graphs.complete_graph(8)),
                                                      ProtocolKind.PUSH, Constant(1.0)))[1], path),
    "load_records_csv": harness.load_records_csv,
    "load_records_jsonl": harness.load_records_jsonl,
    "save_graph": lambda path: graphs.save_graph(graphs.cycle_graph(5), path),
    "load_graph": graphs.load_graph,
    "plot_trajectories": lambda path: plotting.plot_trajectories([RECORD], path),
}


@pytest.mark.parametrize("name", list(FILE_CALLS))
def test_a_path_in_a_missing_directory_raises_io_error(tmp_path, name):
    with pytest.raises(IoError):
        FILE_CALLS[name](tmp_path / "missing" / "file")
