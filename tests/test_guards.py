"""Typed-error guards that no other test reaches, and the one file-error wrapper."""

from __future__ import annotations

import numpy as np
import pytest

from gossipsim import bounds, graphs, harness, plotting, predictor, protocol
from gossipsim.credibility import Additive, Constant, PowerLaw, Table
from gossipsim.errors import AlphaRange, DomainError, IoError, RangeError, SetRangeError, SizeGuardExceeded
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
    "initial_state-0": (lambda tmp: protocol.initial_state(8, 0), SetRangeError, "not in \\[1, 8\\]"),
    "step-state-size": (
        lambda tmp: protocol.step(ProtocolKind.PUSH, graphs.complete_graph(8), protocol.initial_state(7),
                                  0.5, np.random.default_rng(0)),
        SetRangeError, "state has 7 vertices, graph has 8"),
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
            ("n-1", 1, 1, RangeError, "K_n needs an integer n >= 2, got 1"),
            ("n-8.0", 8.0, 1, RangeError, "K_n needs an integer n >= 2, got 8.0"),
        )
    },
    "complete_size_law-n-2.5": (lambda tmp: protocol.complete_size_law(ProtocolKind.PUSH, 2.5, 1, 0.5), RangeError,
                                "K_n needs an integer n >= 2, got 2.5"),
    "complete_size_law-count-2.5": (lambda tmp: protocol.complete_size_law(ProtocolKind.PUSH, 8, 2.5, 0.5),
                                    SetRangeError, "informed size 2.5 not in \\[1, 7\\]"),
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
