from __future__ import annotations

import argparse
import csv
import hashlib
import json
import xml.etree.ElementTree as ET

import pytest

from gossipsim import cli, harness
from gossipsim.cli import build_parser, main


def test_simulate_writes_records_and_summary(tmp_path, capsys):
    out = tmp_path / "records.csv"
    code = main(
        [
            "simulate",
            "--graph", "complete:16",
            "--protocol", "push",
            "--cred", "const:1",
            "--trials", "3",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["trials"] == 3
    assert summary["fraction_completed"] == 1.0
    assert out.read_text().startswith("trial,round,informed,q_t,n,seed,exact_delta\n")


def test_simulate_jsonl_and_summary_out(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    summary_out = tmp_path / "summary.json"
    code = main(
        [
            "simulate",
            "--graph", "cycle:9",
            "--protocol", "push-pull",
            "--cred", "mult:0.1",
            "--trials", "2",
            "--max-rounds", "15",
            "--out", str(out),
            "--format", "jsonl",
            "--summary-out", str(summary_out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert len(out.read_text().splitlines()) == 2
    assert json.loads(summary_out.read_text())["config"]["protocol"] == "push-pull"


def test_simulate_deterministic(tmp_path, capsys):
    argv = ["simulate", "--graph", "complete:12", "--protocol", "pull",
            "--cred", "const:0.5", "--trials", "2", "--seed", "9"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("graph", ["complete:2", "matching:2"])
@pytest.mark.parametrize("cred, family", [("power:0.5", "power-law"), ("mult:0.1", "multiplicative")])
def test_simulate_on_two_vertices_keeps_its_records(tmp_path, capsys, graph, cred, family):
    # the decay thresholds need n >= 3; the summary keeps the family and alpha
    out = tmp_path / "r.csv"
    argv = ["simulate", "--graph", graph, "--protocol", "push", "--cred", cred, "--trials", "2", "--out", str(out)]
    assert main(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["predictor"] == {"family": family, "alpha": float(cred.partition(":")[2])}
    assert [r.n for r in harness.load_records_csv(out)] == [2, 2]


def test_predict_constant(capsys):
    code = main(
        ["predict", "--protocol", "push", "--cred", "const:0.5", "--n", "4096", "--lambda", "0.1"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["fixed_q_runtime"] == pytest.approx(
        (1 / __import__("math").log(1.5) + 2.0) * __import__("math").log(4096)
    )
    assert len(out["phase_plan"]) == 6
    assert out["family"]["family"] == "constant"
    assert "general_strong_T" in out


# sha256 prefixes of the concatenated stdout of the four (n, lambda) runs
GOLDEN_PREDICT = {
    ("push", "const:0.5"): "90f839794cb05387",
    ("push", "const:1"): "a1859d14276c7853",
    ("push", "power:0.5"): "003ad3555763059e",
    ("push", "power:2"): "a1f6a0580cab02af",
    ("push", "add:0.05"): "2a06e20887b1833f",
    ("push", "mult:0.01"): "cbaf47e2728156f8",
    ("pull", "const:0.5"): "d4c2894844e15183",
    ("pull", "const:1"): "8e951ff0f5532e48",
    ("pull", "power:0.5"): "c5eb0bfaa6230bb1",
    ("pull", "power:2"): "45b3f8d1d9e20012",
    ("pull", "add:0.05"): "e74d97168d319e72",
    ("pull", "mult:0.01"): "2985c8d5976f3869",
    ("push-pull", "const:0.5"): "dab2f69891a3c041",
    ("push-pull", "const:1"): "5c50c8e5b99e9942",
    ("push-pull", "power:0.5"): "316d19c53dc6dc3d",
    ("push-pull", "power:2"): "bea28e949caf65d7",
    ("push-pull", "add:0.05"): "fdec1ab31116c27a",
    ("push-pull", "mult:0.01"): "e9fe2b2d32ebed88",
}


@pytest.mark.parametrize("protocol, cred", list(GOLDEN_PREDICT))
def test_predict_golden(protocol, cred, capsys):
    # n = 5 is the corner where 1/log n > 1/2
    h = hashlib.sha256()
    for n in ("5", "4096"):
        for lam in ([], ["--lambda", "0.35"]):
            assert main(["predict", "--protocol", protocol, "--cred", cred, "--n", n, *lam]) == 0
            h.update(capsys.readouterr().out.encode())
    assert h.hexdigest()[:16] == GOLDEN_PREDICT[protocol, cred]


def test_predict_tiny_constant_reports_unreached(capsys):
    argv = ["predict", "--protocol", "pull", "--cred", "const:1e-310", "--n", "4096", "--lambda", "0.1"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert "error" in out["general_strong_T"]


def test_predict_from_graph_file(tmp_path, capsys):
    from gossipsim.graphs import generate_random_regular, save_graph

    path = tmp_path / "g.txt"
    save_graph(generate_random_regular(32, 4, seed=0), path)
    code = main(
        ["predict", "--protocol", "pull", "--cred", "power:2", "--n", "32",
         "--graph-file", str(path)]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 < out["lambda"] <= 1.0
    assert out["family"]["expectation_bound"] > 1.0


def test_predict_from_a_16k_vertex_graph_file(tmp_path, capsys):
    from gossipsim.graphs import generate_random_regular, save_graph

    path = tmp_path / "g.txt"
    save_graph(generate_random_regular(16_384, 8, seed=3), path)
    code = main(
        ["predict", "--protocol", "push", "--cred", "const:0.5", "--n", "16384",
         "--graph-file", str(path)]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    # Random 8-regular graphs sit near the Kesten-McKay edge 2 sqrt(7) / 8.
    assert out["lambda"] == pytest.approx(2 * 7**0.5 / 8, abs=0.02)
    assert out["phase_plan"] is not None


def test_bounds_text_and_csv(capsys):
    code = main(["bounds", "--protocol", "push", "--q", "1", "--phi", "1", "--d", "2"])
    assert code == 0
    text = capsys.readouterr().out
    assert "growth-basic" in text and "shrink" in text

    code = main(
        ["bounds", "--protocol", "push-pull", "--q", "0.5", "--phi", "0.4",
         "--lambda", "0.0001", "--fraction", "0.0003", "--csv"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "bound,lower,upper,source"
    assert any(line.startswith("growth-spectral-lower") for line in lines)


def test_verify_exit_codes(capsys):
    assert main(["verify", "--scope", "tiny"]) == 0
    capsys.readouterr()
    assert main(["verify", "--scope", "complete"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] complete_law/size_law_vs_enumeration" in out and "instances=468" in out
    assert "exact_mean_final=3.664736" in out
    # the claims scope includes the known-false product inequality, so the
    # suite reports failure
    assert main(["verify", "--scope", "claims"]) == 1
    out = capsys.readouterr().out
    assert (
        "[FAIL] predictor_claims/multiplicative_product: cases=2, failing=["
        "'multiplicative few-product at log n=10 (log-product 16.38 > target 5.00)', "
        "'multiplicative few-product at log n=20 (log-product 32.83 > target 10.00)']\n"
    ) in out


def _verify_scope_choices():
    parser = build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    [scope] = [a for a in commands.choices["verify"]._actions if a.dest == "scope"]
    return list(scope.choices)


def test_verify_scopes_are_the_suite_table():
    names = [scope for scope, _ in harness.VERIFY_SUITES.values()]
    assert all(isinstance(name, str) and name for name in names)
    assert len(set(names)) == len(names)
    assert _verify_scope_choices() == names


@pytest.mark.parametrize("suite", list(harness.VERIFY_SUITES))
def test_verify_scope_prints_only_its_suite(suite, capsys):
    scope, _ = harness.VERIFY_SUITES[suite]
    assert main(["verify", "--scope", scope]) in (0, 1)
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith((f"[PASS] {suite}/", f"[FAIL] {suite}/")) for line in lines)


SWEEP_COMMON = ["--protocol", "push", "--trials", "2", "--max-rounds", "40", "--seed", "1"]
SWEPT = ("n", "fraction_completed", "completion_mean", "completion_median",
         "final_informed_mean", "final_informed_median")


def _sweep(tmp_path, monkeypatch, capsys, graph, cred, param, values):
    """Sweep one parameter; check each row against a direct run of its point.

    Returns the (graph, cred) spec text each point ran and the rows' n column.
    """
    ran = []
    spec_from_args = cli._spec_from_args

    def recording(args):
        ran.append((args.graph, args.cred))
        return spec_from_args(args)

    out = tmp_path / "sweep.csv"
    with monkeypatch.context() as mp:
        mp.setattr(cli, "_spec_from_args", recording)
        argv = ["sweep", "--graph", graph, "--cred", cred, *SWEEP_COMMON, "--param", param, "--values", values]
        assert main([*argv, "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, list(reader)
    assert len(set(header)) == len(header), header
    assert len(rows) == len(ran) == len(values.split(","))
    assert [row[param] for row in rows] == values.split(",")
    for (point_graph, point_cred), row in zip(ran, rows):
        assert main(["simulate", "--graph", point_graph, "--cred", point_cred, *SWEEP_COMMON]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert [float(row[key]) if row[key] else None for key in SWEPT] == [summary[key] for key in SWEPT]
    return ran, [row["n"] for row in rows]


def test_sweep_n_resizes_the_graph(tmp_path, monkeypatch, capsys):
    ran, ns = _sweep(tmp_path, monkeypatch, capsys, "complete:16", "const:1", "n", "8,32")
    assert ran == [("complete:8", "const:1"), ("complete:32", "const:1")]
    assert ns == ["8", "32"]


def test_sweep_d_keeps_the_graph_seed(tmp_path, monkeypatch, capsys):
    ran, _ = _sweep(tmp_path, monkeypatch, capsys, "regular:32,4,seed=3", "const:1", "d", "4,6")
    assert [graph for graph, _ in ran] == ["regular:32,4,seed=3", "regular:32,6,seed=3"]


def test_sweep_q_rewrites_the_credibility(tmp_path, monkeypatch, capsys):
    ran, _ = _sweep(tmp_path, monkeypatch, capsys, "complete:16", "power:1", "q", "0.5,1")
    assert ran == [("complete:16", "const:0.5"), ("complete:16", "const:1")]


def test_sweep_d_without_a_degree_is_a_usage_error(capsys):
    code = main(["sweep", "--graph", "cycle:8", "--cred", "const:1", *SWEEP_COMMON, "--param", "d", "--values", "3"])
    assert code == 2
    assert "does not apply" in capsys.readouterr().err


def test_sweep_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--graph", "complete:16",
            "--protocol", "push",
            "--cred", "mult:0.1",
            "--trials", "2",
            "--max-rounds", "20",
            "--param", "alpha", "--values", "0.05,0.3",
            "--param", "seed", "--values", "1,2",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("alpha,seed,n,")
    assert len(lines) == 1 + 4


def test_sweep_without_out_prints_its_csv(capsys):
    argv = ["sweep", "--graph", "complete:16", "--protocol", "push", "--cred", "const:1", "--trials", "1",
            "--max-rounds", "20", "--param", "seed", "--values", "1,2"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("seed,n,fraction_completed,") and [line[:5] for line in lines[1:]] == ["1,16,", "2,16,"]


def test_sweep_needs_a_values_flag_per_param(capsys):
    argv = ["sweep", "--graph", "complete:16", "--protocol", "push", "--cred", "const:1", "--trials", "1",
            "--param", "seed", "--param", "trials", "--values", "1,2"]
    assert main(argv) == 2
    assert "each --param needs a matching --values" in capsys.readouterr().err


def test_plot_from_csv(tmp_path):
    records = tmp_path / "records.csv"
    chart = tmp_path / "chart.svg"
    assert main(
        ["simulate", "--graph", "complete:12", "--protocol", "push",
         "--cred", "const:1", "--trials", "2", "--out", str(records)]
    ) == 0
    assert main(
        ["plot", "--in", str(records), "--out", str(chart),
         "--protocol", "push", "--q", "1", "--n", "12"]
    ) == 0
    root = ET.parse(chart).getroot()
    assert root.tag.endswith("svg")


def _phase_lines(chart) -> int:
    return sum(el.get("class") == "phase-boundary" for el in ET.parse(chart).getroot().iter())


def test_plot_takes_n_from_the_records(tmp_path, capsys):
    records = tmp_path / "records.csv"
    chart = tmp_path / "chart.svg"
    assert main(["simulate", "--graph", "complete:12", "--protocol", "push",
                 "--cred", "const:1", "--trials", "2", "--out", str(records)]) == 0
    plot = ["plot", "--in", str(records), "--out", str(chart), "--protocol", "push", "--q", "1"]
    assert main(plot) == 0
    assert _phase_lines(chart) == 6
    without_n = chart.read_bytes()
    assert main([*plot, "--n", "12"]) == 0
    assert chart.read_bytes() == without_n
    # a file of an earlier version carries no n
    old = tmp_path / "old.csv"
    old.write_text("trial,round,informed,q_t\n0,0,1,1.0\n0,1,2,1.0\n")
    capsys.readouterr()
    assert main(["plot", "--in", str(old), "--out", str(tmp_path / "old.svg"), "--protocol", "push", "--q", "1"]) == 2
    assert "carry no n; pass --n" in capsys.readouterr().err
    assert main(["plot", "--in", str(old), "--out", str(tmp_path / "old.svg"), "--protocol", "push", "--q", "1",
                 "--n", "12"]) == 0


@pytest.mark.parametrize("n", ["0", "3", "-4"])
def test_plot_rejects_an_n_below_the_plotted_counts(tmp_path, capsys, n):
    records = tmp_path / "records.csv"
    assert main(["simulate", "--graph", "complete:16", "--protocol", "push", "--cred", "const:1",
                 "--out", str(records)]) == 0
    capsys.readouterr()
    assert main(["plot", "--in", str(records), "--out", str(tmp_path / "chart.svg"), "--n", n]) == 2
    assert f"error: n = {n} is below the largest informed count plotted, 16" in capsys.readouterr().err
    assert not (tmp_path / "chart.svg").exists()


@pytest.mark.parametrize(
    "name,text",
    [
        ("short_row.csv", "trial,round,informed,q_t\n0,0,1,1.0\n0,1,2\n"),
        ("bad_int.csv", "trial,round,informed,q_t\n0,0,1,1.0\n0,one,2,1.0\n"),
        ("bad_summary.csv", "trial,completion,final\n0,3,many\n"),
        ("not_json.jsonl", '{"trial": 0, "final_informed": 1, "completion_round": null}\nnot json\n'),
        ("unknown_key.jsonl", '{"trial": 0, "final_informed": 1, "completion_round": null, "x": 1}\n'),
        ("missing_key.jsonl", '{"trial": 0}\n'),
    ],
)
def test_plot_rejects_malformed_records(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert main(["plot", "--in", str(path), "--out", str(tmp_path / "chart.svg")]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "line " in err


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["simulate", "--graph", "torus:9", "--protocol", "push",
                 "--cred", "const:1"]) == 2
    capsys.readouterr()
    assert main(["bounds", "--protocol", "smoke", "--q", "1", "--phi", "1"]) == 2
    for n in ("0", "1", "2"):
        for cred in ("power:2", "add:0.1", "power:0.5"):
            assert main(["predict", "--protocol", "push", "--cred", cred, "--n", n]) == 2
    for lam in ("-0.5", "1.5"):
        assert main(["predict", "--protocol", "push", "--cred", "add:0.05", "--n", "4096",
                     "--lambda", lam]) == 2
    from gossipsim.graphs import generate_random_regular, save_graph

    graph_file = tmp_path / "g32.txt"
    save_graph(generate_random_regular(32, 4, seed=0), graph_file)
    assert main(["predict", "--protocol", "push", "--cred", "const:0.5", "--n", "4096",
                 "--graph-file", str(graph_file)]) == 2
    assert "32 vertices" in capsys.readouterr().err
    sweep = ["sweep", "--graph", "complete:16", "--protocol", "push", "--trials", "1",
             "--max-rounds", "5"]
    assert main([*sweep, "--cred", "const:zebra", "--param", "alpha", "--values", "0.1"]) == 2
    assert main([*sweep, "--cred", "const:0.5", "--param", "alpha", "--values", "0.1"]) == 2
    for param in ("trials", "seed", "max-rounds"):
        assert main([*sweep, "--cred", "const:0.5", "--param", param, "--values", "1.5"]) == 2
    assert main([*sweep, "--cred", "const:0.5", "--param", "seed", "--values", "1",
                 "--out", str(tmp_path / "missing" / "sweep.csv")]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--graph", "complete:16"])
    assert exc.value.code == 2
