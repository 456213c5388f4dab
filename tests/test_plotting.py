from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from gossipsim.credibility import Constant
from gossipsim.errors import EmptyData
from gossipsim.graphs import StaticGraph, complete_graph
from gossipsim.harness import (
    ExperimentSpec,
    RecordLevel,
    export_records,
    load_records_csv,
    run_trial,
)
from gossipsim.plotting import plot_trajectories, render_trajectories_svg
from gossipsim.predictor import phase_schedule
from gossipsim.protocol import ProtocolKind

SVG_NS = "{http://www.w3.org/2000/svg}"


def records_for(q: float, trials: int = 3):
    spec = ExperimentSpec(
        graph=StaticGraph(complete_graph(12)),
        protocol=ProtocolKind.PUSH,
        credibility=Constant(q),
        trials=trials,
        max_rounds=25,
        master_seed=3,
        record_level=RecordLevel.PER_ROUND,
    )
    return [run_trial(spec, i) for i in range(trials)]


def test_output_is_valid_svg(tmp_path):
    path = tmp_path / "chart.svg"
    plot_trajectories(records_for(1.0), path)
    root = ET.parse(path).getroot()
    assert root.tag == f"{SVG_NS}svg"
    polylines = root.findall(f"{SVG_NS}polyline")
    assert len(polylines) == 3


def test_flat_trajectory_is_horizontal(tmp_path):
    records = records_for(0.0, trials=1)
    svg = render_trajectories_svg(records)
    root = ET.fromstring(svg)
    polyline = root.find(f"{SVG_NS}polyline")
    ys = {point.split(",")[1] for point in polyline.get("points").split()}
    assert len(ys) == 1


def test_phase_boundary_overlay_count(tmp_path):
    plan = phase_schedule(ProtocolKind.PUSH, 1.0, 12)
    svg = render_trajectories_svg(records_for(1.0), phases=plan)
    root = ET.fromstring(svg)
    boundaries = [
        el for el in root.findall(f"{SVG_NS}line") if el.get("class") == "phase-boundary"
    ]
    assert len(boundaries) == len(plan.phases)


def test_deterministic_bytes(tmp_path):
    a = render_trajectories_svg(records_for(0.7))
    b = render_trajectories_svg(records_for(0.7))
    assert a == b


def test_reloaded_csv_plots_like_the_run(tmp_path):
    # without --n the chart scales by each record's n, which the CSV carries
    path = tmp_path / "records.csv"
    records = records_for(0.05)
    export_records(records, path)
    assert render_trajectories_svg(load_records_csv(path)) == render_trajectories_svg(records)


def test_empty_data_rejected():
    with pytest.raises(EmptyData):
        render_trajectories_svg([])
