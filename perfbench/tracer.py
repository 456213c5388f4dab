"""In-memory span tracer that wraps gossipsim's public functions from outside.

The tracer never edits the package. :meth:`Tracer.install` replaces every
reference to a traced function or method in the loaded ``gossipsim`` modules
with a wrapper that records one span per call: name, start, end, parent span
and workload id. :meth:`Tracer.uninstall` puts the originals back. Spans stay
in memory until :meth:`Tracer.write_spans`; :meth:`Tracer.layer_metrics`
turns them into the per-layer metrics named in ``BENCHMARK.json``.

Self time is a span's duration minus the time covered by its direct children.
Work the tracer itself does after a call (counting useful rounds, sizing an
export) runs inside a ``tracer.probe`` child span, so it is charged to no
layer.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter_ns

PROBE = "tracer.probe"


def _step_probe(tracer, args, kwargs, result):
    state = args[2] if len(args) > 2 else kwargs["state"]
    if result.informed_count > state.informed_count:
        tracer.counts["protocol.step.useful"] += 1


def _snapshot_probe(tracer, args, kwargs, result):
    t = args[1] if len(args) > 1 else kwargs["t"]
    tracer.snapshot_rounds.add(t)


def _export_probe(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts["harness.export_records.bytes"] += os.path.getsize(path)


# (module, function, span name, probe)
FUNCTIONS = [
    ("seeds", "rng_for", "seeds.rng_for", None),
    ("protocol", "step", "protocol.step", _step_probe),
    ("protocol", "sample_delta_sizes", "protocol.sample_delta_sizes", None),
    ("protocol", "exact_delta_expectation", "protocol.exact_delta_expectation", None),
    ("protocol", "enumerate_joint_distribution", "protocol.enumerate_joint_distribution", None),
    ("protocol", "verify_process_properties", "protocol.verify_process_properties", None),
    ("graphs", "generate_random_regular", "graphs.generate_random_regular", None),
    ("graphs", "spectral_lambda", "graphs.spectral_lambda", None),
    ("graphs", "conductance", "graphs.conductance", None),
    ("graphs", "is_connected", "graphs.is_connected", None),
    ("bounds", "basic_growth_bounds", "bounds.basic_growth_bounds", None),
    ("bounds", "shrink_bounds", "bounds.shrink_bounds", None),
    ("bounds", "refined_spectral_lower", "bounds.refined_spectral_lower", None),
    ("predictor", "fixed_q_runtime", "predictor.fixed_q_runtime", None),
    ("harness", "predictor_comparison", "predictor.predictor_comparison", None),
    ("harness", "run_trial", "harness.run_trial", None),
    ("harness", "summarize", "harness.summarize", None),
    ("harness", "export_records", "harness.export_records", _export_probe),
    ("harness", "load_records_csv", "harness.load_records_csv", None),
    ("harness", "load_records_jsonl", "harness.load_records_jsonl", None),
    ("plotting", "plot_trajectories", "plotting.plot_trajectories", None),
]

# (module, classes, method, span name, probe)
METHODS = [
    ("graphs", ("GraphSnapshot",), "sample_neighbors", "graphs.sample_neighbors", None),
    (
        "graphs",
        ("StaticGraph", "CyclicGraphs", "ResampledRegular", "MatchingSequence"),
        "snapshot",
        "graphs.snapshot",
        _snapshot_probe,
    ),
    (
        "credibility",
        ("Constant", "PowerLaw", "Additive", "Multiplicative", "Table"),
        "value_at",
        "credibility.value_at",
        None,
    ),
]

# Per-layer self-time metrics that sum several spans: metric -> span-name prefix.
_GROUPS = {
    "bounds.self_s": "bounds.",
    "predictor.self_s": "predictor.",
    "harness.load_records.self_s": "harness.load_records_",
}


class Tracer:
    """Collects spans for one workload run; install, run, uninstall, report."""

    def __init__(self, workload_id: str):
        self.workload_id = workload_id
        self.phase = "setup"
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.phases: list[str] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {"protocol.step.useful": 0, "harness.export_records.bytes": 0}
        self.snapshot_rounds: set[int] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.phases.append(self.phase)
        self.ends.append(0)
        self.stack.append(sid)
        self.starts.append(perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = perf_counter_ns()
        self.stack.pop()

    def _wrap(self, name: str, fn, probe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    pid = tracer._open(PROBE)
                    try:
                        probe(tracer, args, kwargs, result)
                    finally:
                        tracer._close(pid)
                return result
            finally:
                tracer._close(sid)

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Route every call to a traced function or method through a span."""
        modules = [m for k, m in list(sys.modules.items()) if k == "gossipsim" or k.startswith("gossipsim.")]
        for mod_name, fn_name, span, probe in FUNCTIONS:
            original = getattr(sys.modules[f"gossipsim.{mod_name}"], fn_name)
            wrapper = self._wrap(span, original, probe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        for mod_name, classes, method, span, probe in METHODS:
            mod = sys.modules[f"gossipsim.{mod_name}"]
            for cls_name in classes:
                cls = getattr(mod, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(span, original, probe))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reporting -------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Seconds of self time and call count per span name."""
        child_ns = [0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[sid] - self.starts[sid]
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for sid, name in enumerate(self.names):
            own = self.ends[sid] - self.starts[sid] - child_ns[sid]
            self_s[name] = self_s.get(name, 0.0) + own * 1e-9
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls

    def layer_metrics(self, names, overhead_s: float) -> dict[str, float]:
        """Values of the named per-layer metrics, from the recorded spans."""
        self_s, calls = self.self_times()
        steps = calls.get("protocol.step", 0)
        rebuilds = sum(
            1
            for sid, name in enumerate(self.names)
            if name == "graphs.generate_random_regular"
            and self.parents[sid] >= 0
            and self.names[self.parents[sid]] == "graphs.snapshot"
        )
        rounds = len(self.snapshot_rounds)
        special = {
            "protocol.step.us_per_call": self_s.get("protocol.step", 0.0) / steps * 1e6 if steps else 0.0,
            "protocol.step.useful_ratio": self.counts["protocol.step.useful"] / steps if steps else 0.0,
            "graphs.rebuilds_per_round": rebuilds / rounds if rounds else 0.0,
            "harness.export_records.bytes": self.counts["harness.export_records.bytes"],
            "tracing.overhead_s": overhead_s,
        }
        out: dict[str, float] = {}
        for metric in names:
            if metric in special:
                out[metric] = special[metric]
            elif metric in _GROUPS:
                prefix = _GROUPS[metric]
                out[metric] = sum((v for k, v in self_s.items() if k.startswith(prefix)), 0.0)
            elif metric.endswith(".self_s"):
                out[metric] = self_s.get(metric[: -len(".self_s")], 0.0)
            elif metric.endswith(".calls"):
                out[metric] = calls.get(metric[: -len(".calls")], 0)
            else:
                raise KeyError(f"no rule for per-layer metric {metric!r}")
        return out

    def write_spans(self, path) -> None:
        """One CSV row per span: id, parent, name, start_ns, end_ns, phase, workload."""
        base = self.starts[0] if self.starts else 0
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,start_ns,end_ns,phase,workload\n")
            for sid, name in enumerate(self.names):
                fh.write(
                    f"{sid},{self.parents[sid]},{name},{self.starts[sid] - base},"
                    f"{self.ends[sid] - base},{self.phases[sid]},{self.workload_id}\n"
                )
