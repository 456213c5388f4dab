"""The four benchmark workloads, built from the acceptance runs.

Each workload has three parts:

- ``setup(seed, tiny)`` builds the inputs (graphs, spectra, specs, sampled
  states) from the workload seed. It is timed as ``setup_s``.
- ``run_pass(inputs, workdir)`` is one pass of the timed phase. It drives the
  library API (never the CLI) and returns a :class:`Pass`.
- ``check(inputs, result)`` checks the pass's outputs with checks that hold
  under any RNG stream layout, and returns ``(attempted, failed, info)``;
  ``attempted`` counts the checked items that ``checks_per_s`` reports.

The seed argument shifts every acceptance seed a workload copies by
``seed - default_seed``, so the default seed reproduces the acceptance
instance exactly and any other seed gives a fresh instance of the same shape.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from gossipsim import bounds, graphs, harness, plotting, predictor, protocol, seeds
from gossipsim.credibility import Constant, PowerLaw
from gossipsim.harness import ExperimentSpec, RecordLevel
from gossipsim.protocol import ProtocolKind

PAIRS = ((ProtocolKind.PUSH, 1.0), (ProtocolKind.PULL, 0.5), (ProtocolKind.PUSH_PULL, 0.5))

# Monte Carlo draws per sample_delta_sizes call. Batching a state's draws in
# fixed chunks keeps peak memory from depending on which states the seed picks.
MC_CHUNK = 10_000

# Bracket inequalities the fixed-seed bound_sandwich suite checks.
SANDWICH_INEQUALITIES = 8846
TINY_INSTANCES = 2160


@dataclass
class Pass:
    """What one timed pass produced; everything the checks and digest need."""

    trial_rounds: int
    outputs: dict = field(default_factory=dict)
    digest_parts: list[str] = field(default_factory=list)

    def digest(self) -> str:
        h = hashlib.sha256()
        for part in self.digest_parts:
            h.update(part.encode())
            h.update(b"\n")
        return h.hexdigest()


def _canonical(value) -> str:
    """Stable JSON text for digests; numpy scalars become Python numbers."""
    return json.dumps(value, sort_keys=True, default=lambda o: o.item())


def _records_json(records) -> str:
    return _canonical([asdict(r) for r in records])


def _run_records(spec: ExperimentSpec):
    records = [harness.run_trial(spec, i) for i in range(spec.trials)]
    return records, harness.summarize(spec, records)


def _non_decreasing(counts) -> bool:
    return all(a <= b for a, b in zip(counts, counts[1:]))


# -- stall ---------------------------------------------------------------------


class Stall:
    name = "stall"
    default_seed = 21  # criterion 6
    setup_reps = 31

    def setup(self, seed: int, tiny: bool) -> dict:
        n, trials, rounds = (256, 4, 100) if tiny else (1024, 40, 500)
        spec = ExperimentSpec(
            graph=graphs.StaticGraph(graphs.complete_graph(n)),
            protocol=ProtocolKind.PUSH,
            credibility=PowerLaw(2.0),
            trials=trials,
            max_rounds=rounds,
            master_seed=seed,
            record_level=RecordLevel.SUMMARY,
        )
        return {"spec": spec, "budget": rounds}

    def run_pass(self, inputs: dict, workdir: str) -> Pass:
        spec = inputs["spec"]
        records, summary = _run_records(spec)
        rounds = sum(
            inputs["budget"] if r.completion_round is None else r.completion_round for r in records
        )
        return Pass(
            trial_rounds=rounds,
            outputs={"records": records},
            digest_parts=[summary.to_json(), _records_json(records)],
        )

    def check(self, inputs: dict, result: Pass) -> tuple[int, int, dict]:
        n = inputs["spec"].graph.n
        records = result.outputs["records"]
        failed = sum(not 1 <= r.final_informed <= n for r in records)
        finals = np.array([r.final_informed for r in records], dtype=float)
        se = finals.std(ddof=1) / math.sqrt(len(finals))
        ceiling = math.exp(math.pi**2 / 6)
        failed += not finals.mean() <= ceiling + 3 * se
        info = {"final_informed_mean": float(finals.mean()), "ceiling_plus_3se": ceiling + 3 * se}
        return len(records) + 1, failed, info


# -- spread --------------------------------------------------------------------


class Spread:
    name = "spread"
    default_seed = 7  # criterion 5b; the regular graph's seed is seed + 4 (11)
    setup_reps = 3

    def setup(self, seed: int, tiny: bool) -> dict:
        (n_reg, d), n_full, trials = ((256, 8), 1024, 2) if tiny else ((4096, 32), 65536, 4)
        regular = graphs.generate_random_regular(n_reg, d, seed=seed + 4)
        lam = graphs.spectral_lambda(regular).lam
        specs = []
        for graph in (graphs.StaticGraph(regular), graphs.StaticGraph(graphs.complete_graph(n_full))):
            for kind, q in PAIRS:
                runtime = predictor.fixed_q_runtime(kind, q, graph.n)
                spec = ExperimentSpec(
                    graph=graph,
                    protocol=kind,
                    credibility=Constant(q),
                    trials=trials,
                    max_rounds=math.ceil(3 * runtime),
                    master_seed=seed,
                    record_level=RecordLevel.PER_ROUND,
                )
                specs.append((spec, runtime))
        return {"specs": specs, "lam": lam}

    def run_pass(self, inputs: dict, workdir: str) -> Pass:
        experiments = []
        parts = [repr(inputs["lam"])]
        for idx, (spec, _) in enumerate(inputs["specs"]):
            records, summary = _run_records(spec)
            csv_path = os.path.join(workdir, f"spread-{idx}.csv")
            jsonl_path = os.path.join(workdir, f"spread-{idx}.jsonl")
            harness.export_records(records, csv_path, fmt="csv")
            harness.export_records(records, jsonl_path, fmt="jsonl")
            loaded_csv = harness.load_records_csv(csv_path)
            loaded_jsonl = harness.load_records_jsonl(jsonl_path)
            experiments.append((records, loaded_csv, loaded_jsonl))
            parts += [summary.to_json(), _records_json(records)]
        svg_path = os.path.join(workdir, "spread.svg")
        first = inputs["specs"][0][0]
        plotting.plot_trajectories(experiments[0][0], svg_path, n=first.graph.n)
        return Pass(
            trial_rounds=sum(len(r.informed_counts) - 1 for e in experiments for r in e[0]),
            outputs={"experiments": experiments, "svg": svg_path},
            digest_parts=parts,
        )

    def check(self, inputs: dict, result: Pass) -> tuple[int, int, dict]:
        attempted = failed = within = 0
        for (_, runtime), (records, loaded_csv, loaded_jsonl) in zip(
            inputs["specs"], result.outputs["experiments"]
        ):
            csv_counts = {r.trial: r.informed_counts for r in loaded_csv}
            jsonl_counts = {r.trial: r.informed_counts for r in loaded_jsonl}
            for r in records:
                attempted += 1
                ok = (
                    r.completion_round is not None
                    and r.completion_round <= 3 * runtime
                    and _non_decreasing(r.informed_counts)
                    and csv_counts.get(r.trial) == r.informed_counts
                    and jsonl_counts.get(r.trial) == r.informed_counts
                )
                failed += not ok
                within += r.completion_round is not None and r.completion_round <= 1.2 * runtime
        attempted += 1
        svg = result.outputs["svg"]
        failed += not (os.path.exists(svg) and os.path.getsize(svg) > 0)
        info = {"lambda": inputs["lam"], "share_within_1.2x_runtime": within / (attempted - 1)}
        return attempted, failed, info


# -- dynamic -------------------------------------------------------------------


class Dynamic:
    name = "dynamic"
    default_seed = 3
    setup_reps = 31
    rounds = 200  # more than the 128-entry snapshot cache, so the cache never hits

    def setup(self, seed: int, tiny: bool) -> dict:
        n, d = (64, 4) if tiny else (512, 8)
        spec = ExperimentSpec(
            graph=graphs.ResampledRegular(n=n, d=d, seed=seed),
            protocol=ProtocolKind.PUSH,
            credibility=PowerLaw(1.0),
            trials=2,
            max_rounds=self.rounds,
            master_seed=seed,
            record_level=RecordLevel.PER_ROUND,
        )
        return {"spec": spec}

    def run_pass(self, inputs: dict, workdir: str) -> Pass:
        records, summary = _run_records(inputs["spec"])
        return Pass(
            trial_rounds=sum(len(r.informed_counts) - 1 for r in records),
            outputs={"records": records},
            digest_parts=[summary.to_json(), _records_json(records)],
        )

    def check(self, inputs: dict, result: Pass) -> tuple[int, int, dict]:
        records = result.outputs["records"]
        failed = sum(
            not (_non_decreasing(r.informed_counts) and len(r.informed_counts) == self.rounds + 1)
            for r in records
        )
        return len(records), failed, {"final_informed": [r.final_informed for r in records]}


# -- verify --------------------------------------------------------------------


class Verify:
    name = "verify"
    default_seed = 4  # criterion 4; the criterion-1 batch uses seed + 9997 (10001)
    setup_reps = 11

    def setup(self, seed: int, tiny: bool) -> dict:
        draws, sizes, states = (2_000, (64, 128), 10) if tiny else (100_000, (256, 512), 100)
        rng = seeds.rng_for(seed + 9997)
        corpus = harness.tiny_corpus()
        mc_states = []
        for _ in range(20):
            _, g = corpus[int(rng.integers(len(corpus)))]
            bits = int(rng.integers(1, 2**g.n - 1))
            informed = np.array([(bits >> v) & 1 == 1 for v in range(g.n)])
            q = float(rng.choice([0.25, 0.5, 1.0]))
            kind = list(ProtocolKind)[int(rng.integers(3))]
            mc_states.append((g, informed, q, kind))

        spectral_states = []
        for n in sizes:
            g = graphs.generate_random_regular(n, 16, seed=seeds.mix_seed(seed, n))
            lam = graphs.spectral_lambda(g).lam
            srng = seeds.rng_for(seed, n, 1)
            for _ in range(states):
                size = int(srng.integers(1, n // 2 + 1))
                informed = np.zeros(n, dtype=bool)
                informed[srng.choice(n, size=size, replace=False)] = True
                q = float(srng.choice(np.linspace(0.1, 1.0, 10)))
                spectral_states.append((g, lam, informed, size, q))
        return {
            "mc_seed": seed + 9997,
            "mc_states": mc_states,
            "draws": draws,
            "spectral_states": spectral_states,
        }

    def run_pass(self, inputs: dict, workdir: str) -> Pass:
        tiny = harness.verify_suite("tiny_exhaustive")
        sandwich = harness.verify_suite("bound_sandwich")

        worst_enum = 0.0
        enumerated = 0
        for _, g, informed, q, kind in harness.iter_tiny_instances():
            dist = protocol.enumerate_joint_distribution(kind, g, informed, q)
            exact = protocol.exact_delta_expectation(kind, g, informed, q)
            worst_enum = max(worst_enum, abs(dist.mean_size() - exact))
            enumerated += 1

        mc = []
        for i, (g, informed, q, kind) in enumerate(inputs["mc_states"]):
            rng = seeds.rng_for(inputs["mc_seed"], i)
            draws = inputs["draws"]
            sizes = np.concatenate(
                [
                    protocol.sample_delta_sizes(kind, g, informed, q, rng, min(MC_CHUNK, draws - start))
                    for start in range(0, draws, MC_CHUNK)
                ]
            )
            exact = protocol.exact_delta_expectation(kind, g, informed, q)
            mc.append((float(sizes.mean()), float(sizes.std(ddof=1) / math.sqrt(len(sizes))), exact))

        slacks = []
        for g, lam, informed, size, q in inputs["spectral_states"]:
            for kind in (ProtocolKind.PUSH, ProtocolKind.PUSH_PULL):
                lower = bounds.refined_spectral_lower(kind, q, lam, size / g.n)
                exact = protocol.exact_delta_expectation(kind, g, informed, q) / size
                slacks.append(exact - lower)

        outputs = {
            "tiny": tiny,
            "sandwich": sandwich,
            "enumerated": enumerated,
            "worst_enum": worst_enum,
            "mc": mc,
            "slacks": slacks,
        }
        parts = [
            _canonical(tiny.checks),
            _canonical(sandwich.checks),
            repr(worst_enum),
            repr(mc),
            repr(slacks),
        ]
        return Pass(
            trial_rounds=len(mc) * inputs["draws"],
            outputs=outputs,
            digest_parts=parts,
        )

    def check(self, inputs: dict, result: Pass) -> tuple[int, int, dict]:
        out = result.outputs
        tiny_count = out["tiny"].checks["instances"]["count"]
        sandwich = out["sandwich"].checks["table_sandwich"]
        failed = 0
        failed += tiny_count if not (out["tiny"].ok and tiny_count == TINY_INSTANCES) else 0
        failed += out["enumerated"] if out["worst_enum"] > 1e-12 or out["enumerated"] != TINY_INSTANCES else 0
        if sandwich["inequalities"] != SANDWICH_INEQUALITIES:
            failed += sandwich["inequalities"]
        else:
            failed += sandwich["violations"]
        failed += sum(abs(mean - exact) > 5 * se + 1e-12 for mean, se, exact in out["mc"])
        failed += sum(slack < -1e-9 for slack in out["slacks"])
        attempted = tiny_count + out["enumerated"] + sandwich["inequalities"] + len(out["mc"]) + len(out["slacks"])
        info = {
            "tiny_instances": tiny_count,
            "sandwich_inequalities": sandwich["inequalities"],
            "worst_spectral_slack": min(out["slacks"]),
        }
        return attempted, failed, info


WORKLOADS = {w.name: w for w in (Stall(), Spread(), Dynamic(), Verify())}
