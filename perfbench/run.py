#!/usr/bin/env python3
"""gossipsim benchmark: one workload per run, closed loop, one client.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload stall --seed 21 --seconds 20 --trace 0

The run imports gossipsim from ``src/`` of the checkout and exits non-zero,
printing no result, when that tree is missing. It then

1. builds the workload's inputs from ``--seed`` several times and reports the
   median as ``setup_s``;
2. runs one untimed warm-up pass, then timed passes back to back until
   ``--seconds`` have passed (at least three); ``run_s`` is the mean pass time,
   and ``trial_rounds_per_s`` and ``checks_per_s`` are totals over the timed
   phase divided by its length;
3. with ``--trace 1``, sets up and runs one more pass with every traced
   gossipsim function wrapped (see ``tracer.py``) and reports the per-layer
   metrics instead of the end-to-end ones.

Every pass's outputs are checked, and every pass must give the same digest of
summaries and records. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed /
attempted`` is the workload's failed fraction. A fuller report (environment,
per-pass times, digest, check details) and, when traced, one CSV row per span
go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
MIN_PASSES = 3
WORKLOAD_NAMES = ("stall", "spread", "dynamic", "verify")

NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    cap = NPROC
    for var in BLAS_VARS:
        try:
            cap = min(cap, int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    cap = max(cap, 1)
    for var in BLAS_VARS:
        os.environ[var] = str(cap)
    return cap


def import_gossipsim():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "gossipsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gossipsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gossipsim

    if not Path(gossipsim.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported gossipsim from {gossipsim.__file__}, not from {SRC}")
    return gossipsim


def git_sha() -> str:
    """HEAD commit read from ``.git`` without running git; "unknown" outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(blas_cap: int) -> dict:
    from importlib.metadata import PackageNotFoundError, version

    import numpy

    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "gossipsim").glob("*.py"))
    )
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": NPROC,
        "blas_threads": blas_cap,
        "git_sha": git_sha(),
        "src_gossipsim_lines": src_lines,
        "load": "closed loop, one process, one client, passes back to back",
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Checks:
    """Accumulates output-check results and pass digests across a run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] = []
        self.info: dict = {}

    def record(self, inputs, result) -> int:
        """Check one pass; returns the number of items checked."""
        attempted, failed, self.info = self.workload.check(inputs, result)
        self.attempted += attempted
        self.failed += failed
        self.digests.append(result.digest())
        return attempted

    def close(self) -> None:
        """The determinism check: every pass of this run gave the same digest."""
        self.attempted += 1
        self.failed += len(set(self.digests)) != 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gossipsim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="workload seed; default is the acceptance seed: stall 21, spread 7, dynamic 3, verify 4",
    )
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    blas_cap = cap_blas_threads()
    import_gossipsim()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    checks = Checks(workload)
    try:
        setup_times = []
        for _ in range(workload.setup_reps):
            gc.collect()
            t0 = perf_counter()
            inputs = workload.setup(seed, args.tiny)
            setup_times.append(perf_counter() - t0)

        checks.record(inputs, workload.run_pass(inputs, workdir))  # warm-up
        pass_s = []
        rounds = items = 0
        started = perf_counter()
        while len(pass_s) < MIN_PASSES or perf_counter() - started < args.seconds:
            gc.collect()
            t0 = perf_counter()
            result = workload.run_pass(inputs, workdir)
            pass_s.append(perf_counter() - t0)
            rounds += result.trial_rounds
            items += checks.record(inputs, result)

        # Totals over the timed phase, not per-pass medians: on a shared host
        # the CPU runs fast and slow for tens of seconds at a time, and a mean
        # over the window moves less between runs than a median does.
        timed_s = sum(pass_s)
        values = {
            "run_s": timed_s / len(pass_s),
            "trial_rounds_per_s": rounds / timed_s,
            "checks_per_s": items / timed_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
        }
        names = {m["name"]: m["unit"] for m in spec["end_to_end"]}

        tracer = None
        if args.trace:
            tracer = Tracer(f"{args.workload}/seed={seed}")
            tracer.install()
            try:
                traced_inputs = workload.setup(seed, args.tiny)
                tracer.phase = "run"
                gc.collect()
                t0 = perf_counter()
                traced = workload.run_pass(traced_inputs, workdir)
                traced_s = perf_counter() - t0
            finally:
                tracer.uninstall()
            checks.record(traced_inputs, traced)
            names = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values = tracer.layer_metrics(names, traced_s - values["run_s"])
        checks.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "environment": environment(blas_cap),
        "samples": {"setup": len(setup_times), "passes": len(pass_s)},
        "setup_s": setup_times,
        "pass_s": pass_s,
        "digest": checks.digests[0],
        "digests_agree": len(set(checks.digests)) == 1,
        "check_info": checks.info,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": values,
    }
    stem = OUT_DIR / f"{args.workload}-seed{seed}-trace{args.trace}"
    Path(f"{stem}.json").write_text(json.dumps(report, indent=2, default=str) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write_spans(f"{stem}-spans.csv")

    print(
        f"{args.workload} seed={seed}: {len(pass_s)} passes, mean {sum(pass_s) / len(pass_s):.4f} s, "
        f"{len(setup_times)} set-ups, digest {checks.digests[0][:16]}, "
        f"failed {checks.failed}/{checks.attempted}, {checks.info}",
        file=sys.stderr,
    )
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
