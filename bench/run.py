"""matpowlab benchmark: serial experiment grids, end to end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload small-grid --seed 1 --seconds 36 --trace 0

The workload's experiments run one after another through
``matpowlab.harness.run_experiment`` with every config key at its default
except the p-window and ``seed``; ``--seed`` picks one of the program seeds
whose reference outputs are stored (``workloads.program_seed``), so the
correctness gate compares every experiment.  ``--trace 0`` repeats untraced passes for
``--seconds`` and reports end-to-end metrics; ``--trace 1`` runs pairs of
traced and untraced passes and reports per-layer metrics from the trace.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Skipped rows count as
failed operations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import ALL_EXPERIMENTS, WORKLOADS, program_seed  # noqa: E402

# One BLAS thread, pinned before setup() first imports numpy.
BLAS_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
os.environ.update(BLAS_ENV)

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
SRC = "src"
OUT_ROOT = ".bench_out"


def setup(workload: str, seed: int):
    """Import the program from ./src and build the workload's configs."""
    src = os.path.abspath(SRC)
    if not os.path.isfile(os.path.join(src, "matpowlab", "__init__.py")):
        raise SystemExit(f"bench: no matpowlab sources under {src}; "
                         "run from the root of a checkout")
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    import matpowlab
    from matpowlab.harness import ExperimentConfig

    if not os.path.abspath(matpowlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"bench: imported matpowlab from {matpowlab.__file__}")
    return [ExperimentConfig(name, p_min=lo, p_max=hi, seed=seed)
            for name, lo, hi in WORKLOADS[workload]]


# Times the program's imports and the config building only, not the
# interpreter start or the benchmark's own modules.
_SETUP_PROBE = (
    "import sys, time; sys.path.insert(0, {here!r}); import run; "
    "start = time.perf_counter(); run.setup({workload!r}, {seed}); "
    "print(time.perf_counter() - start)"
)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up time in fresh processes: imports plus config building."""
    probe = _SETUP_PROBE.format(here=HERE, workload=workload, seed=seed)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Passes:
    """Runs passes, each into a fresh output directory under ``root``.

    Rewriting files that already exist can stall on file-system block
    discards, so no pass overwrites the outputs of an earlier one.
    """

    def __init__(self, configs, root: str):
        self.configs = configs
        self.root = root
        self.count = 0
        self.digests: set[str] = set()
        self.last_out = None

    def run(self) -> float:
        """One serial pass; wall time from the first grid to the last file."""
        from matpowlab.harness import runner

        out = os.path.join(self.root, f"pass-{self.count}")
        configs = [replace(cfg, out=out) for cfg in self.configs]
        start = time.perf_counter()
        for cfg in configs:
            runner.run_experiment(cfg)
        wall = time.perf_counter() - start
        self.count += 1
        self.digests.add(output_digest(out))
        if self.last_out is not None:
            shutil.rmtree(self.last_out)
        self.last_out = out
        return wall

    @property
    def deterministic(self) -> bool:
        return len(self.digests) == 1


def output_digest(out: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    loc = {}
    tree = hashlib.sha256()
    for folder, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, "rb") as fh:
                    text = fh.read()
                loc[os.path.relpath(path, SRC)] = text.count(b"\n")
                tree.update(path.encode() + b"\0" + text)
    return {
        "git_sha": sha,
        "src_sha256": tree.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_ENV,
        "src_loc": loc,
        "src_loc_total": sum(loc.values()),
    }


def end_to_end(passes: Passes, seconds: float):
    """Untraced passes for ``seconds``; wall time is their median.

    Peak RSS is read after the first pass, as a user who runs the grid once
    sees it; later passes add allocator fragmentation that varies run to run.
    """
    walls = [passes.run()]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.perf_counter() - walls[0]
    while time.perf_counter() - start + statistics.median(walls) <= seconds:
        walls.append(passes.run())
    metrics = {"wall_s": statistics.median(walls), "peak_rss_mb": peak_kb / 1024.0}
    return metrics, {"wall_s": walls}


def traced(passes: Passes, seconds: float, spans_path: str):
    """Pairs of traced and untraced passes; per-layer metrics from the trace.

    Every pass must write the same bytes, so tracing cannot change outputs.
    """
    from matpowlab.errors import BudgetExceeded

    plain, walls, runs = [], [], []
    start = time.perf_counter()
    while not walls or (time.perf_counter() - start + statistics.median(walls)
                        + statistics.median(plain)) <= seconds:
        # Traced first: the process's cold-start cost then lands on the
        # traced pass, so the overhead reads high rather than low.
        with tracing.Tracer(BudgetExceeded) as rec:
            walls.append(passes.run())
        runs.append(rec)
        plain.append(passes.run())
    leftovers = tracing.leftover_wrappers()
    if leftovers:
        raise SystemExit(f"bench: tracer wrappers left behind: {leftovers[:5]}")
    per_run = [tracing.layer_metrics(rec, ALL_EXPERIMENTS) for rec in runs]
    metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    traced_wall, plain_wall = statistics.median(walls), statistics.median(plain)
    span_self = statistics.median(rec.total_self_s() for rec in runs)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    metrics["trace.unattributed_s"] = traced_wall - span_self
    runs[-1].dump(spans_path)
    detail = {"traced_wall_s": walls, "untraced_wall_s": plain,
              "overhead_frac_base_untraced_wall_s": plain_wall,
              "spans_per_pass": [len(rec.start) for rec in runs],
              "spans_file": spans_path,
              "method_calls_and_self_s": runs[-1].methods}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = program_seed(args.seed)
    configs = setup(args.workload, seed)
    os.makedirs(OUT_ROOT, exist_ok=True)
    out = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT)
    try:
        setup_times = [] if args.trace else measure_setup(args.workload, seed)
        print("env " + json.dumps(environment(), sort_keys=True))
        passes = Passes(configs, out)
        if args.trace:
            spans_path = os.path.join(OUT_ROOT, f"spans-{args.workload}.tsv")
            metrics, detail = traced(passes, args.seconds, spans_path)
        else:
            metrics, detail = end_to_end(passes, args.seconds)
        report = gate.check_outputs(args.workload, seed, passes.last_out,
                                    [cfg.experiment for cfg in configs])
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["computed_frac"] = (report["rows"] - report["skipped"]) / report["rows"]
        detail.update(setup_s=setup_times, computed_frac_base_rows=report["rows"])
    print("detail " + json.dumps(detail, sort_keys=True))
    print("gate " + json.dumps({"program_seed": seed, "deterministic": passes.deterministic,
                                **{k: report[k] for k in ("checked", "unchecked", "problems")}}))
    print(json.dumps({
        "correct": passes.deterministic and report["passed"],
        "attempted": report["rows"] * passes.count,
        "failed": report["skipped"] * passes.count,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


def _unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "1"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
