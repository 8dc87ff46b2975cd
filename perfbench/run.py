"""besovbnn benchmark: one workload per call, run from the repository root.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):
  desk-acceptance  besovbnn rate-study at the criterion-7 setting (15 desk fits),
                   then the criterion-8 VI / Metropolis pipeline through the API
  full-scale-fit   besovbnn fit --full-scale for f2 at n=100, then predict

Each pass of the workload runs in a fresh child interpreter
(perfbench/child.py) with the package imported from ./src, as each CLI call
does, so its time, peak RSS and imports are its own.  With --trace 0 this
repeats passes for --seconds (at least two) and prints the end-to-end
metrics: run_s (median pass wall time, imports excluded), setup_s (median
time for a fresh interpreter to import besovbnn.cli and build its parser)
and peak_rss_mb.  With --trace 1 it runs one untraced and one traced pass
and prints the per-layer metrics of the traced one, each module's import
time, the tracing overhead, and the pass's result values.  The last line of
standard output is the JSON result; the lines before it, prefixed '#',
record the environment, the pass times, the result values and the SHA-256
of every result file.

BLAS and OpenMP run one thread in every child (OPENBLAS_NUM_THREADS and
friends are set in the child environment only).  Scratch output goes to
.bench_tmp/ under the repository root and is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("desk-acceptance", "full-scale-fit")
MODULES = ("testbed", "design", "priors", "network", "vi", "mh", "cli")
BLAS_THREADS = "1"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
TIME_LIMIT_S = 170.0  # the whole call, set-up probes and child included
SLOPE_TOLERANCE = -0.1  # criterion 7's tolerance on the rate-study slope

SETUP_PROGRAM = "import besovbnn.cli as c; c.build_parser()"
IMPORT_PROGRAM = "import besovbnn.cli, besovbnn.mh"


class BenchError(Exception):
    """The benchmark could not produce a result; exit 1 without one."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"  # same dict layout in every child
    return env


def run_child(argv, env, deadline, **kwargs) -> subprocess.CompletedProcess:
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError("time limit reached before " + " ".join(argv[:3]))
    try:
        return subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                              timeout=remaining, **kwargs)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(argv[:3])}") from exc


def setup_seconds(env, deadline) -> list[float]:
    """Wall time of fresh interpreters importing besovbnn.cli and building
    the parser; the first call also writes bytecode and is not kept."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        proc = run_child(["-c", SETUP_PROGRAM], env, deadline, capture_output=True, text=True)
        dt = perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError("importing besovbnn.cli failed:\n" + proc.stderr)
        if i:
            times.append(dt)
    return times


def import_seconds(env, deadline) -> dict:
    """Cumulative import time of each besovbnn module from `python -X
    importtime` (median of a few fresh interpreters).  A module's figure
    includes the dependencies it was first to import."""
    samples = {m: [] for m in MODULES}
    for _ in range(IMPORTTIME_REPEATS):
        proc = run_child(["-X", "importtime", "-c", IMPORT_PROGRAM], env, deadline,
                         capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError("importing besovbnn failed:\n" + proc.stderr)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2].startswith("besovbnn."):
                name = parts[2].removeprefix("besovbnn.")
                if name in samples:
                    samples[name].append(int(parts[1]) * 1e-6)
    missing = [m for m, v in samples.items() if len(v) != IMPORTTIME_REPEATS]
    if missing:
        raise BenchError("no import time for " + ", ".join(missing))
    return {m: statistics.median(v) for m, v in samples.items()}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_pass(args, env, deadline, tmp, trace: int) -> dict:
    """One pass in a fresh child interpreter; returns the child's report."""
    result_file = tmp / "result.json"
    proc = run_child([str(HERE / "child.py"), "--workload", args.workload,
                      "--seed", str(args.seed), "--trace", str(trace), "--tmp", str(tmp),
                      "--result", str(result_file)],
                     env, deadline, stdout=sys.stderr)
    if proc.returncode != 0:
        raise BenchError(f"workload child exited with code {proc.returncode}")
    report = json.loads(result_file.read_text())
    result_file.unlink()
    return report


def bench(args) -> int:
    deadline = perf_counter() + TIME_LIMIT_S
    if not (ROOT / "src" / "besovbnn" / "cli.py").is_file():
        raise BenchError(f"no besovbnn sources under {ROOT / 'src'}")
    env = child_env()
    attempted = failed = 0
    messages = []
    metrics = {}
    if args.trace:
        imports = import_seconds(env, deadline)
        attempted += IMPORTTIME_REPEATS
        for module, seconds in imports.items():
            metrics[f"{module}.import_s"] = {"value": seconds, "unit": "s"}
    else:
        setup = setup_seconds(env, deadline)
        attempted += SETUP_REPEATS + 1

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    reports = []
    try:
        # Untraced passes while the next one is expected to end in time, at
        # least two so that the result digests are compared; one before a
        # traced pass, which must reproduce its digests.
        t_start = perf_counter()
        while True:
            reports.append(run_pass(args, env, deadline, tmp, trace=0))
            if args.trace:
                reports.append(run_pass(args, env, deadline, tmp, trace=1))
                break
            elapsed = perf_counter() - t_start
            if len(reports) >= 2 and elapsed * (1 + 1 / len(reports)) > args.seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    first = reports[0]
    for report in reports:
        attempted += report["attempted"]
        failed += report["failed"]
        messages += report["messages"]
    for report in reports[1:]:
        attempted += 1
        if report["digests"] != first["digests"]:
            failed += 1
            messages.append("result digests differ from the first pass")
    for message in messages:
        print(f"check failed: {message}", file=sys.stderr)
    values = first["values"]
    env_record = {"nproc": os.cpu_count(), "cpu": cpu_model(), "python": platform.python_version(),
                  "blas_threads": BLAS_THREADS,
                  "writes_bytecode": not sys.flags.dont_write_bytecode, **first["env"]}
    print("# env " + json.dumps(env_record, sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} passes "
          + json.dumps([r["seconds"] for r in reports]))
    if "fitted_slope" in values:
        values["slope_within_criterion_7_tolerance"] = values["fitted_slope"] < SLOPE_TOLERANCE
    print("# values " + json.dumps(values, sort_keys=True))
    print("# digests " + json.dumps(first["digests"], sort_keys=True))

    if args.trace:
        traced = reports[1]
        units = {"calls": "count", "s": "s", "self_s": "s", "bytes": "B", "gflops": "GFLOP/s",
                 "coords_per_s": "1/s", "calls_per_step": "calls/step",
                 "grad_used_frac": "fraction", "step_ms": "ms", "step_us": "us",
                 "acceptance_rate": "fraction", "bytes_written": "B"}
        for name, value in traced["layers"].items():
            metrics[name] = {"value": value, "unit": units[name.rsplit(".", 1)[1]]}
        metrics["trace.overhead_s"] = {"value": traced["seconds"] - first["seconds"],
                                       "unit": "s"}
        metrics["result.median_error"] = {"value": values.get("median_error", 0.0),
                                          "unit": "rms"}
        metrics["result.fitted_slope"] = {"value": values.get("fitted_slope", 0.0),
                                          "unit": "dlog/dlog"}
        metrics["result.vi_mh_max_diff"] = {"value": values.get("vi_mh_max_diff", 0.0),
                                            "unit": "abs"}
    else:
        metrics["run_s"] = {"value": statistics.median(r["seconds"] for r in reports),
                            "unit": "s"}
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": max(r["peak_rss_mb"] for r in reports), "unit": "MB"}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        return bench(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
