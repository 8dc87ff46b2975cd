"""Byte identity of the CLI's results against another revision.

    python tools/identity.py --against REV [--out IDENTITY.json]

Extracts REV's `src/` with `git archive` into a temporary directory and
runs one fixed matrix of cases against it and against this tree's `src/`,
each case once per tree in a fresh interpreter with PYTHONHASHSEED=0 and
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS at 1 (the CLI
pins one BLAS thread itself; criterion 8's pipeline calls the library).
The matrix holds desk, minibatch and full-scale fits (f2 at n=300 reaches
width 250, where OpenBLAS's bits depend on its thread count), predict from
the desk and full-scale checkpoints, criterion 7's rate-study and a
full-scale one, diverging runs, `--help`, a fit whose options come from a
`--config` file and one flag, and criterion 8's VI-versus-Metropolis
pipeline through the library.  The closed-form commands (`design`, `check-prior`,
`covering`) and the usage errors that exit 2 before numpy loads are not in
it: they draw no random numbers and call no BLAS, and tests/test_golden.py
pins their exit codes, stdout, stderr and result files byte for byte.

For each case both trees' exit codes and the SHA-256 of stdout, stderr
and every file under the case's out-dir but `timings.txt` (wall-clock
only) are written to IDENTITY.json, with the numpy, scipy and OpenBLAS
versions, this tree's HEAD commit (`this_head`), whether its `src/` has
uncommitted changes (`this_dirty`) and the git tree id of the `src/` that
ran (`this_src_tree`), which `git rev-parse <commit>:src` matches for the
commit that records that `src/`, amended or not.  Each item that differs
is printed, and the exit code is 1 if any does, 0 if none does, and 2 if
no comparison was made (REV cannot be read, or Ctrl-C).  Training digests
depend on the BLAS build, so compare two trees on one machine, never
against a file from another.

The two trees run at the same time, each case with its own working
directory under one temporary directory that is removed on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import tarfile
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_VERSION = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SKIPPED = {"timings.txt"}  # wall-clock sidecars
CASE_TIMEOUT = 300  # seconds

FAST = ["--iterations", "60", "--learning-rate", "0.02", "--draws", "20", "--grid-points", "21"]
FULL = ["--full-scale", "--iterations", "3", "--draws", "4", "--grid-points", "11"]
DIVERGE = ["--function", "f2", "--draws", "2", "--grid-points", "2"]

# Criterion 8 through the library: a 1x4 network fitted by VI and sampled
# by Metropolis; every array it computes goes to a file under argv[1].
PIPELINE = """\
import sys
from pathlib import Path
import numpy as np
from besovbnn.mh import MHConfig, compare_vi_mh, mh_sample
from besovbnn.network import NetworkShape
from besovbnn.priors import make_density
from besovbnn.testbed import generate_dataset, tabulated_function
from besovbnn.vi import TrainConfig, posterior_predictive, train

out = Path(sys.argv[1])
out.mkdir(parents=True)
f0 = tabulated_function([0.0, 1.0], [0.5, 0.5])
data = generate_dataset(f0, 200, 0.1, seed=0)
tiny = NetworkShape(d_in=1, hidden_widths=(4,))
prior = make_density("gauss", sigma=1.0)
state, trace = train(tiny, data, prior,
                     TrainConfig(iterations=2000, learning_rate=0.01, seed=0), sigma=0.1)
grid = np.linspace(0.0, 1.0, 101)
summary = posterior_predictive(state, tiny, grid, 400, f0, data, seed=1)
res = mh_sample(tiny, data, prior, 0.1,
                MHConfig(steps=30_000, burn_in=10_000, proposal_sd=0.05, seed=2))
arrays = {"mu": state.mu, "rho": state.rho, "trace": trace, "mean": summary.mean,
          "lower": summary.lower, "upper": summary.upper, "errors": summary.errors,
          "chain": res.chain}
for name, a in arrays.items():
    (out / f"{name}.f8").write_bytes(np.ascontiguousarray(a, dtype="<f8").tobytes())
print(res.acceptance_rate, res.proposal_sd)
print(sorted(compare_vi_mh(summary.mean, res, grid, tolerance=0.1).items()))
"""


# A desk fit whose options come from a --config file written into the
# working directory, one of them overridden by a flag; results go to argv[1].
CONFIG_FIT = """\
import json, sys
from besovbnn.cli import main

with open("config-fit.json", "w") as fh:
    json.dump({"function": "f1", "n": "150", "seed": 5, "iterations": 90,
               "learning-rate": 0.02, "draws": 20, "grid_points": 21, "batch_size": 16}, fh)
sys.exit(main(["--config", "config-fit.json", "fit", "--iterations", "60",
               "--out-dir", sys.argv[1]]))
"""


def matrix() -> list[dict]:
    """The cases in run order, each {"name", "argv", "out_dir"}: argv follows
    the interpreter, and out_dir, relative to the case's working directory,
    is where its result files go.  A predict case reads the checkpoint of a
    fit listed before it."""
    cli = {
        # fits, then predict from their checkpoints
        "fit-desk-f2": ["fit", "--function", "f2", "--n", "100", "--seed", "3", *FAST],
        "fit-desk-f1": ["fit", "--function", "f1", "--n", "100", "--seed", "4", *FAST],
        "fit-minibatch": ["fit", "--function", "f1", "--n", "200", "--batch-size", "16", *FAST],
        "fit-full": ["fit", "--function", "f2", "--n", "100", *FULL],
        "fit-full-f2-300": ["fit", "--function", "f2", "--n", "300", "--full-scale",
                            "--iterations", "2", "--draws", "2", "--grid-points", "11"],
        "fit-full-minibatch": ["fit", "--function", "f2", "--n", "100", "--batch-size", "16",
                               *FULL],
        "predict-desk": ["predict", "--function", "f2", "--n", "100", "--seed", "3",
                         "--draws", "20", "--grid-points", "21",
                         "--checkpoint", "out/fit-desk-f2/checkpoint"],
        "predict-full": ["predict", "--function", "f2", "--n", "100", "--draws", "4",
                         "--grid-points", "11", "--checkpoint", "out/fit-full/checkpoint"],
        # criterion 7's command, and the full-scale stacks at small n
        "rate-study-criterion-7": ["rate-study", "--function", "f2", "--n", "100,300,1000",
                                   "--replicates", "5", "--iterations", "600",
                                   "--learning-rate", "0.01", "--draws", "50", "--seed", "0"],
        "rate-study-full": ["rate-study", "--function", "f2", "--full-scale",
                            "--n", "20,40,80", "--replicates", "3", "--iterations", "2",
                            "--draws", "2"],
        # training that diverges: exit 1 with one line
        "diverge-fit": ["fit", "--n", "20", "--iterations", "5", "--learning-rate", "1e10",
                        *DIVERGE],
        "diverge-fit-last-update": ["fit", "--n", "4", "--iterations", "1",
                                    "--learning-rate", "1e200", *DIVERGE],
        "diverge-full": ["fit", "--n", "20", "--full-scale", "--iterations", "2",
                         "--learning-rate", "1e200", *DIVERGE],
        "diverge-rate-study": ["rate-study", "--function", "f2", "--n", "4,5,6",
                               "--replicates", "1", "--iterations", "1",
                               "--learning-rate", "1e200", "--draws", "2"],
        # argparse wraps help text to the terminal's width, so it runs here
        "help": ["--help"],
        "help-fit": ["fit", "--help"],
    }
    cases = []
    for name, argv in cli.items():
        out_dir = f"out/{name}"
        if "--help" not in argv:  # --help writes no files
            argv = [*argv, "--out-dir", out_dir]
        cases.append({"name": name, "argv": ["-m", "besovbnn.cli", *argv], "out_dir": out_dir})
    cases.append({"name": "config-fit", "argv": ["-c", CONFIG_FIT, "out/config-fit"],
                  "out_dir": "out/config-fit"})
    cases.append({"name": "criterion-8-pipeline", "argv": ["-c", PIPELINE, "out/criterion-8"],
                  "out_dir": "out/criterion-8"})
    return cases


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _env(src: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0",
            **dict.fromkeys(THREAD_VARS, "1")}


def _run(argv, cwd: Path, env: dict) -> tuple[int | str, bytes, bytes]:
    """Run the interpreter on argv in its own process group, which is
    killed afterwards: all of it after a timeout or Ctrl-C, and any worker
    left behind otherwise."""
    proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CASE_TIMEOUT)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        rc = "timeout"
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    if rc == "timeout":
        out, err = proc.communicate()
    return rc, out, err


def run_lane(src: Path, work: Path, cases, stop: threading.Event) -> dict:
    """Run the cases in order on the package in src, in the working
    directory work, until `stop` is set; returns
    {name: {"exit", "digests"}}, the digests keyed "stdout", "stderr" and
    each result file's path relative to work."""
    env = _env(src)
    work.mkdir(parents=True)
    results = {}
    for case in cases:
        if stop.is_set():
            break
        rc, out, err = _run(case["argv"], work, env)
        digests = {"stdout": _sha(out), "stderr": _sha(err)}
        out_dir = work / case["out_dir"]
        if out_dir.is_dir():
            for path in sorted(out_dir.rglob("*")):
                if path.is_file() and path.name not in SKIPPED:
                    digests[path.relative_to(work).as_posix()] = _sha(path.read_bytes())
        results[case["name"]] = {"exit": rc, "digests": digests}
    return results


def extract(rev: str, dest: Path) -> str:
    """Extract REV's src/ into dest with `git archive`; returns its commit."""
    def git(*args) -> bytes:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True)
        if proc.returncode:
            raise ValueError(f"git {args[0]} {rev}: {proc.stderr.decode().strip()}")
        return proc.stdout

    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit, "src"))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def versions(src: Path) -> dict:
    """Python, numpy, scipy and OpenBLAS versions, and the file of the
    besovbnn package that src puts on the path."""
    program = (
        "import json, platform, numpy, scipy, besovbnn\n"
        "try:\n"
        "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "    blas = f\"{blas['name']} {blas['version']}\"\n"
        "except Exception:\n"
        "    blas = 'unknown'\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,\n"
        "                  'scipy': scipy.__version__, 'openblas': blas,\n"
        "                  'package': besovbnn.__file__}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", program], env=_env(src),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def this_tree() -> dict:
    """This checkout's HEAD commit, whether its src/ has uncommitted
    changes (if it has, the run checked a change, not HEAD against itself)
    and the tree id of src/ as it is, the one a commit of every change
    under src/ records: HEAD:src for a clean src/.  The tree is written
    through a temporary index, so the checkout's own index is left alone."""
    def git(*args, env=None) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                              env=env and {**os.environ, **env}).stdout.strip()

    with tempfile.TemporaryDirectory(prefix="identity-index-") as tmp:
        index = {"GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("read-tree", "HEAD", env=index)
        git("add", "--all", "--", "src", env=index)
        tree = git("write-tree", "--prefix=src/", env=index)
    return {"this_head": git("rev-parse", "HEAD"),
            "this_dirty": bool(git("status", "--porcelain", "--", "src")),
            "this_src_tree": tree}


def compare(this: dict, against: dict) -> tuple[list[str], int]:
    """The items that differ between two trees' runs of one matrix, both
    keyed by case name, one line each, and the number of items compared."""
    differences, compared = [], 0
    for key in sorted(this):
        a, b = this[key], against[key]
        compared += 1
        if a["exit"] != b["exit"]:
            differences.append(f"{key}: exit {a['exit']} here, {b['exit']} at the revision")
        for item in sorted(set(a["digests"]) | set(b["digests"])):
            compared += 1
            if item not in a["digests"] or item not in b["digests"]:
                side = "here" if item in a["digests"] else "at the revision"
                differences.append(f"{key}: {item} written only {side}")
            elif a["digests"][item] != b["digests"][item]:
                differences.append(f"{key}: {item} differs")
    return differences, compared


def report(path: Path, header: dict, cases, this: dict, against: dict) -> int:
    """Write IDENTITY.json at path and print each difference; returns the
    exit code, 1 if any item differs."""
    differences, compared = compare(this, against)
    record = {
        "schema_version": SCHEMA_VERSION,
        **header,
        "skipped": sorted(SKIPPED),
        "cases": {case["name"]: case["argv"] for case in cases},
        "this": this,
        "against": against,
        "items_compared": compared,
        "differences": differences,
    }
    path.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
    for line in differences:
        print(f"differs: {line}")
    print(f"identity: {len(this)} runs here, {len(against)} at the revision, "
          f"{compared} items compared, {len(differences)} differ")
    return 1 if differences else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="the git revision to compare this tree's src/ with")
    parser.add_argument("--out", type=Path, default=Path("IDENTITY.json"),
                        help="where to write the record (default: IDENTITY.json)")
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    cases = matrix()
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        tmp = Path(tmp)
        try:
            commit = extract(args.against, tmp / "against")
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        trees = {"this": ROOT / "src", "against": tmp / "against" / "src"}
        found = {side: versions(src) for side, src in trees.items()}
        for side, src in trees.items():
            if not Path(found[side].pop("package")).is_relative_to(src):
                print(f"error: the {side} tree's package is not imported from {src}",
                      file=sys.stderr)
                return 2
        # The cases run in their own sessions, out of reach of Ctrl-C, so on
        # Ctrl-C each lane stops after the case it is running.
        stop = threading.Event()
        with ThreadPoolExecutor(len(trees)) as pool:
            try:
                runs = list(pool.map(lambda side: run_lane(
                    trees[side], tmp / "runs" / side, cases, stop), trees))
            except KeyboardInterrupt:
                stop.set()
                print("error: interrupted", file=sys.stderr)
                return 2
    header = {"against_rev": args.against, "against_commit": commit, **this_tree(),
              "versions": found["this"], "wall_s": round(time.monotonic() - t0, 1)}
    rc = report(args.out, header, cases, *runs)  # this tree's, then the revision's
    print(f"identity: wall time {header['wall_s']} s")
    return rc


if __name__ == "__main__":
    sys.exit(main())
