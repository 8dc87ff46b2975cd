"""One pass of a benchmark workload, run in a fresh interpreter by run.py.

usage: python3 perfbench/child.py --workload NAME --seed N --trace 0|1
                                  --tmp DIR --result FILE

Every pass gets its own interpreter, as every CLI call does: state a pass
leaves in the process (allocator thresholds, warm caches) would otherwise
make later passes faster than anything a user runs.  With --trace 1 every
public function of the seven modules is wrapped by the tracer for the pass.
The pass time, result values, result-file digests, peak RSS, checks and
spans go to --result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import besovbnn
from besovbnn import cli, design, mh, network, priors, testbed, vi

import tracer as tracing

SRC = Path(__file__).resolve().parent.parent / "src"

MODULES = {"testbed": testbed, "design": design, "priors": priors, "network": network,
           "vi": vi, "mh": mh, "cli": cli}

# Result files of each workload are hashed; the wall-clock sidecar is not a
# result file.
UNHASHED = {"timings.txt"}

VI_MH_TOLERANCE = 0.1

_TRAINING_SPANS = ["testbed.generate_dataset", "testbed.true_function",
                   "priors.log_density_sum", "priors.grad_log_pdf",
                   "network.loglik_and_grad", "network.forward", "network.from_flat",
                   "vi.train", "vi.elbo_gradient", "vi.softplus"]
_CLI_SPANS = ["cli.main", "design.design_architecture", "design.mixture_hyperparams"]

# Spans each workload must reach; a traced pass that records no call for one
# of them means the patch map missed a lookup site.
EXPECTED_SPANS = {
    "desk-acceptance": _TRAINING_SPANS + _CLI_SPANS + [
        "vi.posterior_predictive", "mh.mh_sample", "mh.compare_vi_mh"],
    "full-scale-fit": _TRAINING_SPANS + _CLI_SPANS + [
        "vi.posterior_predictive", "vi.save_checkpoint", "vi.load_checkpoint"],
}


class Checks:
    """Counts operations attempted and failed; keeps the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok


def _cli(checks: Checks, argv) -> bool:
    rc = cli.main([str(a) for a in argv])
    return checks.check(rc == 0, f"exit code {rc} from besovbnn {argv[0]}")


def desk_rate_study(seed: int, out: Path, checks: Checks) -> dict:
    """Criterion-7 rate study: f2 at n = 100, 300, 1000, 5 replicates each."""
    replicates = 5
    ns = [100, 300, 1000]
    if not _cli(checks, ["rate-study", "--function", "f2", "--n", ",".join(map(str, ns)),
                         "--replicates", replicates, "--iterations", 600,
                         "--learning-rate", 0.01, "--draws", 50,
                         "--seed", seed, "--out-dir", out]):
        return {}
    result = json.loads((out / "rate_study.json").read_text())
    diverged = result["diverged_replicates"]
    checks.attempted += replicates * len(ns)
    checks.failed += diverged
    if diverged:
        checks.messages.append(f"{diverged} diverged rate-study replicates")
    per_n = result["per_n"]
    checks.check([r["n"] for r in per_n] == ns
                 and all(math.isfinite(r["median_error"]) and r["median_error"] > 0
                         for r in per_n), "rate_study.json rows")
    return {"median_error": per_n[-1]["median_error"], "fitted_slope": result["fitted_slope"]}


def full_scale_fit(seed: int, out: Path, checks: Checks) -> dict:
    """f2 at n = 100 on the designed L=13, W=200 network, then predict from
    the checkpoint the fit wrote."""
    common = ["--function", "f2", "--n", 100, "--draws", 20, "--seed", seed]
    if not _cli(checks, ["fit", *common, "--full-scale", "--iterations", 30,
                         "--out-dir", out]):
        return {}
    manifest = json.loads((out / "manifest.json").read_text())
    checks.check(manifest["status"] == "ok", f"fit status {manifest['status']!r}")
    if not _cli(checks, ["predict", *common, "--checkpoint", out / "checkpoint",
                         "--out-dir", out / "predict"]):
        return {}
    # Same data, draws and seed: predicting from the checkpoint must reproduce
    # the fit's own predictive table byte for byte.
    checks.check((out / "predict" / "predictive.csv").read_bytes()
                 == (out / "predictive.csv").read_bytes(),
                 "predict from checkpoint differs from the fit's predictive.csv")
    return {"median_error": manifest["median_error"]}


def mh_crosscheck(seed: int, out: Path, checks: Checks) -> dict:
    """Criterion-8 pipeline: VI and Metropolis on a 1x4 network, constant target."""
    f0 = testbed.tabulated_function([0.0, 1.0], [0.5, 0.5])
    data = testbed.generate_dataset(f0, 200, 0.1, seed)
    shape = network.NetworkShape(d_in=1, hidden_widths=(4,))
    prior = priors.make_density("gauss", sigma=1.0)
    state, trace = vi.train(shape, data, prior,
                            vi.TrainConfig(iterations=2000, learning_rate=0.01, seed=seed),
                            sigma=0.1)
    grid = np.linspace(0.0, 1.0, 101)
    summary = vi.posterior_predictive(state, shape, grid, 400, f0, data, seed=seed + 1)
    chain = mh.mh_sample(shape, data, prior, 0.1,
                         mh.MHConfig(steps=30_000, burn_in=10_000, proposal_sd=0.05,
                                     seed=seed + 2))
    result = mh.compare_vi_mh(summary.mean, chain, grid, tolerance=VI_MH_TOLERANCE)
    (out / "vi_state.bin").write_bytes(np.concatenate([state.mu, state.rho, trace]).tobytes())
    (out / "vi_mean.bin").write_bytes(summary.mean.tobytes())
    (out / "mh_chain.bin").write_bytes(chain.chain.tobytes())
    (out / "compare.json").write_text(json.dumps(
        {**result, "acceptance_rate": chain.acceptance_rate, "proposal_sd": chain.proposal_sd},
        sort_keys=True))
    checks.check(result["max_abs_diff"] <= VI_MH_TOLERANCE,
                 f"VI-MH max difference {result['max_abs_diff']} above {VI_MH_TOLERANCE}")
    return {"vi_mh_max_diff": result["max_abs_diff"]}


def desk_acceptance(seed: int, out: Path, checks: Checks) -> dict:
    """The two desk-scale acceptance pipelines, criterion 7 then criterion 8.

    They share one workload because the Metropolis part alone is bound by
    per-call interpreter overhead, and its time swings too much between runs
    on a shared host to be compared on its own.
    """
    (out / "mh").mkdir()
    return {**desk_rate_study(seed, out / "rate", checks),
            **mh_crosscheck(seed, out / "mh", checks)}


WORKLOADS = {"desk-acceptance": desk_acceptance, "full-scale-fit": full_scale_fit}


def digests(out: Path) -> dict:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name not in UNHASHED}


def run_pass(workload: str, seed: int, tmp: Path, checks: Checks):
    """One timed pass in a fresh output directory; returns
    (seconds, result values, digests, bytes written)."""
    out = Path(tempfile.mkdtemp(prefix="pass-", dir=tmp))
    try:
        t0 = perf_counter()
        values = WORKLOADS[workload](seed, out, checks)
        seconds = perf_counter() - t0
        files = [p for p in out.rglob("*") if p.is_file()]
        return seconds, values, digests(out), sum(p.stat().st_size for p in files)
    finally:
        shutil.rmtree(out)


def layer_metrics(tr: tracing.Tracer, bytes_written: int) -> dict:
    """Per-layer figures of one traced pass; layers a workload does not reach
    read 0."""
    m = {}
    for name in ("priors.log_density_sum", "priors.grad_log_pdf", "network.loglik_and_grad",
                 "network.forward", "network.from_flat", "vi.elbo_gradient", "vi.softplus",
                 "vi.posterior_predictive", "testbed.generate_dataset"):
        m[f"{name}.calls"] = tr.stat(name, 0)
        m[f"{name}.s"] = tr.stat(name, 1)
    for name in ("vi.train", "vi.save_checkpoint", "vi.load_checkpoint", "mh.mh_sample",
                 "mh.compare_vi_mh", "design.design_architecture",
                 "design.mixture_hyperparams", "testbed.true_function"):
        m[f"{name}.s"] = tr.stat(name, 1)
    m["vi.train.self_s"] = tr.stat("vi.train", 2)
    m["vi.elbo_gradient.self_s"] = tr.stat("vi.elbo_gradient", 2)
    m["cli.main.self_s"] = tr.stat("cli.main", 2)
    c = tr.counters
    prior_s = m["priors.log_density_sum.s"] + m["priors.grad_log_pdf.s"]
    m["priors.coords_per_s"] = c["priors.coords"] / prior_s if prior_s else 0.0
    ll_calls, ll_s = m["network.loglik_and_grad.calls"], m["network.loglik_and_grad.s"]
    m["network.loglik_and_grad.gflops"] = (
        c["network.loglik_and_grad.flops"] / ll_s / 1e9 if ll_s else 0.0)
    steps = c["vi.train.steps"]
    m["network.loglik_and_grad.calls_per_step"] = (
        c["network.loglik_and_grad.in_train"] / steps if steps else 0.0)
    m["network.loglik_and_grad.grad_used_frac"] = (
        c["network.loglik_and_grad.grad_used"] / ll_calls if ll_calls else 0.0)
    m["network.from_flat.bytes"] = c["network.from_flat.bytes"]
    m["vi.train.step_ms"] = 1e3 * m["vi.train.s"] / steps if steps else 0.0
    m["vi.save_checkpoint.bytes"] = c["vi.save_checkpoint.bytes"]
    m["vi.load_checkpoint.bytes"] = c["vi.load_checkpoint.bytes"]
    m["mh.step_us"] = 1e6 * m["mh.mh_sample.s"] / c["mh.steps"] if c["mh.steps"] else 0.0
    m["mh.acceptance_rate"] = tr.values.get("mh.acceptance_rate", 0.0)
    m["cli.bytes_written"] = bytes_written if tr.stat("cli.main", 0) else 0
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    checks = Checks()
    checks.check(Path(besovbnn.__file__).resolve().parent.parent == SRC,
                 f"besovbnn imported from {besovbnn.__file__}, not from {SRC}")
    report = {}
    if args.trace:
        tr = tracing.Tracer()
        try:
            with tracing.patched(tr, tracing.patch_map(MODULES)):
                seconds, values, dig, written = run_pass(args.workload, args.seed,
                                                         args.tmp, checks)
        except tracing.PatchError as exc:
            checks.check(False, f"tracer patch map: {exc}")
            seconds, values, dig, written = 0.0, {}, {}, 0
        for span in EXPECTED_SPANS[args.workload]:
            checks.check(tr.stat(span, 0) > 0, f"coverage: span {span} recorded no call")
        report["layers"] = layer_metrics(tr, written)
    else:
        seconds, values, dig, written = run_pass(args.workload, args.seed, args.tmp, checks)

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    report.update(
        seconds=seconds, values=values, digests=dig,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env={"numpy": np.__version__, "scipy": scipy.__version__,
             "blas": f"{blas.get('name')} {blas.get('version')}"},
        attempted=checks.attempted, failed=checks.failed, messages=checks.messages)
    args.result.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
