"""Command-line orchestration: design tables, fit/evaluate experiments, prior
condition checks, covering bounds, and contraction-rate studies.

Subcommands: design, fit, predict, check-prior, rate-study, covering.
Exit codes: 0 success, 1 runtime failure or Ctrl-C, 2 invalid arguments.  FLAGS
declares each option once with its range and default, and COMMANDS the
options each command reads, so a command rejects a flag it would ignore;
every rejection is one 'error:' line and exit 2.  --config, given before the
command, names a JSON file of flag defaults.  argv is parsed once, into only
the options it gives; each option of the command that argv leaves out takes
the file's value, else its default, and counts as given if the file gives
it.  Each file value goes through its option's own argparse action, so a
rejection reads like the flag's with "config key '<key>':" in its place.
Faults in argv are named first, then unknown keys, then an option the file
names twice (as 'grid-points' and 'grid_points', or one key repeated), then
the first rejected value in file order; --help does not read the file.
Every command is deterministic; fit, predict and rate-study draw their
randomness from --seed, and fit records the derived seeds in its manifest.
Parsing the command line loads only the standard library: `design`,
numpy, `testbed`, `vi`, `network` and `priors` are imported inside the
functions that compute, after their argument checks, and fit, predict and
rate-study build their true function there too.  So --help, every rejected
flag or --config value, every usage error of fit, predict and rate-study
and `covering` with explicit --L/--W/--S/--B/--delta load no numpy.
scipy.special loads only where a value needs it: in check-prior's tail
masses, in a spike scale that is not floored at machine epsilon, and in the
mixture prior's two-component branch, which a designed fit leaves empty.
So fit, design and rate-study at a designed geometry load no scipy.
Plot emission is data-only (CSV); figures are left to external tooling.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

from . import DENSITY_NAMES

SCHEMA_VERSION = 1
DESK_MAX_PARAMS = 100_000
MAX_REPLICATES = 100  # rate-study's replicates per sample size
# A command runs on one BLAS thread: OpenBLAS's bits depend on its thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Each built-in target's smoothness class, as `design.SmoothnessSpec`
# keywords, and the name of its true function's factory in `testbed`.
BUILTIN_FUNCTIONS = {
    "f1": (dict(s=math.log(2) / math.log(3)), "cantor_function"),
    "f2": (dict(s=1.5, p=1.0, q=1.0), "log_singular_function"),
}


class ArgumentError(Exception):
    """Invalid arguments; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises ArgumentError in place of printing its
    usage and exiting.  A value that a flag's type or choices reject reads
    '<flag> <what is wrong>', such as '--alpha must lie in (0, 1), got 2.0'.
    No abbreviations: `fit --s` must not be read as `--seed`."""

    def __init__(self, **kwargs):
        super().__init__(exit_on_error=False, allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        try:
            return super().parse_known_args(args, namespace)
        except argparse.ArgumentError as exc:
            raise ArgumentError(f"{exc.argument_name} {exc.message}") from None

    def error(self, message):
        raise ArgumentError(message)


def _flag_type(convert, rule: str, ok, low, high=math.inf):
    """A flag type: `convert` the text, then reject a value that fails `ok`
    with 'must <rule>, got <value>'.  The type keeps its range's bounds as
    `low` and `high` for tests that probe them."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must {rule}, got {value}")
        return value

    parse.__name__ = convert.__name__  # argparse's 'invalid float value' names it
    parse.low, parse.high = low, high
    return parse


def _real(low: float, closed: bool = False, high: float = math.inf):
    """A float above `low` (at least `low` when `closed`) and below `high`,
    so finite; NaN fails every comparison."""
    if high == math.inf:
        rule = f"be finite and {'at least' if closed else 'above'} {low:g}"
    else:
        rule = f"lie in {'[' if closed else '('}{low:g}, {high:g})"
    return _flag_type(float, rule, lambda v: (v >= low if closed else v > low) and v < high,
                      low, high)


def _count(low: int, high: float = math.inf):
    """An integer of at least `low` and at most `high`."""
    rule = f"be at least {low}" if high == math.inf else f"lie in [{low}, {high}]"
    return _flag_type(int, rule, lambda v: low <= v <= high, low, high)


def _sizes(text: str) -> list[int]:
    """The --n type: comma-separated sample sizes, each at least 2, in
    strictly increasing order.  How many of them a command takes is that
    command's rule."""
    try:
        ns = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        ns = []
    if not ns or ns[0] < 2 or any(a >= b for a, b in zip(ns, ns[1:])):
        raise argparse.ArgumentTypeError(
            f"must list sample sizes of at least 2 in increasing order, got {text!r}")
    return ns


def _single_n(args) -> int:
    if len(args.n) != 1:
        raise ArgumentError(f"{args.command} takes a single sample size")
    return args.n[0]


_SMOOTHNESS = ("--s", "--p", "--q", "--d", "--m")


def _dest(option: str) -> str:
    return option[2:].replace("-", "_")


def _given(args, options) -> list[str]:
    """The `options` given on the command line or in --config."""
    return [o for o in options if _dest(o) in args.given]


def _exclusive(args, first: list[str], second: list[str]) -> None:
    """Reject given options of both lists, each named as the user gave it:
    the flag, or the config key it came from."""
    def named(options):
        return "/".join(f"config key {_dest(o)!r}" if _dest(o) in args.from_config else o
                        for o in options)

    if first and second:
        raise ArgumentError(f"{named(first)} cannot be combined with {named(second)}")


def _spec(args):
    """The smoothness class (a `design.SmoothnessSpec`) of a built-in
    --function or, without one, of --s/--p/--q/--d/--m."""
    from . import design as dz
    given = _given(args, _SMOOTHNESS)
    if args.function:
        _exclusive(args, ["--function"], given)
        return dz.SmoothnessSpec(**BUILTIN_FUNCTIONS[args.function][0])
    if "--s" not in given:
        raise ArgumentError("give either --function or explicit --s/--p/--q/--d/--m")
    values = {_dest(o): getattr(args, _dest(o)) for o in given}
    try:
        return dz.SmoothnessSpec(**values)
    except ValueError as exc:
        raise ArgumentError(str(exc)) from exc


def _builtin(args) -> str:
    """The name of the `testbed` factory of the true function of the
    built-in --function, which fit, predict and rate-study require; `_spec`
    gives its smoothness class."""
    if not args.function:
        raise ArgumentError(f"{args.command} requires a built-in --function (f1 or f2)")
    return BUILTIN_FUNCTIONS[args.function][1]


def _out_dir(args) -> Path:
    """The --out-dir directory, created if missing."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write_json(path: Path, obj) -> str:
    """Write obj to path as strict JSON (RFC 8259) and return the text: the
    first pass reads each non-finite float (-Infinity, Infinity, NaN) as null."""
    obj = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    path.write_text(text)
    return text


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _design(spec, n: int, args):
    """The designed architecture and its mixture hyperparameters at sample
    size n, from the --cB, --K0 and --counting flags."""
    from . import design as dz
    arch = dz.design_architecture(spec, n, args.cB)
    return arch, dz.mixture_hyperparams(arch, K0=args.K0, counting=args.counting)


def cmd_design(args) -> int:
    from dataclasses import asdict
    spec = _spec(args)
    records = []
    csv_rows = []
    for n in args.n:
        arch, mix = _design(spec, n, args)
        # Every field of the three specs but K0, a flag; mix.B is arch.B.
        records.append({"schema_version": SCHEMA_VERSION, **asdict(spec), **asdict(arch),
                        **{k: v for k, v in asdict(mix).items() if k != "K0"}})
        log10_s1 = mix.log_sigma1 / math.log(10.0)
        sigma1_linear = math.exp(mix.log_sigma1) if mix.log_sigma1 > -700 else 0.0
        csv_rows.append([n, arch.L, arch.W, sigma1_linear, mix.sigma2, mix.pi1, mix.pi2])
        print(
            f"n={n}  L={arch.L}  W={arch.W}  "
            f"sigma1=10^{log10_s1:.3f}  sigma2={mix.sigma2:.4f}  "
            f"pi1={mix.pi1:.4f}  pi2={mix.pi2:.4f}"
        )
    out_dir = _out_dir(args)
    _write_json(out_dir / "design.json", {"schema_version": SCHEMA_VERSION, "rows": records})
    _write_csv(out_dir / "design.csv",
               ["n", "L_n", "W_n", "sigma_1n", "sigma_2n", "pi_1n", "pi_2n"], csv_rows)
    return 0


def _designed_model(spec, n, args):
    """The designed mixture prior for sample size n and the network shape:
    the designed geometry with --full-scale, else its desk-scale reduction."""
    from . import design as dz, priors
    from .network import NetworkShape

    arch, mix = _design(spec, n, args)
    prior = priors.make_density("mixture", mixture_spec=mix)
    if args.full_scale and arch.T > DESK_MAX_PARAMS:
        print(
            f"warning: full-scale network has {arch.T} parameters; "
            "expect a long runtime",
            file=sys.stderr,
        )
    widths = [arch.W] * arch.L if args.full_scale else dz.desk_scale_widths(arch)
    return prior, NetworkShape(d_in=spec.d, hidden_widths=widths)


def _train_config(args, seed: int):
    from . import vi

    # A --batch-size of n or more trains on the full batch, as 0 does.
    return vi.TrainConfig(
        iterations=args.iterations,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        seed=seed,
    )


def _predictive_seed(args) -> int:
    """The seed of the predictive draws of fit and predict."""
    return args.seed + 10_000


def _write_predictive(out_dir: Path, state, shape, f0, data, args):
    """Summarize q on the grid and write predictive.csv; returns the summary."""
    import numpy as np

    from . import vi

    grid = np.linspace(0.0, 1.0, args.grid_points)
    summary = vi.posterior_predictive(
        state, shape, grid, args.draws, f0, data, alpha=args.alpha,
        seed=_predictive_seed(args),
    )
    _write_csv(out_dir / "predictive.csv", ["x", "mean", "lo", "hi"],
               zip(grid.tolist(), summary.mean.tolist(),
                   summary.lower.tolist(), summary.upper.tolist()))
    return summary


def cmd_fit(args) -> int:
    factory = _builtin(args)
    n = _single_n(args)
    from . import testbed, vi  # once the arguments are accepted

    f0 = getattr(testbed, factory)()
    prior, shape = _designed_model(_spec(args), n, args)
    out_dir = _out_dir(args)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": "fit",
        "function": args.function,
        "n": n,
        "seed": args.seed,
        "derived_seeds": {"dataset": args.seed, "train": args.seed,
                          "predictive": _predictive_seed(args)},
        # every option fit reads but those recorded above and --out-dir
        "config": {_dest(o): getattr(args, _dest(o)) for o in COMMANDS["fit"][3]
                   if o not in ("--seed", "--out-dir")},
        "status": "pending",
    }
    # A fit that fails after this leaves its outputs marked unfinished.
    _write_json(out_dir / "manifest.json", manifest)
    t0 = time.monotonic()
    data = testbed.generate_dataset(f0, n, args.noise_sd, args.seed)
    try:
        state, trace = vi.train(shape, data, prior, _train_config(args, args.seed),
                                sigma=args.noise_sd)
    except vi.TrainingDiverged as exc:
        manifest["status"] = f"diverged: {exc}"
        _write_json(out_dir / "manifest.json", manifest)
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1

    vi.save_checkpoint(out_dir / "checkpoint", state, shape)
    summary = _write_predictive(out_dir, state, shape, f0, data, args)
    elapsed = time.monotonic() - t0
    _write_csv(out_dir / "errors.csv", ["empirical_error"],
               [[e] for e in summary.errors.tolist()])
    _write_csv(out_dir / "trace.csv", ["iteration", "objective"], enumerate(trace.tolist()))
    manifest["status"] = "ok"
    manifest["shape"] = shape.to_dict()
    manifest["median_error"] = summary.median_error()
    _write_json(out_dir / "manifest.json", manifest)
    # Wall-clock goes to a sidecar so result files stay byte-identical per seed.
    (out_dir / "timings.txt").write_text(f"fit_seconds={elapsed:.3f}\n")
    print(f"fit done: median empirical error {summary.median_error():.4f}")
    return 0


def cmd_predict(args) -> int:
    if args.checkpoint is None:
        raise ArgumentError("predict requires --checkpoint")
    checkpoint = Path(args.checkpoint)
    if not checkpoint.name:
        raise ArgumentError(f"checkpoint file not found: {args.checkpoint!r} names no file")
    for path in (checkpoint.with_suffix(".json"), checkpoint.with_suffix(".bin")):
        if not path.is_file():
            raise ArgumentError(f"checkpoint file not found: {path}")
    factory = _builtin(args)
    n = _single_n(args)
    manifest = checkpoint.parent / "manifest.json"  # fit writes one beside its checkpoint
    if manifest.is_file():
        try:
            record = json.loads(manifest.read_text())
        except ValueError:
            record = None
        if not isinstance(record, dict):
            raise ValueError(f"{manifest} is not a JSON object")
        if record.get("status") != "ok":
            raise RuntimeError(f"checkpoint {checkpoint} is from an unfinished fit: "
                               f"{manifest} has status {record.get('status')!r}")
    from . import testbed, vi  # once the arguments and the manifest are accepted

    f0 = getattr(testbed, factory)()
    state, shape = vi.load_checkpoint(checkpoint)
    data = testbed.generate_dataset(f0, n, args.noise_sd, args.seed)
    summary = _write_predictive(_out_dir(args), state, shape, f0, data, args)
    print(f"predict done: median empirical error {summary.median_error():.4f}")
    return 0


def cmd_check_prior(args) -> int:
    from . import design as dz, priors

    spec = _spec(args)
    reports = []
    all_pass = True
    for n in args.n:
        arch, mix = _design(spec, n, args)
        g = priors.make_density(args.density, mixture_spec=mix, B=arch.B)
        report = dz.check_shrinkage_conditions(g, arch, K0=args.K0, counting=args.counting)
        reports.append({"n": n, **report.to_dict()})
        all_pass &= report.all_pass
    out = {"schema_version": SCHEMA_VERSION, "density": args.density,
           "reports": reports, "all_pass": all_pass}
    print(_write_json(_out_dir(args) / "condition_report.json", out), end="")
    return 0 if all_pass else 1


def fit_rate_slope(ns, errors) -> float:
    """Least-squares slope of log error against log n."""
    import numpy as np

    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if np.any(errors <= 0):
        raise ValueError("errors must be positive for the log-log fit")
    slope, _ = np.polyfit(np.log(ns), np.log(errors), 1)
    return float(slope)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _largest_first(tasks):
    """The results of the zero-argument callables `tasks`, in their order.

    The last task, assumed the longest, runs in the calling process and the
    others, last first, on a pool of forked worker processes, so that
    min(len(tasks), usable CPUs) run at once.  The workers inherit the tasks
    at the fork, so only results and exceptions are pickled, and ignore
    SIGINT, which reaches the caller alone.  An exception of the calling
    process's task, or else the first of the others' in task order, reaches
    the caller; a worker that dies raises BrokenProcessPool.  An error or
    interrupt cancels the tasks not yet started, and no worker outlives the
    call.  Without the fork start method the tasks run in order on the
    calling thread."""
    import multiprocessing

    workers = min(len(tasks), _usable_cpus())
    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [task() for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    # The pool hands each worker one call more than it runs, which
    # cancel_futures cannot take back: each call checks `stop` first.
    stop = context.Event()
    with ProcessPoolExecutor(workers - 1, context, _start_worker, (tasks, stop)) as pool:
        try:
            futures = [pool.submit(_run_in_worker, i)
                       for i in reversed(range(len(tasks) - 1))][::-1]
            last = tasks[-1]()
            return [f.result() for f in futures] + [last]
        except BaseException:
            stop.set()
            pool.shutdown(cancel_futures=True)
            raise


_worker = None  # (tasks, stop event) in a worker of _largest_first


def _start_worker(tasks, stop) -> None:
    import signal

    global _worker
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker = tasks, stop


def _run_in_worker(index):
    tasks, stop = _worker
    return None if stop.is_set() else tasks[index]()


def _rate_study_errors(factory: str, n, prior, shape, args) -> list[float]:
    """The posterior-mean errors of rate-study's converged replicates at n,
    for the true function of the `testbed` factory named `factory`.

    The replicates share everything but their seed, so they train together
    as one stack, each as its own fit would.  Each call uses only its own
    seeds, data and buffers, so calls at several n may run concurrently."""
    import numpy as np

    from . import testbed, vi

    seeds = [args.seed + 1000 * r + n for r in range(args.replicates)]
    f0 = getattr(testbed, factory)()
    datasets = [testbed.generate_dataset(f0, n, args.noise_sd, s) for s in seeds]
    fits = vi.train_replicates(shape, datasets, prior,
                               [_train_config(args, s) for s in seeds],
                               sigma=args.noise_sd)
    errors = []
    for seed, data, fit in zip(seeds, datasets, fits):
        if isinstance(fit, vi.TrainingDiverged):
            continue
        state, _ = fit
        fx_true = np.asarray(f0(data.x[:, 0]), dtype=float)
        mean_fn = vi.posterior_predictive(state, shape, data.x, args.draws, f0, data,
                                          seed=seed + 20_000).mean
        errors.append(float(testbed.empirical_norm(mean_fn - fx_true)))
    return errors


def cmd_rate_study(args) -> int:
    factory = _builtin(args)
    if len(args.n) < 3:
        raise ArgumentError("rate-study needs at least 3 sample sizes")
    import numpy as np

    spec = _spec(args)
    # Models first, on this thread, so --full-scale warnings come in n order.
    models = [_designed_model(spec, n, args) for n in args.n]
    out_dir = _out_dir(args)
    errors = _largest_first([functools.partial(_rate_study_errors, factory, n, prior, shape, args)
                             for n, (prior, shape) in zip(args.n, models)])
    per_n = []
    for n, rep_errors in zip(args.n, errors):
        if not rep_errors:
            raise RuntimeError(f"all replicates diverged at n={n}")
        per_n.append({"n": n, "median_error": float(np.median(rep_errors)),
                      "replicates": len(rep_errors)})
    failures = args.replicates * len(args.n) - sum(r["replicates"] for r in per_n)
    slope = fit_rate_slope([r["n"] for r in per_n],
                           [r["median_error"] for r in per_n])
    theoretical = -spec.s / (2 * spec.s + spec.d)
    result = {
        "schema_version": SCHEMA_VERSION,
        "per_n": per_n,
        "fitted_slope": slope,
        "theoretical_slope": theoretical,
        "diverged_replicates": failures,
    }
    _write_json(out_dir / "rate_study.json", result)
    _write_csv(out_dir / "rate_study.csv", ["n", "median_error"],
               [[r["n"], r["median_error"]] for r in per_n])
    print(f"fitted slope {slope:.4f} (theoretical {theoretical:.4f})")
    return 0


def cmd_covering(args) -> int:
    from . import design as dz
    derived = _given(args, ("--function", *_SMOOTHNESS))
    _exclusive(args, _given(args, ("--L", "--W", "--S", "--B")),
               derived or _given(args, ("--n", "--cB")))  # which an explicit geometry ignores
    if derived:
        spec = _spec(args)
        arch = dz.design_architecture(spec, _single_n(args), args.cB)
        L, W, S, B = arch.L, arch.W, arch.S, arch.B
        delta = args.delta if args.delta is not None else arch.eps / 36.0
        n_eps_sq = arch.n_eps_sq
    else:
        if None in (args.L, args.W, args.S, args.B, args.delta):
            raise ArgumentError("give --function/--n or all of --L --W --S --B --delta")
        L, W, S, B, delta = args.L, args.W, args.S, args.B, args.delta
        n_eps_sq = None
    if args.a is not None:  # an inadmissible --a exits 2 before any line is printed
        try:
            tb = dz.covering_bound_truncated(L, W, S, B, args.a, delta)
        except dz.TruncationThresholdError as exc:
            raise ArgumentError(str(exc)) from exc
    bound = dz.covering_bound(L, W, S, B, delta)
    print(f"covering bound: {bound:.6g}")
    if n_eps_sq is not None:
        print(f"n eps^2: {n_eps_sq:.6g}  ratio bound/(n eps^2): {bound / n_eps_sq:.6g}")
    if args.a is not None:
        print(f"truncated covering bound: {tb:.6g}")
    return 0


# Every option, declared once with its range and default (None if it names none).
FLAGS = {
    "--n": dict(type=_sizes),
    "--function": dict(choices=sorted(BUILTIN_FUNCTIONS)),
    "--s": dict(type=float),
    "--p": dict(type=float),
    "--q": dict(type=float),
    "--d": dict(type=int),
    "--m": dict(type=int),
    "--cB": dict(type=_real(0.0), default=10.0),
    "--K0": dict(type=_real(4.0), default=5.0),
    "--counting": dict(choices=["canonical", "compat"], default="canonical"),
    "--density": dict(choices=DENSITY_NAMES, default="mixture"),
    "--iterations": dict(type=_count(1), default=2000),
    "--batch-size": dict(type=_count(0), default=0),
    "--learning-rate": dict(type=_real(0.0), default=0.01),
    "--full-scale": dict(action="store_true", default=False),
    "--noise-sd": dict(default=0.1, type=_flag_type(
        float, "be positive with a positive finite square",
        lambda v: v > 0.0 and 0.0 < v * v < math.inf, low=0.0)),
    "--draws": dict(type=_count(2), default=200),
    "--alpha": dict(type=_real(0.0, high=1.0), default=0.05),
    "--grid-points": dict(type=_count(1), default=101),
    "--seed": dict(type=_count(0), default=0),
    "--replicates": dict(type=_count(1, MAX_REPLICATES), default=5),
    "--checkpoint": dict(),
    "--out-dir": dict(default="out"),
    "--L": dict(type=_count(1)),
    "--W": dict(type=_count(1)),
    "--S": dict(type=_count(1)),
    "--B": dict(type=_real(0.0)),
    "--a": dict(type=_real(0.0, closed=True)),
    "--delta": dict(type=_real(0.0)),
}

_DESIGN = ("--cB", "--K0", "--counting")
_TRAIN = ("--iterations", "--batch-size", "--learning-rate", "--full-scale", "--noise-sd",
          "--draws")

# Each subcommand's handler, help and default --n, and the options it reads
# besides --n and --function, which every command takes.
COMMANDS = {
    "design": (cmd_design, "emit architecture/prior tables", [100, 1000],
               (*_SMOOTHNESS, *_DESIGN, "--out-dir")),
    "fit": (cmd_fit, "generate data, train VI, summarize", [100],
            (*_DESIGN, *_TRAIN, "--alpha", "--grid-points", "--seed", "--out-dir")),
    "predict": (cmd_predict, "posterior predictive from a checkpoint", [100],
                ("--noise-sd", "--draws", "--alpha", "--grid-points", "--seed",
                 "--checkpoint", "--out-dir")),
    "check-prior": (cmd_check_prior, "shrinkage-condition report", [100, 1000],
                    (*_SMOOTHNESS, *_DESIGN, "--density", "--out-dir")),
    "rate-study": (cmd_rate_study, "empirical contraction-rate slope", [100, 300, 1000],
                   (*_DESIGN, *_TRAIN, "--seed", "--replicates", "--out-dir")),
    "covering": (cmd_covering, "covering-number bounds", [100],
                 (*_SMOOTHNESS, "--cB", "--L", "--W", "--S", "--B", "--a", "--delta")),
}


def build_parser() -> argparse.ArgumentParser:
    """The besovbnn parser; a command's namespace holds only the options argv gives."""
    parser = _Parser(prog="besovbnn",
                     description="Bayesian ReLU-network regression on Besov targets")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON object of flag defaults; explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in ("--n", "--function", *options):
            p.add_argument(option, **{**FLAGS[option], "default": argparse.SUPPRESS})
    return parser


def _config_value(flags: argparse.ArgumentParser, option: str, key: str, value):
    """Convert a config value as `flags`, a parser of every FLAGS entry,
    converts `option` given that value on the command line."""
    if option == "--full-scale":
        if not isinstance(value, bool):
            raise ArgumentError(f"config key {key!r} must be true or false")
        argv = [option] if value else []
    elif value is None or isinstance(value, (bool, list, dict)):
        raise ArgumentError(f"config key {key!r} must be a number or a string")
    else:
        argv = [f"{option}={value}"]
    try:
        return getattr(flags.parse_args(argv), _dest(option))
    except argparse.ArgumentError as exc:
        raise ArgumentError(f"config key {key!r}: {exc.message}") from None


def _read_config(path: Path) -> dict:
    """The config file's values by option dest, each converted once by its
    option's argparse action.  Keys may use - or _, but name each option
    once."""
    objects = []  # each JSON object's (key, value) pairs; the file's own comes last
    try:
        config = json.loads(path.read_text(),
                            object_pairs_hook=lambda pairs: objects.append(pairs) or dict(pairs))
    except (OSError, ValueError) as exc:
        raise ArgumentError(f"bad config file: {exc}") from exc
    if not isinstance(config, dict):
        raise ArgumentError("bad config file: expected a JSON object")
    options = {_dest(o): o for o in FLAGS}
    dests = {k: k.replace("-", "_") for k in config}
    unknown = sorted(k for k, dest in dests.items() if dest not in options)
    if unknown:
        raise ArgumentError(f"config keys no command takes: {', '.join(unknown)}")
    keys = [k for k, _ in objects[-1]]
    for dest in dict.fromkeys(dests[k] for k in keys):  # in file order
        named = [k for k in keys if dests[k] == dest]
        if len(named) > 1:
            raise ArgumentError(f"config file gives {options[dest]} more than once: "
                                + ", ".join(named))
    flags = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
    for option, kwargs in FLAGS.items():
        flags.add_argument(option, **kwargs)
    return {dests[k]: _config_value(flags, options[dests[k]], k, v) for k, v in config.items()}


def main(argv=None) -> int:
    if "numpy" not in sys.modules:  # else BLAS is loaded already, and its caller owns it
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        args = build_parser().parse_args(argv)
        config = {} if args.config is None else _read_config(args.config)
        given = set(vars(args))
        args.from_config = config.keys() - given
        args.given = given | args.from_config
        handler, _, n, options = COMMANDS[args.command]
        for option in ("--n", "--function", *options):  # argv, else the file, else the default
            dest, default = _dest(option), n if option == "--n" else FLAGS[option].get("default")
            setattr(args, dest, getattr(args, dest, config.get(dest, default)))
        return handler(args)
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, RuntimeError, OSError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"failure: out of memory: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("failure: interrupted", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
