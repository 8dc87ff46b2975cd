"""Command-line orchestration: design tables, fit/evaluate experiments, prior
condition checks, covering bounds, and contraction-rate studies.

Subcommands: design, fit, predict, check-prior, rate-study, covering.
Exit codes: 0 success, 1 runtime failure, 2 invalid arguments.  FLAGS
declares each option once with its range and default, and COMMANDS the
options each command reads, so a command rejects a flag it would ignore and
--config values get the same checks; every rejection is one 'error:' line
and exit 2.  Every command is deterministic; fit, predict and rate-study
draw their randomness from --seed, and fit records the derived seeds in its
manifest.
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import design as dz
from . import priors, testbed, vi
from .network import NetworkShape

SCHEMA_VERSION = 1
DESK_MAX_PARAMS = 100_000

# Each built-in target's smoothness class and true function.
BUILTIN_FUNCTIONS = {
    "f1": (dz.SmoothnessSpec(s=math.log(2) / math.log(3), p=math.inf, q=math.inf, d=1, m=2),
           testbed.cantor_function),
    "f2": (dz.SmoothnessSpec(s=1.5, p=1.0, q=1.0, d=1, m=2), testbed.log_singular_function),
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


def _count(low: int):
    """An integer of at least `low`."""
    return _flag_type(int, f"be at least {low}", lambda v: v >= low, low)


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
_SMOOTHNESS_DEFAULTS = dict(p=math.inf, q=math.inf, d=1, m=2)


def _dest(option: str) -> str:
    return option[2:].replace("-", "_")


def _given(args, options) -> list[str]:
    """The `options` given on the command line or in --config."""
    return [o for o in options if getattr(args, _dest(o)) is not None]


def _exclusive(first: list[str], second: list[str]) -> None:
    if first and second:
        raise ArgumentError(f"{'/'.join(first)} cannot be combined with {'/'.join(second)}")


def _spec(args) -> dz.SmoothnessSpec:
    """The smoothness class of a built-in --function or, without one, of
    --s/--p/--q/--d/--m."""
    given = _given(args, _SMOOTHNESS)
    if args.function:
        _exclusive(["--function"], given)
        return BUILTIN_FUNCTIONS[args.function][0]
    if args.s is None:
        raise ArgumentError("give either --function or explicit --s/--p/--q/--d/--m")
    values = {_dest(o): getattr(args, _dest(o)) for o in given}
    try:
        return dz.SmoothnessSpec(**{**_SMOOTHNESS_DEFAULTS, **values})
    except ValueError as exc:
        raise ArgumentError(str(exc)) from exc


def _builtin(args) -> tuple[dz.SmoothnessSpec, object]:
    """The smoothness class and true function of the built-in --function,
    which fit, predict and rate-study require."""
    if not args.function:
        raise ArgumentError(f"{args.command} requires a built-in --function (f1 or f2)")
    spec, function = BUILTIN_FUNCTIONS[args.function]
    return spec, function()


def _out_dir(args) -> Path:
    """The --out-dir directory, created if missing."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _design(spec: dz.SmoothnessSpec, n: int, args):
    """The designed architecture and its mixture hyperparameters at sample
    size n, from the --cB, --K0 and --counting flags."""
    arch = dz.design_architecture(spec, n, args.cB)
    return arch, dz.mixture_hyperparams(arch, K0=args.K0, counting=args.counting)


def cmd_design(args) -> int:
    spec = _spec(args)
    # An infinite p or q is written as null.
    smoothness = {k: None if math.isinf(v) else v for k, v in asdict(spec).items()}
    records = []
    csv_rows = []
    for n in args.n:
        arch, mix = _design(spec, n, args)
        # Every field of the three specs but K0, a flag; mix.B is arch.B.
        records.append({"schema_version": SCHEMA_VERSION, **smoothness, **asdict(arch),
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


def _train_config(args, seed: int) -> vi.TrainConfig:
    # A --batch-size of n or more trains on the full batch, as 0 does.
    return vi.TrainConfig(
        iterations=args.iterations,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        seed=seed,
    )


def _write_predictive(out_dir: Path, state, shape, f0, data, args):
    """Summarize q on the grid and write predictive.csv; returns the summary."""
    grid = np.linspace(0.0, 1.0, args.grid_points)
    summary = vi.posterior_predictive(
        state, shape, grid, args.draws, f0, data, alpha=args.alpha,
        seed=args.seed + 10_000,
    )
    _write_csv(out_dir / "predictive.csv", ["x", "mean", "lo", "hi"],
               zip(summary.grid.tolist(), summary.mean.tolist(),
                   summary.lower.tolist(), summary.upper.tolist()))
    return summary


def cmd_fit(args) -> int:
    spec, f0 = _builtin(args)
    n = _single_n(args)
    prior, shape = _designed_model(spec, n, args)
    out_dir = _out_dir(args)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": "fit",
        "function": args.function,
        "n": n,
        "seed": args.seed,
        "derived_seeds": {"dataset": args.seed, "train": args.seed,
                          "predictive": args.seed + 10_000},
        # every option fit reads but those recorded above and --out-dir
        "config": {_dest(o): getattr(args, _dest(o)) for o in COMMANDS["fit"][3]
                   if o not in ("--seed", "--out-dir")},
        "status": "pending",
    }
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
    for path in (checkpoint.with_suffix(".json"), checkpoint.with_suffix(".bin")):
        if not path.is_file():
            raise ArgumentError(f"checkpoint file not found: {path}")
    _, f0 = _builtin(args)
    n = _single_n(args)
    state, shape = vi.load_checkpoint(checkpoint)
    data = testbed.generate_dataset(f0, n, args.noise_sd, args.seed)
    summary = _write_predictive(_out_dir(args), state, shape, f0, data, args)
    print(f"predict done: median empirical error {summary.median_error():.4f}")
    return 0


def cmd_check_prior(args) -> int:
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
    _write_json(_out_dir(args) / "condition_report.json", out)
    print(json.dumps(out, sort_keys=True, indent=2))
    return 0 if all_pass else 1


def fit_rate_slope(ns, errors) -> float:
    """Least-squares slope of log error against log n."""
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

    The last task, assumed the longest, runs on the calling thread and the
    others, last first, on a pool of threads, so that min(len(tasks),
    usable CPUs) run at once.  An exception of the calling thread's task, or
    else the first of the others' in task order, reaches the caller; an error
    or interrupt cancels the tasks not yet started."""
    workers = min(len(tasks), _usable_cpus())
    if workers == 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(workers - 1) as pool:
        try:
            futures = [pool.submit(task) for task in reversed(tasks[:-1])][::-1]
            last = tasks[-1]()
            return [f.result() for f in futures] + [last]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _rate_study_errors(f0, n, prior, shape, args) -> list[float]:
    """The posterior-mean errors of rate-study's converged replicates at n.

    The replicates share everything but their seed, so they train together
    as one stack, each as its own fit would.  Each call uses only its own
    seeds, data and buffers, so calls at several n may run concurrently."""
    seeds = [args.seed + 1000 * r + n for r in range(args.replicates)]
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
    spec, f0 = _builtin(args)
    if len(args.n) < 3:
        raise ArgumentError("rate-study needs at least 3 sample sizes")
    # Models first, on this thread, so --full-scale warnings come in n order.
    models = [_designed_model(spec, n, args) for n in args.n]
    out_dir = _out_dir(args)
    errors = _largest_first([functools.partial(_rate_study_errors, f0, n, prior, shape, args)
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
    derived = _given(args, ("--function", *_SMOOTHNESS))
    _exclusive(_given(args, ("--L", "--W", "--S", "--B")), derived)
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
    bound = dz.covering_bound(L, W, S, B, delta)
    print(f"covering bound: {bound:.6g}")
    if n_eps_sq is not None:
        print(f"n eps^2: {n_eps_sq:.6g}  ratio bound/(n eps^2): {bound / n_eps_sq:.6g}")
    if args.a is not None:
        try:
            tb = dz.covering_bound_truncated(L, W, S, B, args.a, delta)
        except dz.TruncationThresholdError as exc:
            raise ArgumentError(str(exc)) from exc
        print(f"truncated covering bound: {tb:.6g}")
    return 0


# Every option, declared once with its range and default: None where none is
# given, so that a given option can be told from one left out.
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
    "--density": dict(choices=priors.DENSITY_NAMES, default="mixture"),
    "--iterations": dict(type=_count(1), default=2000),
    "--batch-size": dict(type=_count(0), default=0),
    "--learning-rate": dict(type=_real(0.0), default=0.01),
    "--full-scale": dict(action="store_true"),
    "--noise-sd": dict(default=0.1, type=_flag_type(
        float, "be positive with a positive finite square",
        lambda v: v > 0.0 and 0.0 < v * v < math.inf, low=0.0)),
    "--draws": dict(type=_count(2), default=200),
    "--alpha": dict(type=_real(0.0, high=1.0), default=0.05),
    "--grid-points": dict(type=_count(1), default=101),
    "--seed": dict(type=_count(0), default=0),
    "--replicates": dict(type=_count(1), default=5),
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
    "design": (cmd_design, "emit architecture/prior tables", "100,1000",
               (*_SMOOTHNESS, *_DESIGN, "--out-dir")),
    "fit": (cmd_fit, "generate data, train VI, summarize", "100",
            (*_DESIGN, *_TRAIN, "--alpha", "--grid-points", "--seed", "--out-dir")),
    "predict": (cmd_predict, "posterior predictive from a checkpoint", "100",
                ("--noise-sd", "--draws", "--alpha", "--grid-points", "--seed",
                 "--checkpoint", "--out-dir")),
    "check-prior": (cmd_check_prior, "shrinkage-condition report", "100,1000",
                    (*_SMOOTHNESS, *_DESIGN, "--density", "--out-dir")),
    "rate-study": (cmd_rate_study, "empirical contraction-rate slope", "100,300,1000",
                   (*_DESIGN, *_TRAIN, "--seed", "--replicates", "--out-dir")),
    "covering": (cmd_covering, "covering-number bounds", "100",
                 (*_SMOOTHNESS, "--cB", "--L", "--W", "--S", "--B", "--a", "--delta")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="besovbnn",
        description="Bayesian ReLU-network regression on Besov targets",
        parents=[_config_parser()],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, n, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n", default=n, **FLAGS["--n"])
        for option in ("--function", *options):
            p.add_argument(option, **FLAGS[option])
        p.set_defaults(func=func)
    return parser


def _config_parser() -> argparse.ArgumentParser:
    """The --config option alone, so main can read it before the full parse."""
    p = _Parser(add_help=False)
    p.add_argument("--config", type=Path, default=None,
                   help="JSON object of flag defaults; explicit flags win")
    return p


def _config_value(action: argparse.Action, key: str, value):
    """Convert a config value as the command line would convert it."""
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise ArgumentError(f"config key {key!r} must be true or false")
        return value
    if value is None or isinstance(value, (bool, list, dict)):
        raise ArgumentError(f"config key {key!r} must be a number or a string")
    try:
        value = action.type(str(value)) if action.type else str(value)
    except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
        raise ArgumentError(f"config key {key!r}: {exc}") from exc
    if action.choices is not None and value not in action.choices:
        raise ArgumentError(f"config key {key!r}: {value!r} is not one of {action.choices}")
    return value


def _apply_config(parser: argparse.ArgumentParser, path: Path) -> None:
    """Make the config file's values the defaults of every subcommand that
    declares them, so explicit flags win in any spelling.  Keys may use - or
    _; a key that no subcommand declares is an error."""
    try:
        config = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ArgumentError(f"bad config file: {exc}") from exc
    if not isinstance(config, dict):
        raise ArgumentError("bad config file: expected a JSON object")
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    declared = set()
    for sub in subparsers.values():
        actions = {a.dest: a for a in sub._actions if a.option_strings and a.dest != "help"}
        defaults = {}
        for key, value in config.items():
            action = actions.get(key.replace("-", "_"))
            if action is not None:
                defaults[action.dest] = _config_value(action, key, value)
        declared.update(defaults)
        sub.set_defaults(**defaults)
    unknown = sorted(k for k in config if k.replace("-", "_") not in declared)
    if unknown:
        raise ArgumentError(f"config keys no command takes: {', '.join(unknown)}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        config = _config_parser().parse_known_args(argv)[0].config
        if config is not None:
            _apply_config(parser, config)
        args = parser.parse_args(argv)
        return args.func(args)
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
