import argparse
import csv
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import besovbnn
from besovbnn import design as dz
from besovbnn import priors, testbed, vi
from besovbnn.cli import build_parser, fit_rate_slope, main
from besovbnn.network import NetworkShape

# A numpy warning would leak onto the CLI's one-line stderr.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


FAST_FIT = [
    "--iterations", "60",
    "--learning-rate", "0.02",
    "--draws", "20",
    "--grid-points", "21",
    "--noise-sd", "0.1",
]


def option_actions(command):
    """The actions of the options a subcommand's parser declares, in order."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return [a for a in subparsers.choices[command]._actions
            if a.option_strings and a.dest != "help"]


def options(command):
    return [a.option_strings[0] for a in option_actions(command)]


def fast_fit(command):
    """The flags of FAST_FIT that `command` declares."""
    declared = options(command)
    return [arg for flag, value in zip(FAST_FIT[::2], FAST_FIT[1::2]) if flag in declared
            for arg in (flag, value)]


class TestDesign:
    def test_table_rows(self, tmp_path, capsys):
        rc = main(["design", "--function", "f1", "--n", "100,1000",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "design.csv")
        assert rows[0] == ["n", "L_n", "W_n", "sigma_1n", "sigma_2n", "pi_1n", "pi_2n"]
        assert [rows[1][0], rows[1][1], rows[1][2]] == ["100", "13", "400"]
        assert [rows[2][0], rows[2][1], rows[2][2]] == ["1000", "15", "1100"]
        assert float(rows[1][4]) == pytest.approx(0.8443, rel=2e-4)
        obj = json.loads((tmp_path / "design.json").read_text())
        assert obj["rows"][0]["S"] == 240008
        out = capsys.readouterr().out
        assert "sigma1=10^" in out

    def test_f2_rows(self, tmp_path):
        rc = main(["design", "--function", "f2", "--n", "100,1000",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "design.csv")
        assert [rows[1][1], rows[1][2]] == ["13", "200"]
        assert [rows[2][1], rows[2][2]] == ["17", "300"]

    def test_invalid_smoothness_exits_2(self, tmp_path):
        rc = main(["design", "--s", "0.2", "--p", "1", "--q", "1",
                   "--d", "1", "--m", "2", "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_bad_n_list_exits_2(self, tmp_path):
        rc = main(["design", "--function", "f1", "--n", "1000,100",
                   "--out-dir", str(tmp_path)])
        assert rc == 2


class TestFit:
    def test_outputs_and_determinism(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            rc = main(["fit", "--function", "f1", "--n", "50", "--seed", "7",
                       "--out-dir", str(d), *FAST_FIT])
            assert rc == 0
        for name in ("manifest.json", "predictive.csv", "errors.csv",
                     "trace.csv", "checkpoint.bin", "checkpoint.json"):
            a = (dirs[0] / name).read_bytes()
            b = (dirs[1] / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"
        manifest = json.loads((dirs[0] / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["derived_seeds"]["dataset"] == 7
        assert (dirs[0] / "timings.txt").exists()
        rows = read_csv(dirs[0] / "predictive.csv")
        assert rows[0] == ["x", "mean", "lo", "hi"]
        assert len(rows) == 22

    def test_seed_changes_output(self, tmp_path):
        for seed, d in (("1", "a"), ("2", "b")):
            rc = main(["fit", "--function", "f1", "--n", "50", "--seed", seed,
                       "--out-dir", str(tmp_path / d), *FAST_FIT])
            assert rc == 0
        a = (tmp_path / "a" / "predictive.csv").read_bytes()
        b = (tmp_path / "b" / "predictive.csv").read_bytes()
        assert a != b

    def test_requires_builtin_function(self, tmp_path):
        rc = main(["fit", "--s", "1.5", "--p", "1", "--q", "1",
                   "--out-dir", str(tmp_path), *FAST_FIT])
        assert rc == 2


class TestDrawsValidation:
    @pytest.mark.parametrize("command", ["fit", "predict", "rate-study"])
    def test_single_draw_exits_2_before_training(self, tmp_path, monkeypatch, command):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("besovbnn.vi.train", no_training)
        monkeypatch.setattr("besovbnn.vi.train_replicates", no_training)
        argv = [command, "--function", "f2", "--out-dir", str(tmp_path / "out"),
                *fast_fit(command), "--draws", "1"]
        if command == "predict":
            argv += ["--checkpoint", str(tmp_path / "missing")]
        if command == "rate-study":
            argv += ["--n", "20,40,80", "--replicates", "1"]
        assert main(argv) == 2
        assert not (tmp_path / "out").exists()

    def test_single_draw_from_config_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr("besovbnn.vi.train", lambda *a, **k: pytest.fail("trained"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"draws": 1}))
        assert main(["--config", str(cfg), "fit", "--function", "f1",
                     "--out-dir", str(tmp_path / "out")]) == 2


BAD_FLAGS = [
    ("--alpha", "1.5"), ("--alpha", "0"), ("--alpha", "1"), ("--alpha", "nan"),
    ("--grid-points", "0"),
    ("--iterations", "0"),
    ("--learning-rate", "0"), ("--learning-rate", "-0.01"), ("--learning-rate", "nan"),
    ("--learning-rate", "inf"),
    ("--batch-size", "-1"),
    ("--noise-sd", "0"), ("--noise-sd", "nan"), ("--noise-sd", "inf"),
    ("--noise-sd", "1e200"), ("--noise-sd", "1e-200"),  # squares overflow and underflow
    ("--seed", "-1"),
]


class TestFlagValidation:
    # A command rejects a bad value of a flag it declares, and the flag
    # itself, whatever its value, when it does not declare it.
    @pytest.mark.parametrize("command", ["fit", "predict", "rate-study"])
    @pytest.mark.parametrize("flag, value", BAD_FLAGS)
    def test_exits_2_before_data_or_training(self, tmp_path, monkeypatch, capsys,
                                             command, flag, value):
        def not_reached(*args, **kwargs):
            raise AssertionError("data generated or training started")

        monkeypatch.setattr("besovbnn.testbed.generate_dataset", not_reached)
        monkeypatch.setattr("besovbnn.vi.train", not_reached)
        monkeypatch.setattr("besovbnn.vi.train_replicates", not_reached)
        argv = [command, "--function", "f2", "--out-dir", str(tmp_path / "out"),
                *fast_fit(command), flag, value]
        if command == "predict":
            argv += ["--checkpoint", str(tmp_path / "missing")]
        if command == "rate-study":
            argv += ["--n", "20,40,80", "--replicates", "1"]
        assert main(argv) == 2
        expected = (f"error: {flag} must" if flag in options(command)
                    else f"error: unrecognized arguments: {flag} {value}\n")
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestPredict:
    def test_from_checkpoint(self, tmp_path):
        fit_dir = tmp_path / "fit"
        rc = main(["fit", "--function", "f2", "--n", "50", "--seed", "3",
                   "--out-dir", str(fit_dir), *FAST_FIT])
        assert rc == 0
        out_dir = tmp_path / "pred"
        rc = main(["predict", "--function", "f2", "--n", "50", "--seed", "3",
                   "--checkpoint", str(fit_dir / "checkpoint"),
                   "--out-dir", str(out_dir), *fast_fit("predict")])
        assert rc == 0
        rows = read_csv(out_dir / "predictive.csv")
        assert rows[0] == ["x", "mean", "lo", "hi"] and len(rows) == 22

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        rc = main(["predict", "--function", "f2", "--n", "50",
                   "--checkpoint", str(tmp_path / "missing"),
                   "--out-dir", str(tmp_path / "pred"), *fast_fit("predict")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "missing.json" in err
        assert not (tmp_path / "pred").exists()

    def test_checkpoint_from_config(self, tmp_path):
        fit_dir = tmp_path / "fit"
        assert main(["fit", "--function", "f2", "--n", "50", "--seed", "3",
                     "--out-dir", str(fit_dir), *FAST_FIT]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checkpoint": str(fit_dir / "checkpoint")}))
        argv = ["predict", "--function", "f2", "--n", "50", "--seed", "3",
                *fast_fit("predict")]
        assert main(["--config", str(cfg), *argv, "--out-dir", str(tmp_path / "cfg")]) == 0
        assert main([*argv, "--checkpoint", str(fit_dir / "checkpoint"),
                     "--out-dir", str(tmp_path / "flag")]) == 0
        assert ((tmp_path / "cfg" / "predictive.csv").read_bytes()
                == (tmp_path / "flag" / "predictive.csv").read_bytes())

    def test_no_checkpoint_exits_2(self, tmp_path, capsys):
        rc = main(["predict", "--function", "f2", "--out-dir", str(tmp_path / "pred")])
        assert rc == 2
        assert capsys.readouterr().err == "error: predict requires --checkpoint\n"
        assert not (tmp_path / "pred").exists()

    def test_other_schema_version_exits_1(self, tmp_path):
        fit_dir = tmp_path / "fit"
        assert main(["fit", "--function", "f2", "--n", "50",
                     "--out-dir", str(fit_dir), *FAST_FIT]) == 0
        envelope = json.loads((fit_dir / "checkpoint.json").read_text())
        envelope["schema_version"] = 2
        (fit_dir / "checkpoint.json").write_text(json.dumps(envelope))
        rc = main(["predict", "--function", "f2", "--n", "50",
                   "--checkpoint", str(fit_dir / "checkpoint"),
                   "--out-dir", str(tmp_path / "pred"), *fast_fit("predict")])
        assert rc == 1

    @pytest.mark.parametrize("malform, field", [
        (lambda env: {k: v for k, v in env.items() if k != "flatten_order"}, "flatten_order"),
        (lambda env: {k: v for k, v in env.items() if k != "T"}, "T"),
        (lambda env: [env], "JSON object"),
        (lambda env: {**env, "shape": 5}, "shape"),
        (lambda env: {**env, "T": 2.5}, "T"),
        (lambda env: {**env, "shape": {"d_in": 1.0, "hidden_widths": [2]}}, "d_in"),
        (lambda env: {**env, "shape": {"d_in": 1, "hidden_widths": [2.5]}}, "width"),
        (lambda env: {**env, "shape": {"d_in": 1, "hidden_widths": [True]}}, "width"),
        (lambda env: {**env, "shape": {"d_in": 1, "hidden_widths": [3]}}, "T"),
    ], ids=["no-flatten_order", "no-T", "list", "int-shape", "float-T", "float-d_in",
            "float-width", "bool-width", "other-T"])
    def test_malformed_envelope_exits_1(self, tmp_path, capsys, malform, field):
        shape = NetworkShape(d_in=1, hidden_widths=(2,))
        T = shape.n_params
        vi.save_checkpoint(tmp_path / "checkpoint",
                           vi.VariationalState(mu=np.zeros(T), rho=np.zeros(T)), shape)
        envelope = json.loads((tmp_path / "checkpoint.json").read_text())
        (tmp_path / "checkpoint.json").write_text(json.dumps(malform(envelope)))
        rc = main(["predict", "--function", "f2", "--n", "50",
                   "--checkpoint", str(tmp_path / "checkpoint"),
                   "--out-dir", str(tmp_path / "pred"), *fast_fit("predict")])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1 and err.startswith("failure: ")
        assert field in err
        assert not (tmp_path / "pred").exists()


class TestCheckPrior:
    def test_mixture_passes(self, tmp_path):
        rc = main(["check-prior", "--function", "f1", "--n", "100,500",
                   "--density", "mixture", "--out-dir", str(tmp_path)])
        assert rc == 0
        obj = json.loads((tmp_path / "condition_report.json").read_text())
        assert obj["all_pass"] is True
        assert {r["n"] for r in obj["reports"]} == {100, 500}

    def test_gauss_fails(self, tmp_path):
        rc = main(["check-prior", "--function", "f1", "--n", "100",
                   "--density", "gauss", "--out-dir", str(tmp_path)])
        assert rc == 1
        obj = json.loads((tmp_path / "condition_report.json").read_text())
        assert obj["all_pass"] is False

    def test_unknown_density_exits_2(self, tmp_path):
        rc = main(["check-prior", "--function", "f1", "--density", "cauchy",
                   "--out-dir", str(tmp_path)])
        assert rc == 2


class TestCovering:
    def test_explicit_geometry(self, capsys):
        rc = main(["covering", "--L", "1", "--W", "1", "--S", "1",
                   "--B", "1.0", "--delta", "2.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert float(out.split("covering bound:")[1].split()[0]) == pytest.approx(
            2 * math.log(4), rel=1e-4
        )

    def test_design_derived(self, capsys):
        rc = main(["covering", "--function", "f1", "--n", "100"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "n eps^2" in out

    def test_truncation_threshold_violation_exits_2(self):
        rc = main(["covering", "--L", "3", "--W", "8", "--S", "10",
                   "--B", "2.0", "--a", "1.0", "--delta", "0.5"])
        assert rc == 2

    def test_admissible_truncation(self, capsys):
        rc = main(["covering", "--L", "3", "--W", "8", "--S", "10",
                   "--B", "2.0", "--a", "1e-9", "--delta", "0.5"])
        assert rc == 0
        assert "truncated covering bound" in capsys.readouterr().out


class TestNumericFlags:
    """A non-finite or out-of-range numeric flag exits 2 and a design that
    over- or underflows doubles exits 1, each with one stderr line, before
    any output directory is made."""

    def run(self, tmp_path, capsys, argv):
        rc = main([*argv, "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert err.count("\n") == 1, err
        return rc, err

    @pytest.mark.parametrize("argv", [
        ["design", "--function", "f1", "--cB", "1e-320"],
        ["check-prior", "--function", "f1", "--cB", "1e-320"],
        ["fit", "--function", "f1", "--cB", "1e-320", *FAST_FIT],
        ["design", "--s", "1.5", "--p", "1", "--q", "1", "--m", "100000"],
        ["design", "--function", "f1", "--cB", "1e200"],
        ["design", "--function", "f1", "--cB", "1e308"],
    ])
    def test_design_overflow_exits_1(self, tmp_path, capsys, argv):
        rc, err = self.run(tmp_path, capsys, argv)
        assert rc == 1 and err.startswith("failure: ")

    @pytest.mark.parametrize("argv", [
        ["design", "--function", "f1", "--K0", "inf"],
        ["check-prior", "--function", "f1", "--K0", "inf"],
        ["fit", "--function", "f1", "--K0", "inf", *FAST_FIT],
        ["design", "--function", "f1", "--cB", "nan"],
        ["design", "--function", "f1", "--K0", "nan"],
        ["design", "--s", "1.5", "--p", "nan", "--q", "1"],
        ["design", "--s", "nan", "--p", "1", "--q", "1"],
    ])
    def test_rejected_flag_exits_2(self, tmp_path, capsys, argv):
        rc, err = self.run(tmp_path, capsys, argv)
        assert rc == 2 and err.startswith("error: ")

    @pytest.mark.parametrize("flag", ["--B", "--delta", "--a", "--cB", "--K0"])
    def test_covering_rejects_nan(self, capsys, flag):
        argv = ["covering", "--L", "3", "--W", "8", "--S", "10", "--B", "2.0",
                "--a", "1e-9", "--delta", "0.5"]
        assert main([*argv, flag, "nan"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("flag", ["--L", "--W", "--S"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_covering_rejects_a_nonpositive_geometry(self, capsys, flag, value):
        argv = ["covering", "--L", "3", "--W", "8", "--S", "10", "--B", "2.0",
                "--delta", "0.5"]
        assert main([*argv, flag, value]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith(f"error: {flag} must")


TINY_FIT = ["--function", "f2", "--draws", "2"]
CONTRACT_ARGS = {
    "design": ["design", "--s", "1.5", "--p", "1", "--q", "1", "--n", "100"],
    "check-prior": ["check-prior", "--s", "1.5", "--p", "1", "--q", "1", "--n", "100"],
    "covering": ["covering", "--L", "3", "--W", "8", "--S", "10", "--B", "2.0",
                 "--a", "1e-9", "--delta", "0.5"],
    "fit": ["fit", "--n", "4", *TINY_FIT, "--iterations", "1", "--grid-points", "2"],
    "predict": ["predict", "--n", "4", *TINY_FIT, "--grid-points", "2"],
    "rate-study": ["rate-study", "--n", "4,5,6", "--replicates", "1", *TINY_FIT,
                   "--iterations", "1"],
}
FIT_COMMANDS = {"fit", "predict", "rate-study"}


def numeric_options(command):
    """(flag, type) of each numeric option of a subcommand's parser: those
    whose type is int or float, or carries the `low` bound of its range."""
    return [(a.option_strings[0], a.type) for a in option_actions(command)
            if a.type in (int, float) or hasattr(a.type, "low")]


def edge_values(kind):
    """Values that probe a numeric flag type: each finite bound of its range
    (0 for a plain int or float) and the nearest value of its kind on either
    side, then nan, +-inf, 1e200 and a non-number."""
    values = []
    for b in (getattr(kind, "low", 0), getattr(kind, "high", math.inf)):
        if math.isfinite(b):
            values += ([b - 1, b, b + 1] if kind.__name__ == "int" else
                       [math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf)])
    return [repr(v) for v in values] + ["nan", "inf", "-inf", "1e200", "abc"]


def test_numeric_flags_keep_the_exit_contract(tmp_path, capsys):
    # Every numeric option of every command at its edge values, and an
    # unknown flag for each command: main returns 0, 1 or 2 and never raises
    # or prints a traceback.  Every exit 2 writes one error: line and makes
    # no output directory; a non-number or an unknown flag always exits 2.
    # The closed-form commands write at most one stderr line.
    checkpoint = tmp_path / "fit" / "checkpoint"
    assert main([*CONTRACT_ARGS["fit"], "--out-dir", str(checkpoint.parent)]) == 0
    cases = [(command, f"{flag}={value}") for command in CONTRACT_ARGS
             for flag, kind in numeric_options(command) for value in edge_values(kind)]
    assert len({(command, extra.split("=")[0]) for command, extra in cases}) >= 50
    cases += [(command, "--bogus") for command in CONTRACT_ARGS]
    broken = []
    for i, (command, extra) in enumerate(cases):
        out_dir = tmp_path / str(i)
        argv = [*CONTRACT_ARGS[command], extra]
        if command != "covering":
            argv += ["--out-dir", str(out_dir)]
        if command == "predict":
            argv += ["--checkpoint", str(checkpoint)]
        try:
            rc = main(argv)
        except (Exception, SystemExit) as exc:  # any escape breaks the contract
            rc = repr(exc)
        err = capsys.readouterr().err
        ok = rc in (0, 1, 2) and "Traceback" not in err and (rc != 2 or (
            err.count("\n") == 1 and err.startswith("error: ") and not out_dir.exists()))
        if command not in FIT_COMMANDS:
            ok = ok and err.count("\n") <= 1
        if extra == "--bogus" or extra.endswith("=abc"):
            ok = ok and rc == 2
        if not ok:
            broken.append((argv, rc, err))
    assert not broken, broken


@pytest.mark.parametrize("argv", [[], ["--config"]], ids=["no-command", "no-config-file"])
def test_usage_error_is_one_line(capsys, argv):
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse's own exit breaks the contract
        rc = repr(exc)
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1 and err.startswith("error: "), (rc, err)


def test_each_command_declares_the_options_it_reads():
    smoothness = ["--s", "--p", "--q", "--d", "--m"]
    design = ["--cB", "--K0", "--counting"]
    train = ["--iterations", "--batch-size", "--learning-rate", "--full-scale", "--noise-sd",
             "--draws"]
    assert {command: options(command)[2:] for command in CONTRACT_ARGS} == {
        "design": [*smoothness, *design, "--out-dir"],
        "check-prior": [*smoothness, *design, "--density", "--out-dir"],
        "covering": [*smoothness, "--cB", "--L", "--W", "--S", "--B", "--a", "--delta"],
        "fit": [*design, *train, "--alpha", "--grid-points", "--seed", "--out-dir"],
        "predict": ["--noise-sd", "--draws", "--alpha", "--grid-points", "--seed",
                    "--checkpoint", "--out-dir"],
        "rate-study": [*design, *train, "--seed", "--replicates", "--out-dir"],
    }
    assert all(options(command)[:2] == ["--n", "--function"] for command in CONTRACT_ARGS)


def contract_argv(tmp_path, command, *extra):
    """CONTRACT_ARGS[command] with `extra`, an --out-dir under tmp_path for
    the commands that write one, and a checkpoint path for predict."""
    argv = [*CONTRACT_ARGS[command], *extra]
    if command != "covering":
        argv += ["--out-dir", str(tmp_path / "out")]
    if command == "predict":
        argv += ["--checkpoint", str(tmp_path / "checkpoint")]
    return argv


@pytest.mark.parametrize("argv", [
    ["predict", "--iterations", "5"],
    ["predict", "--K0", "9"],
    ["predict", "--full-scale"],
    ["rate-study", "--alpha", "0.1"],
    ["rate-study", "--grid-points", "7"],
    ["rate-study", "--s", "0.3"],
    ["fit", "--s", "1.5"],
    ["covering", "--K0", "9"],
    ["covering", "--counting", "compat"],
], ids=" ".join)
def test_flag_the_command_does_not_read_exits_2(tmp_path, capsys, argv):
    command, *flag = argv
    assert main(contract_argv(tmp_path, command, *flag)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: unrecognized arguments: {' '.join(flag)}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, config, message", [
    (["design", "--function", "f1", "--s", "0.5"], {}, "--function cannot be combined with --s"),
    (["check-prior", "--function", "f2", "--p", "1", "--m", "3"], {},
     "--function cannot be combined with --p/--m"),
    (["covering", "--function", "f1", "--d", "1"], {}, "--function cannot be combined with --d"),
    (["design", "--q", "2"], {"function": "f1"}, "--function cannot be combined with --q"),
    (["covering", "--function", "f1", "--L", "3"], {}, "--L cannot be combined with --function"),
    (["covering", "--s", "1.5", "--p", "1", "--q", "1", "--W", "8", "--S", "10"], {},
     "--W/--S cannot be combined with --s/--p/--q"),
    (["covering", "--function", "f2"], {"B": 2.0}, "--B cannot be combined with --function"),
], ids=["design", "check-prior", "covering", "design-config", "covering-L",
        "covering-smoothness", "covering-config"])
def test_overriding_flags_exit_2(tmp_path, capsys, argv, config, message):
    # Either set of flags would ignore the other; a --config value counts
    # as given.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = ["--config", str(cfg), *argv]
    if "covering" not in argv:
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["design", "check-prior", "fit", "predict", "rate-study"])
def test_unwritable_out_dir_exits_1_with_one_line(tmp_path, capsys, command):
    shape = NetworkShape(d_in=1, hidden_widths=(2,))
    vi.save_checkpoint(tmp_path / "checkpoint",
                       vi.VariationalState(mu=np.zeros(shape.n_params),
                                           rho=np.zeros(shape.n_params)), shape)
    (tmp_path / "out").write_text("")
    for extra in ([], ["--out-dir", str(tmp_path / "out" / "sub")]):
        rc = main(contract_argv(tmp_path, command, *extra))
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1 and err.startswith("failure: "), err
    assert (tmp_path / "out").read_text() == ""


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--help"])
    assert exc.value.code == 0 and "--learning-rate" in capsys.readouterr().out


@pytest.mark.parametrize("argv, line, result", [
    (["fit", "--n", "20", "--iterations", "5", "--learning-rate", "1e10", "--grid-points", "2"],
     "training diverged: non-finite ELBO (-inf) at step 1", "predictive.csv"),
    # one update that overflows only the network pass: the state it leaves
    # is checked too
    (["fit", "--n", "4", "--iterations", "1", "--learning-rate", "1e200", "--grid-points", "2"],
     "training diverged: non-finite ELBO (nan) at step 1", "predictive.csv"),
    (["rate-study", "--n", "4,5,6", "--replicates", "1", "--iterations", "1",
      "--learning-rate", "1e200"],
     "failure: all replicates diverged at n=4", "rate_study.json"),
], ids=["fit-step-1", "fit-last-update", "rate-study-last-update"])
def test_huge_learning_rate_diverges_with_one_line(tmp_path, argv, line, result):
    # Training runs without numpy's floating-point warnings; the divergence
    # itself is the one line, and no result file is written.
    env = dict(os.environ)
    src = str(Path(besovbnn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "besovbnn.cli", *argv, "--function", "f2",
         "--draws", "2", "--out-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [line], proc.stderr
    assert not (tmp_path / "out" / result).exists()


class TestRateStudy:
    def test_requires_three_sizes(self, tmp_path):
        rc = main(["rate-study", "--function", "f2", "--n", "100,200",
                   "--out-dir", str(tmp_path), *fast_fit("rate-study")])
        assert rc == 2

    def test_micro_run(self, tmp_path):
        rc = main(["rate-study", "--function", "f2", "--n", "20,40,80",
                   "--replicates", "1", "--seed", "0",
                   "--out-dir", str(tmp_path), *fast_fit("rate-study")])
        assert rc == 0
        obj = json.loads((tmp_path / "rate_study.json").read_text())
        assert len(obj["per_n"]) == 3
        assert math.isfinite(obj["fitted_slope"])
        assert obj["theoretical_slope"] == pytest.approx(-1.5 / 4.0)
        rows = read_csv(tmp_path / "rate_study.csv")
        assert rows[0] == ["n", "median_error"] and len(rows) == 4


    @pytest.mark.parametrize("replicates", ["0", "-2"])
    def test_fewer_than_one_replicate_exits_2(self, tmp_path, monkeypatch, replicates):
        monkeypatch.setattr("besovbnn.vi.train_replicates",
                            lambda *a, **k: pytest.fail("trained"))
        rc = main(["rate-study", "--function", "f2", "--n", "20,40,80",
                   "--replicates", replicates, "--out-dir", str(tmp_path / "out"),
                   *fast_fit("rate-study")])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    def test_zero_replicates_from_config_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr("besovbnn.vi.train_replicates",
                            lambda *a, **k: pytest.fail("trained"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"replicates": 0}))
        rc = main(["--config", str(cfg), "rate-study", "--function", "f2",
                   "--n", "20,40,80", "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()


def rate_study_bytes(out_dir):
    return {name: (out_dir / name).read_bytes()
            for name in ("rate_study.json", "rate_study.csv")}


def set_cpus(monkeypatch, count):
    """Make rate-study see `count` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def sequential_rate_study(ns, replicates, seed):
    """rate-study's per-n median errors at FAST_FIT, one n after another."""
    spec = dz.SmoothnessSpec(s=1.5, p=1.0, q=1.0, d=1, m=2)
    f0 = testbed.log_singular_function()
    medians = []
    for n in ns:
        arch = dz.design_architecture(spec, n, 10.0)
        prior = priors.make_density("mixture",
                                    mixture_spec=dz.mixture_hyperparams(arch, K0=5.0))
        shape = NetworkShape(d_in=1, hidden_widths=tuple(dz.desk_scale_widths(arch)))
        seeds = [seed + 1000 * r + n for r in range(replicates)]
        datasets = [testbed.generate_dataset(f0, n, 0.1, s) for s in seeds]
        configs = [vi.TrainConfig(iterations=60, learning_rate=0.02, seed=s) for s in seeds]
        errors = []
        for s, data, (state, _) in zip(seeds, datasets,
                                       vi.train_replicates(shape, datasets, prior, configs)):
            mean = vi.posterior_predictive(state, shape, data.x, 20, f0, data,
                                           seed=s + 20_000).mean
            errors.append(float(testbed.empirical_norm(mean - f0(data.x[:, 0]))))
        medians.append(float(np.median(errors)))
    return medians


class TestRateStudyConcurrency:
    def run(self, out_dir, ns, replicates=2, seed=0):
        return main(["rate-study", "--function", "f2", "--n", ",".join(map(str, ns)),
                     "--replicates", str(replicates), "--seed", str(seed),
                     "--out-dir", str(out_dir), *fast_fit("rate-study")])

    def test_matches_a_sequential_loop_and_one_cpu(self, tmp_path, monkeypatch):
        ns = [20, 40, 80]
        threads = {}
        train = vi.train_replicates

        def spy(shape, datasets, *args, **kwargs):
            threads[datasets[0].n] = threading.current_thread()
            return train(shape, datasets, *args, **kwargs)

        monkeypatch.setattr(vi, "train_replicates", spy)
        set_cpus(monkeypatch, 3)
        assert self.run(tmp_path / "threads", ns) == 0
        # the largest n on the calling thread, the others on the pool
        assert threads.pop(80) is threading.main_thread()
        assert threading.main_thread() not in threads.values()
        obj = json.loads((tmp_path / "threads" / "rate_study.json").read_text())
        medians = sequential_rate_study(ns, 2, 0)
        assert [r["median_error"] for r in obj["per_n"]] == medians
        assert [(r["n"], r["replicates"]) for r in obj["per_n"]] == [(n, 2) for n in ns]
        assert obj["fitted_slope"] == fit_rate_slope(ns, medians)
        assert obj["diverged_replicates"] == 0

        set_cpus(monkeypatch, 1)
        assert self.run(tmp_path / "one", ns) == 0
        assert threads == {n: threading.main_thread() for n in ns}
        assert rate_study_bytes(tmp_path / "one") == rate_study_bytes(tmp_path / "threads")

    def test_bytes_hold_under_fast_thread_switching(self, tmp_path, monkeypatch):
        ns = [20, 30, 40, 60, 80]
        set_cpus(monkeypatch, 1)
        assert self.run(tmp_path / "one", ns, seed=3) == 0
        set_cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t0 = time.monotonic()
            assert self.run(tmp_path / "threads", ns, seed=3) == 0
            elapsed = time.monotonic() - t0
        finally:
            sys.setswitchinterval(interval)
        assert rate_study_bytes(tmp_path / "threads") == rate_study_bytes(tmp_path / "one")
        assert elapsed < 60.0

    def test_all_diverged_reports_the_smallest_n(self, tmp_path, monkeypatch, capsys):
        train = vi.train_replicates

        def diverge_above_20(shape, datasets, *args, **kwargs):
            if datasets[0].n > 20:
                return [vi.TrainingDiverged(0, math.nan) for _ in datasets]
            return train(shape, datasets, *args, **kwargs)

        monkeypatch.setattr(vi, "train_replicates", diverge_above_20)
        set_cpus(monkeypatch, 3)
        assert self.run(tmp_path, [20, 40, 80]) == 1
        err = capsys.readouterr().err
        assert err == "failure: all replicates diverged at n=40\n"
        assert not (tmp_path / "rate_study.json").exists()

    @pytest.mark.parametrize("failing_n", [20, 80])
    def test_task_error_reaches_main_without_traceback(self, tmp_path, monkeypatch, capsys,
                                                       failing_n):
        train = vi.train_replicates

        def fail_at(shape, datasets, *args, **kwargs):
            if datasets[0].n == failing_n:
                raise ValueError(f"bad fit at n={failing_n}")
            return train(shape, datasets, *args, **kwargs)

        monkeypatch.setattr(vi, "train_replicates", fail_at)
        set_cpus(monkeypatch, 3)
        assert self.run(tmp_path, [20, 40, 80]) == 1
        err = capsys.readouterr().err
        assert err == f"failure: bad fit at n={failing_n}\n"
        assert not (tmp_path / "rate_study.json").exists()

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_error_cancels_tasks_not_started(self, tmp_path, monkeypatch, error):
        # Two CPUs: n=80 on the calling thread, n=40 then n=20 on one worker.
        # n=80 fails while n=40 still runs, so n=20 must never start.
        started = []
        failed = threading.Event()

        def fake(shape, datasets, *args, **kwargs):
            n = datasets[0].n
            started.append(n)
            if n == 80:
                failed.set()
                raise error("stop")
            failed.wait(10.0)
            time.sleep(0.5)
            return [vi.TrainingDiverged(0, math.nan) for _ in datasets]

        monkeypatch.setattr(vi, "train_replicates", fake)
        set_cpus(monkeypatch, 2)
        if error is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                self.run(tmp_path, [20, 40, 80])
        else:
            assert self.run(tmp_path, [20, 40, 80]) == 1
        assert sorted(started) == [40, 80]

    def test_full_scale_warnings_come_in_n_order(self, tmp_path, monkeypatch, capsys):
        designed = []
        design_architecture = dz.design_architecture

        def spy(spec, n, *args, **kwargs):
            designed.append((n, threading.current_thread()))
            return design_architecture(spec, n, *args, **kwargs)

        monkeypatch.setattr(dz, "design_architecture", spy)
        set_cpus(monkeypatch, 3)
        rc = main(["rate-study", "--function", "f2", "--full-scale", "--n", "20,40,80",
                   "--replicates", "1", "--iterations", "1", "--draws", "2",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        warning = "warning: full-scale network has 226951 parameters; expect a long runtime"
        assert capsys.readouterr().err.splitlines() == [warning] * 3
        assert designed == [(n, threading.main_thread()) for n in (20, 40, 80)]


class TestRateSlope:
    def test_exact_power_law(self):
        ns = [100, 300, 1000, 3000]
        errors = [5.0 * n ** (-0.37) for n in ns]
        assert fit_rate_slope(ns, errors) == pytest.approx(-0.37, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_rate_slope([10, 20, 40], [1.0, 0.0, 0.5])


class TestConfigFile:
    def test_config_defaults_and_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "100", "function": "f2"}))
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "design", "--out-dir", str(out)])
        assert rc == 0
        rows = read_csv(out / "design.csv")
        assert len(rows) == 2 and rows[1][0] == "100"
        assert rows[1][1] == "13" and rows[1][2] == "200"  # f2 geometry
        # an explicit flag beats the config value
        out2 = tmp_path / "out2"
        rc = main(["--config", str(cfg), "design", "--function", "f1",
                   "--out-dir", str(out2)])
        assert rc == 0
        assert read_csv(out2 / "design.csv")[1][2] == "400"  # f1 geometry

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{broken")
        assert main(["--config", str(cfg), "design", "--function", "f1"]) == 2

    def fit_config(self, tmp_path, config, *flags):
        """Fit with FAST_FIT's settings except --iterations, which comes from
        the config (60 unless it sets it) or from flags."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iterations": 60, **config}))
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "fit", "--function", "f2", "--n", "50",
                   "--out-dir", str(out), *FAST_FIT[2:], *flags])
        manifest = json.loads((out / "manifest.json").read_text()) if rc == 0 else None
        return rc, manifest

    def test_flag_beats_underscore_key(self, tmp_path):
        rc, manifest = self.fit_config(tmp_path, {"batch_size": 7}, "--batch-size", "11")
        assert rc == 0 and manifest["config"]["batch_size"] == 11

    def test_equals_spelling_beats_config(self, tmp_path):
        rc, manifest = self.fit_config(tmp_path, {"iterations": 3}, "--iterations=9")
        assert rc == 0 and manifest["config"]["iterations"] == 9

    def test_dash_key_applies(self, tmp_path):
        rc, manifest = self.fit_config(tmp_path, {"batch-size": 7})
        assert rc == 0 and manifest["config"]["batch_size"] == 7

    def test_string_value_converts_like_a_flag(self, tmp_path):
        rc, manifest = self.fit_config(tmp_path, {"iterations": "5"})
        assert rc == 0 and manifest["config"]["iterations"] == 5
        assert len(read_csv(tmp_path / "out" / "trace.csv")) == 6

    @pytest.mark.parametrize("config", [
        {"iterations": "five"},
        {"iterations": 2.5},
        {"iterations": None},
        {"n": [100]},
        {"function": "f3"},
        {"full_scale": "yes"},
    ])
    def test_rejected_value_exits_2(self, tmp_path, monkeypatch, config):
        monkeypatch.setattr("besovbnn.vi.train", lambda *a, **k: pytest.fail("trained"))
        rc, _ = self.fit_config(tmp_path, config)
        assert rc == 2
        assert not (tmp_path / "out").exists()

    def test_out_of_range_value_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("besovbnn.vi.train", lambda *a, **k: pytest.fail("trained"))
        rc, _ = self.fit_config(tmp_path, {"alpha": 1.5})
        err = capsys.readouterr().err
        assert rc == 2 and err == "error: config key 'alpha': must lie in (0, 1), got 1.5\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_key_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr("besovbnn.vi.train", lambda *a, **k: pytest.fail("trained"))
        rc, _ = self.fit_config(tmp_path, {"iteratons": 3})
        assert rc == 2

    def test_key_of_another_command_is_ignored(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "replicates": 2, "function": "f1"}))
        rc = main(["--config", str(cfg), "design", "--n", "100",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0


def test_cli_import_skips_quadrature():
    """The CLI needs no numerical integration; importing it must not pull in
    scipy.integrate."""
    env = dict(os.environ)
    src = str(Path(besovbnn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, besovbnn.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
