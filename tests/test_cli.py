import argparse
import contextlib
import csv
import io
import json
import math
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import besovbnn
from besovbnn import design as dz
from besovbnn import cli, priors, testbed, vi
from besovbnn.cli import build_parser, fit_rate_slope, main
from besovbnn.network import NetworkShape


def src_env(**extra) -> dict:
    """The environment, with `extra`, for a fresh interpreter that imports
    besovbnn from the sources under test."""
    env = dict(os.environ, **extra)
    src = str(Path(besovbnn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


# numpy's words when an array cannot be allocated
OOM_MESSAGE = ("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
               "and data type float64")
# Exceptions that end a command with exit 1 and this one stderr line.
FATAL = [pytest.param(MemoryError, f"failure: out of memory: {OOM_MESSAGE}", id="MemoryError"),
         pytest.param(KeyboardInterrupt, "failure: interrupted", id="KeyboardInterrupt")]

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

    def test_depth_rule_below_one_layer_exits_1(self, tmp_path, capsys):
        # c grows as (2e)^m, faster than 3^(d v m): the depth rule gives L < 1
        rc = main(["design", "--s", "3.85", "--d", "386", "--m", "386", "--n", "5857",
                   "--out-dir", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err == ("failure: the depth rule L = 3 + 2 ceil(log2(3^(d v m) / (tau c)) + 5) "
                       "ceil(log2(d v m)) gives L = -5919 < 1 at s=3.85, d=386, m=386, n=5857\n")
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("error, line", FATAL)
    def test_out_of_memory_exits_1_with_one_line(self, tmp_path, monkeypatch, capsys,
                                                 error, line):
        def exhausted(*args, **kwargs):
            raise error(OOM_MESSAGE)

        monkeypatch.setattr(vi, "train", exhausted)
        rc = main(["fit", "--function", "f2", "--n", "20", "--out-dir", str(tmp_path),
                   *FAST_FIT])
        assert rc == 1
        assert capsys.readouterr().err == f"{line}\n"
        assert not multiprocessing.active_children()

    def test_failure_after_the_checkpoint_leaves_a_pending_manifest(self, tmp_path,
                                                                    monkeypatch, capsys):
        def unwritable(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("besovbnn.cli._write_predictive", unwritable)
        rc = main(["fit", "--function", "f2", "--n", "20", "--out-dir", str(tmp_path),
                   *FAST_FIT])
        assert rc == 1
        assert capsys.readouterr().err == "failure: disk full\n"
        assert (tmp_path / "checkpoint.bin").is_file()
        assert json.loads((tmp_path / "manifest.json").read_text())["status"] == "pending"
        # predict refuses the unfinished fit's checkpoint before making its out-dir
        rc = main(["predict", "--function", "f2", "--n", "20", "--checkpoint",
                   str(tmp_path / "checkpoint"), "--out-dir", str(tmp_path / "pred"),
                   *fast_fit("predict")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"failure: checkpoint {tmp_path / 'checkpoint'} is from an unfinished fit: "
            f"{tmp_path / 'manifest.json'} has status 'pending'\n")
        assert not (tmp_path / "pred").exists()


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

    def test_checkpoint_naming_no_file_exits_2(self, tmp_path, capsys):
        # a path whose file name is empty has no .json or .bin sibling
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checkpoint": ""}))
        argv = ["predict", "--function", "f2", "--out-dir", str(tmp_path / "pred"),
                *fast_fit("predict")]
        for call in ([*argv, "--checkpoint", ""], [*argv, "--checkpoint", "."],
                     [*argv, "--checkpoint", "/"], ["--config", str(cfg), *argv]):
            assert main(call) == 2, call
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("error: checkpoint file not found")
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

    @pytest.mark.parametrize("manifest", [None, '{"status": "ok"}', "[]", '"ok"', "{no json"],
                             ids=["none", "ok", "list", "string", "not-json"])
    def test_manifest_beside_the_checkpoint(self, tmp_path, capsys, manifest):
        # A checkpoint written through the library has no manifest and loads
        # as before; a manifest that is no JSON object is one failure line.
        shape = NetworkShape(d_in=1, hidden_widths=(2,))
        T = shape.n_params
        vi.save_checkpoint(tmp_path / "checkpoint",
                           vi.VariationalState(mu=np.zeros(T), rho=np.zeros(T)), shape)
        if manifest is not None:
            (tmp_path / "manifest.json").write_text(manifest)
        rc = main(["predict", "--function", "f2", "--n", "50",
                   "--checkpoint", str(tmp_path / "checkpoint"),
                   "--out-dir", str(tmp_path / "pred"), *fast_fit("predict")])
        err = capsys.readouterr().err
        if manifest in (None, '{"status": "ok"}'):
            assert (rc, err) == (0, "")
            assert (tmp_path / "pred" / "predictive.csv").is_file()
        else:
            assert (rc, err) == (1, f"failure: {tmp_path / 'manifest.json'} is not a JSON object\n")
            assert not (tmp_path / "pred").exists()

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
        (lambda env: {**env, "step": "abc"}, "step"),
        (lambda env: {**env, "seed": [1]}, "seed"),
        (lambda env: {**env, "step": -5}, "step"),
        (lambda env: {**env, "seed": 1.5}, "seed"),
        (lambda env: {**env, "seed": True}, "seed"),
    ], ids=["no-flatten_order", "no-T", "list", "int-shape", "float-T", "float-d_in",
            "float-width", "bool-width", "other-T", "str-step", "list-seed",
            "negative-step", "float-seed", "bool-seed"])
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

    @pytest.mark.parametrize("function, n", [("f1", "1000000000"), ("f2", "1000000000000")])
    def test_spike_scale_past_a_double_keeps_the_exit_contract(self, tmp_path, capsys,
                                                               function, n):
        # the designed log sigma1 lies below -709.78, where exp(-log sigma1)
        # overflows a double
        rc = main(["check-prior", "--function", function, "--n", n,
                   "--out-dir", str(tmp_path)])
        assert rc in (0, 1)
        assert "Traceback" not in capsys.readouterr().err


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

    def test_truncation_threshold_violation_exits_2(self, capsys):
        # in both modes the one error line comes before any bound is printed
        for argv in (["--L", "3", "--W", "8", "--S", "10", "--B", "2.0", "--delta", "0.5"],
                     ["--function", "f2", "--n", "100"]):
            rc = main(["covering", *argv, "--a", "1.0"])
            assert rc == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: delta below the truncation floor")
            assert err.count("\n") == 1

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


def config_twin(tmp_path, name, command, extra, checkpoint):
    """The argv and output dir of CONTRACT_ARGS[command] with the
    option=value `extra` given as a JSON string in a --config file instead,
    the option's own flag and value in CONTRACT_ARGS left out."""
    flag, value = extra.split("=")
    base = CONTRACT_ARGS[command]
    pairs = [(f, v) for f, v in zip(base[1::2], base[2::2]) if f != flag]
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps({flag[2:]: value}))
    out_dir = tmp_path / name
    argv = ["--config", str(cfg), base[0], *(a for pair in pairs for a in pair)]
    if command != "covering":
        argv += ["--out-dir", str(out_dir)]
    if command == "predict":
        argv += ["--checkpoint", str(checkpoint)]
    return argv, out_dir


def test_numeric_flags_keep_the_exit_contract(tmp_path, capsys):
    # Every numeric option of every command at its edge values, a value
    # outside each choices option's choices, and an unknown flag for each
    # command: main returns 0, 1 or 2 and never raises or prints a
    # traceback.  Every exit 2 writes one error: line and makes no output
    # directory; a non-number, a value outside the choices or an unknown
    # flag always exits 2, and so does a count of rate-study replicates as
    # large as 10**30, before it builds a seed for each.
    # The closed-form commands write at most one stderr line.  Each rejected
    # value, given in --config instead, exits 2 with the same line, the
    # option named as a config key ('--X ' reads "config key 'X': ", and
    # '--X' in a "cannot be combined" line "config key 'X'").
    checkpoint = tmp_path / "fit" / "checkpoint"
    assert main([*CONTRACT_ARGS["fit"], "--out-dir", str(checkpoint.parent)]) == 0
    cases = [(command, f"{flag}={value}") for command in CONTRACT_ARGS
             for flag, kind in numeric_options(command) for value in edge_values(kind)]
    assert len({(command, extra.split("=")[0]) for command, extra in cases}) >= 50
    outside_choices = [("design", "--function=f3"), ("design", "--counting=x"),
                       ("check-prior", "--density=x")]
    past_range = [("rate-study", f"--replicates={10**30}")]
    cases += outside_choices + past_range + [(command, "--bogus") for command in CONTRACT_ARGS]
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
        if (extra == "--bogus" or extra.endswith("=abc")
                or (command, extra) in outside_choices + past_range):
            ok = ok and rc == 2
        if not ok:
            broken.append((argv, rc, err))
        if rc == 2 and extra != "--bogus":
            flag = extra.split("=")[0]
            want = err.replace(f"error: {flag} ", f"error: config key {flag[2:]!r}: ", 1)
            if "cannot be combined" in want:  # the other side stays a flag
                want = re.sub(rf"{flag}(?=[/ \n])", f"config key {flag[2:]!r}", want)
            argv, config_out = config_twin(tmp_path, f"{i}-config", command, extra, checkpoint)
            rc = main(argv)
            err = capsys.readouterr().err
            if rc != 2 or err != want or config_out.exists():
                broken.append((argv, rc, err, want))
    assert not broken, broken


# Each value is drawn from an ordinary range or from the extremes of its
# option's range and past them: integers past any double, reals from 1e-300
# to 1e300, and inf where SmoothnessSpec allows it.
SIZES = st.one_of(st.integers(2, 10**4), st.integers(2, 10**300))
REALS = st.one_of(st.floats(0.1, 100.0), st.floats(1e-300, 1e300))
SMOOTHNESS = st.one_of(st.floats(0.1, 3.0), st.floats(1e-300, 1e300), st.just(math.inf))
DIMENSIONS = st.one_of(st.integers(1, 4), st.integers(1, 10**5))
GEOMETRY_COUNTS = st.one_of(st.integers(1, 100), st.integers(1, 10**400))


@st.composite
def closed_form_argv(draw):
    """argv of design, check-prior or covering with every value it reads."""
    command = draw(st.sampled_from(["design", "check-prior", "covering"]))
    argv = [command]
    if command == "covering" and draw(st.booleans()):  # explicit geometry
        for flag in ("--L", "--W", "--S"):
            argv += [flag, str(draw(GEOMETRY_COUNTS))]
        argv += ["--B", repr(draw(REALS)), "--delta", repr(draw(REALS))]
    else:
        if draw(st.booleans()):
            argv += ["--function", draw(st.sampled_from(["f1", "f2"]))]
        else:
            argv += ["--s", repr(draw(SMOOTHNESS)), "--p", repr(draw(SMOOTHNESS)),
                     "--q", repr(draw(SMOOTHNESS)), "--d", str(draw(DIMENSIONS)),
                     "--m", str(draw(DIMENSIONS))]
        ns = draw(st.lists(SIZES, min_size=1, max_size=1 if command == "covering" else 3,
                           unique=True))
        argv += ["--n", ",".join(map(str, sorted(ns))), "--cB", repr(draw(REALS))]
        if command != "covering":
            argv += ["--K0", repr(draw(st.one_of(st.floats(4.0, 10.0, exclude_min=True),
                                                    st.floats(4.0, 1e300)))),
                     "--counting", draw(st.sampled_from(["canonical", "compat"]))]
        if command == "check-prior":
            argv += ["--density", draw(st.sampled_from(besovbnn.DENSITY_NAMES))]
    if command == "covering" and draw(st.booleans()):
        argv += ["--a", repr(draw(st.one_of(st.just(0.0), REALS)))]
    return argv


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(argv=closed_form_argv())
def test_closed_form_commands_keep_the_exit_contract_at_the_extremes(argv):
    # Exit 0, 1 or 2, no exception (a RuntimeWarning is one here), and one
    # stderr line for every nonzero exit but check-prior's failed
    # condition, which exits 1 with its report on stdout alone.
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] != "covering":
            argv = [*argv, "--out-dir", tmp]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv)
    err = stderr.getvalue()
    assert rc in (0, 1, 2)
    if rc and not (argv[0] == "check-prior" and rc == 1 and err == ""):
        assert err.count("\n") == 1 and err.startswith(("error: ", "failure: ")), err


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


GEOMETRY = ["--L", "3", "--W", "8", "--S", "10", "--B", "2", "--delta", "0.5"]


@pytest.mark.parametrize("argv, config, message", [
    (["design", "--function", "f1", "--s", "0.5"], {}, "--function cannot be combined with --s"),
    (["check-prior", "--function", "f2", "--p", "1", "--m", "3"], {},
     "--function cannot be combined with --p/--m"),
    (["covering", "--function", "f1", "--d", "1"], {}, "--function cannot be combined with --d"),
    (["design", "--q", "2"], {"function": "f1"},
     "config key 'function' cannot be combined with --q"),
    (["covering", "--function", "f1", "--L", "3"], {}, "--L cannot be combined with --function"),
    (["covering", "--s", "1.5", "--p", "1", "--q", "1", "--W", "8", "--S", "10"], {},
     "--W/--S cannot be combined with --s/--p/--q"),
    (["covering", "--function", "f2"], {"B": 2.0},
     "config key 'B' cannot be combined with --function"),
    (["covering", "--L", "3", "--W", "8", "--S", "10", "--B", "2"], {"function": "f1"},
     "--L/--W/--S/--B cannot be combined with config key 'function'"),
    (["design"], {"function": "f1", "q": 2}, "config key 'function' cannot be combined "
     "with config key 'q'"),
    (["covering", "--function", "f2", "--B", "3"], {"B": 2.0},
     "--B cannot be combined with --function"),
    (["covering", *GEOMETRY, "--n", "1000"], {}, "--L/--W/--S/--B cannot be combined with --n"),
    (["covering", *GEOMETRY, "--cB", "3"], {}, "--L/--W/--S/--B cannot be combined with --cB"),
    (["covering", *GEOMETRY], {"n": "1000"},
     "--L/--W/--S/--B cannot be combined with config key 'n'"),
    (["covering", *GEOMETRY], {"cB": 3},
     "--L/--W/--S/--B cannot be combined with config key 'cB'"),
], ids=["design", "check-prior", "covering", "design-config", "covering-L",
        "covering-smoothness", "covering-config", "covering-geometry-config",
        "both-config", "flag-over-config", "covering-geometry-n", "covering-geometry-cB",
        "covering-geometry-n-config", "covering-geometry-cB-config"])
def test_overriding_flags_exit_2(tmp_path, capsys, argv, config, message):
    # Either set of flags would ignore the other; a --config value counts
    # as given, and is named by its key unless a flag overrides it.  An
    # explicit covering geometry reads neither --n nor --cB.
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
    env = src_env()
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


def record_start(directory, n):
    """Note in `directory` that the task at n started, and in which process;
    a file outlives the forked worker that writes it."""
    directory.mkdir(exist_ok=True)
    (directory / str(n)).write_text(str(os.getpid()))


def started_in(directory):
    """{n: pid} of the tasks that record_start saw."""
    if not directory.exists():
        return {}
    return {int(p.name): int(p.read_text()) for p in directory.iterdir()}


class Hung(BaseException):
    """A call that ran past its deadline; not an Exception, so main cannot
    turn it into an exit code."""


@contextlib.contextmanager
def deadline(seconds):
    """Raise Hung in the calling thread once the block has run `seconds`."""
    def expire(signum, frame):
        raise Hung(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
        starts = tmp_path / "starts"
        train = vi.train_replicates

        def spy(shape, datasets, *args, **kwargs):
            record_start(starts, datasets[0].n)
            return train(shape, datasets, *args, **kwargs)

        monkeypatch.setattr(vi, "train_replicates", spy)
        set_cpus(monkeypatch, 3)
        assert self.run(tmp_path / "workers", ns) == 0
        assert not multiprocessing.active_children()
        # the largest n in the calling process, the others in forked workers
        pids = started_in(starts)
        assert pids.pop(80) == os.getpid()
        assert sorted(pids) == [20, 40]
        assert os.getpid() not in pids.values()
        obj = json.loads((tmp_path / "workers" / "rate_study.json").read_text())
        medians = sequential_rate_study(ns, 2, 0)
        assert [r["median_error"] for r in obj["per_n"]] == medians
        assert [(r["n"], r["replicates"]) for r in obj["per_n"]] == [(n, 2) for n in ns]
        assert obj["fitted_slope"] == fit_rate_slope(ns, medians)
        assert obj["diverged_replicates"] == 0

        set_cpus(monkeypatch, 1)
        shutil.rmtree(starts)
        assert self.run(tmp_path / "one", ns) == 0
        assert started_in(starts) == {n: os.getpid() for n in ns}
        assert rate_study_bytes(tmp_path / "one") == rate_study_bytes(tmp_path / "workers")

    def test_without_fork_runs_in_order_in_the_caller(self, tmp_path, monkeypatch):
        ns = [20, 40, 80]
        order = []
        train = vi.train_replicates

        def spy(shape, datasets, *args, **kwargs):
            order.append((datasets[0].n, os.getpid()))
            return train(shape, datasets, *args, **kwargs)

        set_cpus(monkeypatch, 1)
        assert self.run(tmp_path / "one", ns) == 0
        monkeypatch.setattr(vi, "train_replicates", spy)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        set_cpus(monkeypatch, 3)
        assert self.run(tmp_path / "spawn-only", ns) == 0
        assert order == [(n, os.getpid()) for n in ns]
        assert rate_study_bytes(tmp_path / "spawn-only") == rate_study_bytes(tmp_path / "one")

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

    @pytest.mark.parametrize("error, line", FATAL)
    @pytest.mark.parametrize("failing_n", [20, 80], ids=["worker", "caller"])
    def test_out_of_memory_exits_1_with_one_line(self, tmp_path, monkeypatch, capsys,
                                                 failing_n, error, line):
        train = vi.train_replicates

        def exhausted_at(shape, datasets, *args, **kwargs):
            if datasets[0].n == failing_n:
                raise error(OOM_MESSAGE)
            return train(shape, datasets, *args, **kwargs)

        monkeypatch.setattr(vi, "train_replicates", exhausted_at)
        set_cpus(monkeypatch, 3)
        assert self.run(tmp_path, [20, 40, 80]) == 1
        assert capsys.readouterr().err == f"{line}\n"
        assert not multiprocessing.active_children()
        assert not (tmp_path / "rate_study.json").exists()

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_error_cancels_tasks_not_started(self, tmp_path, monkeypatch, error):
        # Two CPUs: n=80 in the calling process, n=40 then n=20 on one worker.
        # n=80 fails while n=40 still runs, so n=20 must never start.
        starts, failed = tmp_path / "starts", tmp_path / "failed"

        def wait_for(path):
            t0 = time.monotonic()
            while not path.exists() and time.monotonic() - t0 < 10.0:
                time.sleep(0.01)

        def fake(shape, datasets, *args, **kwargs):
            n = datasets[0].n
            record_start(starts, n)
            if n == 80:
                wait_for(starts / "40")
                failed.touch()
                raise error("stop")
            wait_for(failed)
            time.sleep(0.5)
            return [vi.TrainingDiverged(0, math.nan) for _ in datasets]

        monkeypatch.setattr(vi, "train_replicates", fake)
        set_cpus(monkeypatch, 2)
        assert self.run(tmp_path, [20, 40, 80]) == 1
        assert not multiprocessing.active_children()
        assert sorted(started_in(starts)) == [40, 80]

    def test_killed_worker_fails_in_one_line(self, tmp_path, monkeypatch, capsys):
        caller = os.getpid()
        train = vi.train_replicates

        def killed_at_40(shape, datasets, *args, **kwargs):
            if datasets[0].n == 40 and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return train(shape, datasets, *args, **kwargs)

        monkeypatch.setattr(vi, "train_replicates", killed_at_40)
        set_cpus(monkeypatch, 2)
        t0 = time.monotonic()
        with deadline(30.0):
            rc = self.run(tmp_path, [20, 40, 80])
        assert time.monotonic() - t0 < 15.0
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("failure: ") and err.count("\n") == 1, err
        assert not multiprocessing.active_children()
        assert not (tmp_path / "rate_study.json").exists()

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                        reason="needs 2 usable CPUs")
    def test_forked_workers_match_one_cpu_with_blas_threads(self, tmp_path):
        # Workers fork while OpenBLAS's own threads are alive.
        env = src_env(OPENBLAS_NUM_THREADS="2")
        one_cpu = min(os.sched_getaffinity(0))

        def run(out, preexec_fn=None):
            proc = subprocess.run(
                [sys.executable, "-m", "besovbnn.cli", "rate-study", "--function", "f2",
                 "--n", "20,40,80", "--replicates", "2", *fast_fit("rate-study"),
                 "--out-dir", str(out)],
                env=env, capture_output=True, timeout=300, preexec_fn=preexec_fn)
            return proc.returncode, proc.stdout, proc.stderr, rate_study_bytes(out)

        workers = run(tmp_path / "workers")
        assert workers[0] == 0, workers[2]
        assert workers == run(tmp_path / "one",
                              lambda: os.sched_setaffinity(0, {one_cpu}))

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

    def test_key_of_another_command_is_still_checked(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 1.5}))
        rc = main(["--config", str(cfg), "design", "--function", "f1",
                   "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2 and err == "error: config key 'alpha': must lie in (0, 1), got 1.5\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, line", [
        ('{"iteratons": 3, "alpha": 1.5}', "config keys no command takes: iteratons"),
        ('{"alpha": 1.5, "cB": -1}', "config key 'alpha': must lie in (0, 1), got 1.5"),
        ('{"grid-points": 3, "grid_points": 5}',
         "config file gives --grid-points more than once: grid-points, grid_points"),
        ('{"grid_points": 3, "grid_points": 5}',
         "config file gives --grid-points more than once: grid_points, grid_points"),
        ('{"iteratons": 3, "alpha": 0.1, "alpha": 0.2}',
         "config keys no command takes: iteratons"),
        ('{"alpha": 1.5, "seed": 1, "seed": 2}',
         "config file gives --seed more than once: seed, seed"),
    ], ids=["unknown-key-first", "first-value-in-file-order", "two-spellings", "repeated-key",
            "unknown-key-before-repeated", "repeated-before-rejected-value"])
    def test_which_fault_is_named(self, tmp_path, monkeypatch, capsys, text, line):
        # A key no command takes is named before anything else, then an
        # option the file names twice (whose last value would otherwise win
        # silently), and otherwise the first rejected value in file order.
        monkeypatch.setattr("besovbnn.vi.train", lambda *a, **k: pytest.fail("trained"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc = main(["--config", str(cfg), "fit", "--function", "f2",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2 and capsys.readouterr().err == f"error: {line}\n"
        assert not (tmp_path / "out").exists()

    def test_config_after_the_command_is_unrecognized(self, tmp_path, capsys):
        # --config belongs before the command; after it, the file is not read.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 1.5}))
        rc = main(["design", "--function", "f1", "--out-dir", str(tmp_path / "out"),
                   "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 2 and err == f"error: unrecognized arguments: --config {cfg}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ["{broken", '{"iteratons": 3}', '{"alpha": 1.5}'],
                             ids=["broken-file", "unknown-key", "rejected-value"])
    def test_argv_fault_is_named_before_the_file(self, tmp_path, monkeypatch, capsys, text):
        monkeypatch.setattr("besovbnn.vi.train", lambda *a, **k: pytest.fail("trained"))
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        rc = main(["--config", str(cfg), "fit", "--function", "f2", "--alpha", "2",
                   "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2 and err == "error: --alpha must lie in (0, 1), got 2.0\n"
        assert not (tmp_path / "out").exists()

    def test_one_parse_of_argv(self, tmp_path, monkeypatch):
        # The parser holds only what argv gives, and main parses argv once,
        # with or without a file, and fills in the rest itself.
        assert {k: v for k, v in vars(build_parser().parse_args(["fit", "--seed", "3"])).items()
                if k != "func"} == {"config": None, "command": "fit", "seed": 3}
        calls = []
        monkeypatch.setattr(cli, "build_parser", lambda *a: calls.append(a) or build_parser(*a))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"function": "f1"}))
        assert main(["--config", str(cfg), "covering", "--n", "100"]) == 0
        assert calls == [()]

    def test_help_does_not_read_the_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(tmp_path / "missing.json"), "fit", "--help"])
        assert exc.value.code == 0 and "--learning-rate" in capsys.readouterr().out


def run_cli(argv) -> str:
    """Code that runs the CLI on `argv` and prints its exit code."""
    return ("from besovbnn.cli import main\n"
            "try:\n"
            f"    print(main({argv!r}))\n"
            "except SystemExit as exc:\n"
            "    print(exc.code)\n")


# Whether a run loaded numpy, scipy and scipy.special, then `design` and the
# `dataclasses` and `inspect` it loads (numpy loads `inspect` too).
NOTHING = "False False False False False False"
NUMPY = "True False False False True True"
DESIGN = "False False False True True True"
DESIGNED = "True False False True True True"


@pytest.mark.parametrize("code, tail", [
    ("import besovbnn.cli as c; c.build_parser()", [NOTHING]),
    (run_cli(["--help"]), ["0", NOTHING]),
    (run_cli(["fit", "--function", "f3"]), ["2", NOTHING]),
    (run_cli(["--config", "bad.json", "fit", "--function", "f2"]), ["2", NOTHING]),
    (run_cli(["covering", "--L", "3", "--W", "10", "--S", "20", "--B", "1",
              "--delta", "0.01"]), ["0", DESIGN]),
    (run_cli(["predict", "--function", "f2", "--n", "20", "--draws", "2",
              "--grid-points", "3", "--checkpoint", "checkpoint", "--out-dir", "out"]),
     ["0", NUMPY]),
    (run_cli(["fit", "--function", "f2", "--n", "100,1000"]), ["2", NOTHING]),
    (run_cli(["rate-study", "--function", "f2", "--n", "100,300"]), ["2", NOTHING]),
    (run_cli(["predict", "--function", "f2", "--n", "20,40", "--checkpoint", "checkpoint",
              "--out-dir", "out"]), ["2", NOTHING]),
    ("import besovbnn.priors", [DESIGNED]),
    (run_cli(["fit", "--function", "f2", "--n", "100", "--iterations", "2", "--draws", "2",
              "--grid-points", "3", "--out-dir", "out"]), ["0", DESIGNED]),
    (run_cli(["design", "--function", "f2", "--n", "100,1000", "--out-dir", "out"]),
     ["0", DESIGNED]),
    (run_cli(["rate-study", "--function", "f2", "--iterations", "2", "--draws", "2",
              "--replicates", "2", "--out-dir", "out"]), ["0", DESIGNED]),
    (run_cli(["check-prior", "--function", "f2", "--n", "100", "--out-dir", "out"]),
     ["0", "True True True True True True"]),
], ids=["build-parser", "help", "exit-2", "bad-config", "covering", "predict",
        "fit-two-sizes", "rate-study-two-sizes", "predict-two-sizes", "priors",
        "fit-desk", "design", "rate-study-desk", "check-prior"])
def test_scipy_loads_only_with_the_priors(tmp_path, code, tail):
    """scipy.special, the CLI's heaviest import, loads only where a value
    needs it: in check-prior's tail masses, in a spike scale that is not
    floored at machine epsilon and in the mixture's two-component branch.
    So importing the priors, and fit, design and rate-study at a designed
    geometry, load no scipy module at all, and neither do the commands that
    build no prior.  numpy, the next heaviest, loads only in the commands
    that compute with arrays, and `design` (with `dataclasses` and
    `inspect`) only in those that design or bound a network: parsing the
    command line, --help, a rejected flag, a rejected --config value and a
    usage error of fit, predict or rate-study load neither, and `covering`
    with explicit --L/--W/--S/--B/--delta loads no numpy.  The last lines a
    fresh interpreter prints are the exit code, if any, and whether it
    loaded numpy, any scipy module, scipy.special, `design`, `dataclasses`
    and `inspect`; an exit 2 prints one 'error:' line."""
    shape = NetworkShape(d_in=1, hidden_widths=(2,))
    vi.save_checkpoint(tmp_path / "checkpoint",
                       vi.VariationalState(mu=np.zeros(shape.n_params),
                                           rho=np.zeros(shape.n_params)), shape)
    (tmp_path / "bad.json").write_text('{"alpha": 1.5}')
    code += ("\nimport sys; print(*(m in sys.modules for m in ('numpy', 'scipy', "
             "'scipy.special', 'besovbnn.design', 'dataclasses', 'inspect')))")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-len(tail):] == tail, proc.stderr
    if tail[0] == "2":
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
