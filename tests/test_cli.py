import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import besovbnn
from besovbnn.cli import fit_rate_slope, main


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
                *FAST_FIT, "--draws", "1"]
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
    ("--batch-size", "-1"),
    ("--noise-sd", "0"), ("--noise-sd", "nan"),
]


class TestFlagValidation:
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
                *FAST_FIT, flag, value]
        if command == "predict":
            argv += ["--checkpoint", str(tmp_path / "missing")]
        if command == "rate-study":
            argv += ["--n", "20,40,80", "--replicates", "1"]
        assert main(argv) == 2
        assert f"error: {flag} must" in capsys.readouterr().err
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
                   "--out-dir", str(out_dir), *FAST_FIT])
        assert rc == 0
        rows = read_csv(out_dir / "predictive.csv")
        assert rows[0] == ["x", "mean", "lo", "hi"] and len(rows) == 22

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        rc = main(["predict", "--function", "f2", "--n", "50",
                   "--checkpoint", str(tmp_path / "missing"),
                   "--out-dir", str(tmp_path / "pred"), *FAST_FIT])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "missing.json" in err
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
                   "--out-dir", str(tmp_path / "pred"), *FAST_FIT])
        assert rc == 1


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


class TestRateStudy:
    def test_requires_three_sizes(self, tmp_path):
        rc = main(["rate-study", "--function", "f2", "--n", "100,200",
                   "--out-dir", str(tmp_path), *FAST_FIT])
        assert rc == 2

    def test_micro_run(self, tmp_path):
        rc = main(["rate-study", "--function", "f2", "--n", "20,40,80",
                   "--replicates", "1", "--seed", "0",
                   "--out-dir", str(tmp_path), *FAST_FIT])
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
                   *FAST_FIT])
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
