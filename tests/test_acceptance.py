"""End-to-end acceptance suite.

Each test checks one numbered acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line.  Run with `pytest -s tests/test_acceptance.py`
to see the lines as they complete.
"""

import csv
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad

from besovbnn.cli import main
from besovbnn.design import (
    MixturePriorSpec,
    SmoothnessSpec,
    check_shrinkage_conditions,
    design_architecture,
    mixture_hyperparams,
)
from besovbnn.mh import MHConfig, compare_vi_mh, mh_sample
from besovbnn.network import (
    NetworkParams,
    NetworkShape,
    forward,
    loglik_and_grad,
    truncate,
)
from besovbnn.priors import (
    SpikeSlabSpec,
    make_density,
    mixture_log_density,
    spike_slab_sample,
)
from besovbnn.testbed import (
    cantor_function,
    empirical_norm,
    generate_dataset,
    log_singular_function,
    tabulated_function,
)
from besovbnn.vi import TrainConfig, elbo_gradient, frozen_elbo, train

F1 = SmoothnessSpec(s=math.log(2) / math.log(3), p=math.inf, q=math.inf, d=1, m=2)
F2 = SmoothnessSpec(s=1.5, p=1.0, q=1.0, d=1, m=2)

DESK_SHAPE = NetworkShape(d_in=1, hidden_widths=(24, 24))


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num} ({desc}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({desc}): PASS")


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def posterior_mean_error(state, shape, data, f0, draws, seed):
    rng = np.random.default_rng(seed)
    sq = state.sigma_q
    acc = np.zeros(data.n)
    for _ in range(draws):
        theta = state.mu + sq * rng.standard_normal(state.T)
        acc += forward(NetworkParams.from_flat(shape, theta), data.x)
    return empirical_norm(acc / draws - f0(data.x[:, 0]))


def test_criterion_1_table_reproduction(tmp_path):
    with criterion(1, "design-table reproduction, runtime < 1 s"):
        t0 = time.monotonic()
        for fn, d in (("f1", "a"), ("f2", "b")):
            rc = main(["design", "--function", fn, "--n", "100,1000",
                       "--out-dir", str(tmp_path / d)])
            assert rc == 0
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"design took {elapsed:.2f} s"

        expected = {
            ("a", 1): (13, 400, 0.8443, 0.1359),
            ("a", 2): (15, 1100, 0.7597, 0.0489),
            ("b", 1): (13, 200, 0.6571, 0.2710),
            ("b", 2): (17, 300, 0.4023, 0.1771),
        }
        for (d, row), (L, W, s2, pi2) in expected.items():
            r = read_csv(tmp_path / d / "design.csv")[row]
            assert int(r[1]) == L and int(r[2]) == W
            assert float(r[4]) == pytest.approx(s2, rel=2e-4)
            assert float(r[6]) == pytest.approx(pi2, rel=0.10)
        # compatibility counting mode reproduces the weights within 1%
        for fn, d, pis in (("f1", "c", (0.1359, 0.0489)), ("f2", "e", (0.2710, 0.1771))):
            rc = main(["design", "--function", fn, "--n", "100,1000",
                       "--counting", "compat", "--out-dir", str(tmp_path / d)])
            assert rc == 0
            rows = read_csv(tmp_path / d / "design.csv")
            for row, pi2 in zip(rows[1:], pis):
                assert float(row[6]) == pytest.approx(pi2, rel=0.01)


def test_criterion_2_spike_scale_order():
    with criterion(2, "log10 sigma_1 within 5%"):
        targets = {
            (F1, 100): math.log10(7.5103e-61),
            (F1, 1000): math.log10(1.1191e-82),
            (F2, 100): math.log10(1.5879e-53),
            (F2, 1000): math.log10(3.5489e-75),
        }
        for (spec, n), want in targets.items():
            mix = mixture_hyperparams(design_architecture(spec, n))
            got = mix.log_sigma1 / math.log(10.0)
            assert abs(got - want) / abs(want) < 0.05, (spec, n, got, want)


def test_criterion_3_gradient_correctness():
    with criterion(3, "gradients match finite differences, rel < 1e-5"):
        h = 1e-5
        for depth in (1, 2, 3, 4):
            rng = np.random.default_rng(300 + depth)
            shape = NetworkShape(d_in=1, hidden_widths=(4,) * depth)
            x = rng.uniform(0, 1, (10, 1))
            y = rng.standard_normal(10)
            theta = 0.5 * rng.standard_normal(shape.n_params)
            _, grad = loglik_and_grad(NetworkParams.from_flat(shape, theta), x, y, 0.3)

            def ll(t):
                return loglik_and_grad(NetworkParams.from_flat(shape, t), x, y, 0.3)[0]

            idx = rng.choice(shape.n_params, size=min(20, shape.n_params), replace=False)
            for i in idx:
                e = np.zeros_like(theta)
                e[i] = h
                fd = (ll(theta + e) - ll(theta - e)) / (2 * h)
                assert abs(grad[i] - fd) / max(abs(fd), abs(grad[i]), 1e-6) < 1e-5

            # frozen-noise ELBO gradient in the variational parameters
            from besovbnn.testbed import Dataset
            from besovbnn.vi import VariationalState

            data = Dataset(x=x, y=y, noise_sd=0.3, seed=0)
            state = VariationalState(
                mu=theta.copy(), rho=np.full(shape.n_params, -2.0)
            )
            prior = make_density("gauss")
            seed = 42
            _, g_mu, g_rho = elbo_gradient(state, shape, data, prior, 0.3, seed=seed)
            zeta = np.random.default_rng(seed).standard_normal((1, state.T))[0]

            def obj(mu, rho):
                return frozen_elbo(mu, rho, zeta, shape, x, y, prior, 0.3)

            for i in idx[:20]:
                e = np.zeros(state.T)
                e[i] = h
                fd_mu = (obj(state.mu + e, state.rho) - obj(state.mu - e, state.rho)) / (2 * h)
                fd_rho = (obj(state.mu, state.rho + e) - obj(state.mu, state.rho - e)) / (2 * h)
                assert abs(g_mu[i] - fd_mu) / max(abs(fd_mu), abs(g_mu[i]), 1e-6) < 1e-5
                assert abs(g_rho[i] - fd_rho) / max(abs(fd_rho), abs(g_rho[i]), 1e-6) < 1e-5


def test_criterion_4_prior_correctness():
    with criterion(4, "prior densities and samplers"):
        # mixture normalization within 1e-6
        spec = MixturePriorSpec(
            log_a=math.log(0.5), eta=0.9, log_sigma1=math.log(0.05), sigma2=1.5,
            pi1=0.7, pi2=0.3, B=5.0, K0=5.0,
        )
        pdf = lambda t: math.exp(mixture_log_density(t, spec))
        total = (
            quad(pdf, -np.inf, -0.2, limit=200)[0]
            + quad(pdf, -0.2, 0.2, points=[0.0], limit=200)[0]
            + quad(pdf, 0.2, np.inf, limit=200)[0]
        )
        assert total == pytest.approx(1.0, abs=1e-6)

        # Gaussian-Gaussian MC KL within 3 SE of the closed form at 1e4 draws
        rng = np.random.default_rng(4)
        mu, sq = 1.0, 0.5
        prior = make_density("gauss")
        zeta = rng.standard_normal(10_000)
        theta = mu + sq * zeta
        log_q = -0.5 * math.log(2 * math.pi) - math.log(sq) - 0.5 * zeta**2
        diffs = log_q - prior.log_pdf(theta)
        closed = 0.5 * (sq**2 + mu**2 - 1.0 - math.log(sq**2))
        se = np.std(diffs) / math.sqrt(len(diffs))
        assert abs(np.mean(diffs) - closed) < 3 * se

        # spike-slab support frequencies within 3 binomial SD at 1e5 draws
        ss = SpikeSlabSpec(T=10, S=3, B=1.0)
        counts = np.zeros(10)
        n_draws = 100_000
        for seed in range(n_draws):
            counts[list(spike_slab_sample(ss, seed).gamma)] += 1
        sd = math.sqrt(0.3 * 0.7 / n_draws)
        assert np.all(np.abs(counts / n_draws - 0.3) < 3 * sd)


def test_criterion_5_shrinkage_checker():
    with criterion(5, "shrinkage-condition checker, runtime < 10 s"):
        t0 = time.monotonic()
        for spec in (F1, F2):
            for n in (100, 500, 1000, 5000):
                arch = design_architecture(spec, n)
                g = make_density("mixture", mixture_spec=mixture_hyperparams(arch))
                report = check_shrinkage_conditions(g, arch)
                assert report.all_pass, (spec, n, report.to_dict())
        gauss_report = check_shrinkage_conditions(
            make_density("gauss"), design_architecture(F1, 100)
        )
        assert not gauss_report.pass_spike
        assert time.monotonic() - t0 < 10.0


def test_criterion_6_truncation_perturbation_bound():
    with criterion(6, "truncation sup-norm perturbation bound, 100 random nets"):
        rng = np.random.default_rng(6)
        grid = np.linspace(0.0, 1.0, 1000)[:, None]
        for _ in range(100):
            L = int(rng.integers(1, 4))
            W = int(rng.integers(2, 9))
            shape = NetworkShape(d_in=1, hidden_widths=(W,) * L)
            B = float(rng.uniform(0.5, 2.0))
            theta = rng.uniform(-B, B, shape.n_params)
            p = NetworkParams.from_flat(shape, theta)
            a = 10.0 ** rng.uniform(-4, -1)
            q = truncate(p, a)
            diff = np.max(np.abs(forward(p, grid) - forward(q, grid)))
            depth = L + 1  # hidden layers plus the linear output layer
            bound = a * depth * max(B, 1.0) ** (depth - 1) * (W + 1) ** depth
            assert diff <= bound * (1 + 1e-12), (L, W, B, a, diff, bound)


def test_criterion_7_contraction(tmp_path):
    with criterion(7, "error contraction and rate-study slope"):
        # part 1: median posterior-mean error strictly decreases from
        # n = 100 to n = 1000 for both targets over 5 seeded replicates
        for f0, spec in ((cantor_function(), F1), (log_singular_function(), F2)):
            medians = {}
            for n in (100, 1000):
                prior = make_density(
                    "mixture",
                    mixture_spec=mixture_hyperparams(design_architecture(spec, n)),
                )
                errs = []
                for r in range(5):
                    data = generate_dataset(f0, n, 0.1, seed=100 * r + n)
                    state, _ = train(
                        DESK_SHAPE, data, prior,
                        TrainConfig(iterations=600, learning_rate=0.01, seed=r),
                        sigma=0.1,
                    )
                    errs.append(
                        posterior_mean_error(state, DESK_SHAPE, data, f0, 50, 900 + r)
                    )
                medians[n] = float(np.median(errs))
            assert medians[1000] < medians[100], (f0.kind, medians)

        # part 2: fitted log-log slope for the second target is below -0.1
        rc = main(["rate-study", "--function", "f2", "--n", "100,300,1000",
                   "--replicates", "5", "--iterations", "600",
                   "--learning-rate", "0.01", "--draws", "50", "--seed", "0",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        result = json.loads((tmp_path / "rate_study.json").read_text())
        assert result["fitted_slope"] < -0.1, result
        assert result["theoretical_slope"] == pytest.approx(-0.375)


def test_criterion_8_vi_mh_crosscheck():
    with criterion(8, "VI vs Metropolis predictive means within 0.1"):
        f0 = tabulated_function([0.0, 1.0], [0.5, 0.5])
        data = generate_dataset(f0, 200, 0.1, seed=0)
        tiny = NetworkShape(d_in=1, hidden_widths=(4,))
        prior = make_density("gauss", sigma=1.0)
        state, _ = train(
            tiny, data, prior,
            TrainConfig(iterations=2000, learning_rate=0.01, seed=0), sigma=0.1,
        )
        grid = np.linspace(0.0, 1.0, 101)
        rng = np.random.default_rng(1)
        sq = state.sigma_q
        acc = np.zeros(101)
        for _ in range(400):
            theta = state.mu + sq * rng.standard_normal(state.T)
            acc += forward(NetworkParams.from_flat(tiny, theta), grid[:, None])
        vi_mean = acc / 400
        res = mh_sample(
            tiny, data, prior, 0.1,
            MHConfig(steps=30_000, burn_in=10_000, proposal_sd=0.05, seed=2),
        )
        out = compare_vi_mh(vi_mean, res, grid, tolerance=0.1)
        assert out["within_tolerance"], out


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "byte-identical CLI reruns"):
        fast = ["--iterations", "60", "--learning-rate", "0.02", "--draws", "20",
                "--grid-points", "21"]
        runs = {
            "design": ["design", "--function", "f1", "--n", "100,1000"],
            "fit": ["fit", "--function", "f2", "--n", "50", "--seed", "5", *fast],
            "check": ["check-prior", "--function", "f2", "--n", "100"],
            "rate": ["rate-study", "--function", "f2", "--n", "20,40,80",
                     "--replicates", "1", "--seed", "3", *fast],
        }
        outputs = {
            "design": ["design.json", "design.csv"],
            "fit": ["manifest.json", "predictive.csv", "errors.csv", "trace.csv",
                    "checkpoint.json", "checkpoint.bin"],
            "check": ["condition_report.json"],
            "rate": ["rate_study.json", "rate_study.csv"],
        }
        for name, argv in runs.items():
            for rep in ("x", "y"):
                rc = main([*argv, "--out-dir", str(tmp_path / name / rep)])
                assert rc == 0
            for fname in outputs[name]:
                a = (tmp_path / name / "x" / fname).read_bytes()
                b = (tmp_path / name / "y" / fname).read_bytes()
                assert a == b, f"{name}/{fname} differs between identical reruns"
