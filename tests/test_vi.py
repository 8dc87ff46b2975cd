import json
import math

import numpy as np
import pytest

from besovbnn.network import NetworkShape, forward, NetworkParams
from besovbnn.priors import FlatDensity, make_density
from besovbnn.testbed import Dataset, cantor_function, generate_dataset, tabulated_function
from besovbnn import vi
from besovbnn.vi import (
    StepBuffers,
    TrainConfig,
    TrainingDiverged,
    VariationalState,
    _init_state,
    elbo_estimate,
    elbo_gradient,
    frozen_elbo,
    load_checkpoint,
    posterior_predictive,
    save_checkpoint,
    softplus,
    train,
)

_LOG_2PI = math.log(2.0 * math.pi)


def inv_softplus(s):
    return math.log(math.expm1(s))


def small_data(n=20, seed=0):
    f = tabulated_function([0.0, 1.0], [0.5, 0.5])
    return f, generate_dataset(f, n, 0.05, seed=seed)


def make_state(shape, mu_val=0.0, sigma_q=0.1, seed=0):
    T = shape.n_params
    return VariationalState(
        mu=np.full(T, mu_val), rho=np.full(T, inv_softplus(sigma_q)), seed=seed
    )


class TestSoftplus:
    def test_values(self):
        assert softplus(0.0) == pytest.approx(math.log(2.0))
        assert softplus(-40.0) == pytest.approx(math.exp(-40.0), rel=1e-6)
        assert softplus(50.0) == pytest.approx(50.0, rel=1e-12)


class TestKLAgainstClosedForm:
    def test_gaussian_kl(self):
        # E_q[log q - log pi] for q = N(1, 0.5^2), pi = N(0, 1):
        # KL = 0.5 (sigma^2 + mu^2 - 1 - log sigma^2) = 0.8181...
        rng = np.random.default_rng(21)
        mu, sq = 1.0, 0.5
        prior = make_density("gauss", sigma=1.0)
        zeta = rng.standard_normal(100_000)
        theta = mu + sq * zeta
        log_q = -0.5 * _LOG_2PI - math.log(sq) - 0.5 * zeta**2
        kl_mc = np.mean(log_q - prior.log_pdf(theta))
        closed = 0.5 * (sq**2 + mu**2 - 1.0 - math.log(sq**2))
        assert closed == pytest.approx(0.81814718, abs=1e-8)
        se = np.std(log_q - prior.log_pdf(theta)) / math.sqrt(100_000)
        assert abs(kl_mc - closed) < 3 * se

    def test_kl_of_q_against_itself_is_zero(self):
        rng = np.random.default_rng(5)
        mu, sq = 0.7, 0.3
        prior = make_density("gauss", sigma=sq)
        zeta = rng.standard_normal(100_000)
        theta = mu + sq * zeta
        log_q = -0.5 * _LOG_2PI - math.log(sq) - 0.5 * zeta**2
        diffs = log_q - (prior.log_pdf(theta - mu))
        assert np.mean(diffs) == pytest.approx(
            0.0, abs=3 * np.std(diffs) / math.sqrt(100_000) + 1e-12
        )


class TestElboEstimate:
    def test_flat_prior_identity(self):
        # with a flat prior the ELBO is exactly the frozen-noise objective
        # averaged over the same seeded noise draws
        shape = NetworkShape(d_in=1, hidden_widths=(4,))
        _, data = small_data()
        state = make_state(shape, mu_val=0.1, sigma_q=0.05)
        prior = FlatDensity()
        seed, mc = 13, 8
        est = elbo_estimate(state, shape, data, prior, sigma=0.1, mc=mc, seed=seed)
        zetas = np.random.default_rng(seed).standard_normal((mc, state.T))
        manual = np.mean(
            [
                frozen_elbo(state.mu, state.rho, z, shape, data.x, data.y, prior, 0.1)
                for z in zetas
            ]
        )
        assert est == pytest.approx(manual, rel=1e-12)

    def test_invalid_args(self):
        shape = NetworkShape(d_in=1, hidden_widths=(3,))
        _, data = small_data()
        state = make_state(shape)
        with pytest.raises(ValueError):
            elbo_estimate(state, shape, data, FlatDensity(), 0.1, mc=0, seed=0)
        bad = VariationalState(mu=np.zeros(5), rho=np.zeros(5))
        with pytest.raises(ValueError):
            elbo_estimate(bad, shape, data, FlatDensity(), 0.1, mc=1, seed=0)


class TestElboGradient:
    @pytest.mark.parametrize("prior_name", ["flat", "gauss"])
    def test_matches_finite_differences(self, prior_name):
        shape = NetworkShape(d_in=1, hidden_widths=(4, 4))
        _, data = small_data(n=12, seed=2)
        rng = np.random.default_rng(31)
        state = VariationalState(
            mu=0.3 * rng.standard_normal(shape.n_params),
            rho=np.full(shape.n_params, inv_softplus(0.08)),
        )
        prior = FlatDensity() if prior_name == "flat" else make_density("gauss")
        seed = 77
        objective, g_mu, g_rho = elbo_gradient(state, shape, data, prior, 0.2, seed=seed)
        zeta = np.random.default_rng(seed).standard_normal((1, state.T))[0]

        def obj(mu, rho):
            return frozen_elbo(mu, rho, zeta, shape, data.x, data.y, prior, 0.2)

        assert objective == obj(state.mu, state.rho)

        h = 1e-5
        idx = rng.choice(state.T, size=20, replace=False)
        for i in idx:
            e = np.zeros(state.T)
            e[i] = h
            fd_mu = (obj(state.mu + e, state.rho) - obj(state.mu - e, state.rho)) / (2 * h)
            fd_rho = (obj(state.mu, state.rho + e) - obj(state.mu, state.rho - e)) / (2 * h)
            for got, want in ((g_mu[i], fd_mu), (g_rho[i], fd_rho)):
                denom = max(abs(want), abs(got), 1e-6)
                assert abs(got - want) / denom < 1e-5, f"coord {i}"

    def test_entropy_term_dominates_without_data_signal(self):
        # with a flat prior and essentially no likelihood signal the rho
        # gradient is the entropy derivative sigmoid(rho) / sigma_q
        shape = NetworkShape(d_in=1, hidden_widths=(3,))
        _, data = small_data(n=5)
        state = make_state(shape, mu_val=0.2, sigma_q=0.3)
        _, g_mu, g_rho = elbo_gradient(
            state, shape, data, FlatDensity(), sigma=1e8, seed=4
        )
        sig = 1.0 / (1.0 + math.exp(-inv_softplus(0.3)))
        np.testing.assert_allclose(g_rho, sig / 0.3, atol=1e-8)
        np.testing.assert_allclose(g_mu, 0.0, atol=1e-8)

    def test_buffers_match_a_fresh_set_and_must_fit(self):
        shape = NetworkShape(d_in=1, hidden_widths=(4, 4))
        _, data = small_data(n=12, seed=2)
        state = make_state(shape, mu_val=0.3, sigma_q=0.08)
        prior = make_density("gauss")
        buffers = StepBuffers(shape, 12)
        for seed in (5, 6):
            fresh = elbo_gradient(state, shape, data, prior, 0.2, seed=seed)
            reused = elbo_gradient(state, shape, data, prior, 0.2, seed=seed, buffers=buffers)
            assert reused[1] is buffers.g_mu and reused[2] is buffers.g_rho
            assert reused[0] == fresh[0]
            for got, want in zip(reused[1:], fresh[1:]):
                assert got.tobytes() == want.tobytes()
        for wrong in (StepBuffers(shape, 11), StepBuffers(NetworkShape(1, (4,)), 12)):
            with pytest.raises(ValueError, match="buffers built for"):
                elbo_gradient(state, shape, data, prior, 0.2, seed=5, buffers=wrong)


class TestTrain:
    def test_recovers_constant_function(self):
        f, data = small_data(n=200, seed=9)
        shape = NetworkShape(d_in=1, hidden_widths=(8,))
        config = TrainConfig(iterations=1500, learning_rate=0.01, seed=1)
        state, trace = train(shape, data, FlatDensity(), config, sigma=0.05)
        grid = np.linspace(0, 1, 51)
        pred = posterior_predictive(state, shape, grid, 200, f, data, seed=2)
        assert np.max(np.abs(pred.mean - 0.5)) < 0.05
        assert pred.median_error() < 0.05

    def test_trace_improves(self):
        _, data = small_data(n=100, seed=3)
        shape = NetworkShape(d_in=1, hidden_widths=(6,))
        config = TrainConfig(iterations=800, learning_rate=0.01, seed=0)
        _, trace = train(shape, data, make_density("gauss"), config, sigma=0.1)
        k = len(trace) // 10
        assert np.mean(trace[-k:]) > np.mean(trace[:k])

    def test_seed_determinism(self):
        _, data = small_data(n=50, seed=8)
        shape = NetworkShape(d_in=1, hidden_widths=(5,))
        config = TrainConfig(iterations=50, learning_rate=0.01, seed=123)
        s1, t1 = train(shape, data, make_density("gauss"), config)
        s2, t2 = train(shape, data, make_density("gauss"), config)
        np.testing.assert_array_equal(s1.mu, s2.mu)
        np.testing.assert_array_equal(s1.rho, s2.rho)
        np.testing.assert_array_equal(t1, t2)

    def test_minibatch_runs(self):
        _, data = small_data(n=64, seed=4)
        shape = NetworkShape(d_in=1, hidden_widths=(4,))
        config = TrainConfig(iterations=30, batch_size=16, learning_rate=0.01, seed=2)
        state, trace = train(shape, data, make_density("gauss"), config)
        assert state.step == 30 and np.all(np.isfinite(trace))

    @pytest.mark.parametrize("batch_size", [0, 16])
    def test_trace_records_the_frozen_elbo_of_the_step(self, batch_size):
        # trace[0] is the single-sample ELBO at the initial state with the
        # step-0 noise draw, on the step-0 minibatch, reweighted by n / batch
        _, data = small_data(n=64, seed=4)
        shape = NetworkShape(d_in=1, hidden_widths=(4,))
        prior = make_density("gauss")
        config = TrainConfig(iterations=3, batch_size=batch_size, learning_rate=0.01, seed=2)
        _, trace = train(shape, data, prior, config, sigma=0.1)

        init = _init_state(shape, config)
        rng = np.random.default_rng(config.seed + 1)
        if batch_size:
            idx = rng.choice(data.n, size=batch_size, replace=False)
            x, y, n_weight = data.x[idx], data.y[idx], data.n / batch_size
        else:
            x, y, n_weight = data.x, data.y, 1.0
        step_seed = int(rng.integers(0, 2**63 - 1))
        zeta = np.random.default_rng(step_seed).standard_normal((1, init.T))[0]
        want = frozen_elbo(init.mu, init.rho, zeta, shape, x, y, prior, 0.1, n_weight)
        assert trace[0] == want

    def test_negative_batch_size_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=-3)

    def test_divergence_raises(self):
        f = tabulated_function([0.0, 1.0], [0.5, 0.5])
        data = Dataset(x=[[0.2], [0.8]], y=[math.inf, 0.0], noise_sd=0.0, seed=0)
        shape = NetworkShape(d_in=1, hidden_widths=(3,))
        with pytest.raises(TrainingDiverged), np.errstate(invalid="ignore"):
            train(shape, data, FlatDensity(), TrainConfig(iterations=10))


class TestPosteriorPredictive:
    def test_band_collapses_with_tiny_scale(self):
        shape = NetworkShape(d_in=1, hidden_widths=(4,))
        rng = np.random.default_rng(6)
        mu = rng.standard_normal(shape.n_params)
        state = VariationalState(mu=mu, rho=np.full(shape.n_params, -30.0))
        f, data = small_data(n=10)
        grid = np.linspace(0, 1, 21)
        pred = posterior_predictive(state, shape, grid, 100, f, data, seed=1)
        det = forward(NetworkParams.from_flat(shape, mu), grid[:, None])
        np.testing.assert_allclose(pred.mean, det, atol=1e-6)
        np.testing.assert_allclose(pred.upper - pred.lower, 0.0, atol=1e-6)

    def test_design_grid_reuses_the_grid_pass(self, monkeypatch):
        # with the training design as the grid, each draw evaluates the
        # network once, and every output equals that of an equal copy
        shape = NetworkShape(d_in=1, hidden_widths=(4,))
        state = make_state(shape, mu_val=0.2, sigma_q=0.3)
        f, data = small_data(n=10)
        calls = []

        def counting_forward(params, x):
            calls.append(x)
            return forward(params, x)

        monkeypatch.setattr(vi, "forward", counting_forward)
        on_design = posterior_predictive(state, shape, data.x, 7, f, data, seed=3)
        assert len(calls) == 7
        copy = posterior_predictive(state, shape, data.x.copy(), 7, f, data, seed=3)
        assert len(calls) == 7 + 14
        for name in ("mean", "lower", "upper", "errors"):
            assert getattr(on_design, name).tobytes() == getattr(copy, name).tobytes()

    def test_draws_validation(self):
        shape = NetworkShape(d_in=1, hidden_widths=(2,))
        state = make_state(shape)
        f, data = small_data(n=5)
        with pytest.raises(ValueError):
            posterior_predictive(state, shape, [0.5], 1, f, data)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        shape = NetworkShape(d_in=1, hidden_widths=(4, 3))
        rng = np.random.default_rng(0)
        state = VariationalState(
            mu=rng.standard_normal(shape.n_params),
            rho=rng.standard_normal(shape.n_params),
            step=17,
            seed=5,
        )
        path = tmp_path / "ckpt"
        save_checkpoint(path, state, shape)
        loaded, loaded_shape = load_checkpoint(path)
        assert loaded_shape == shape
        assert loaded.step == 17 and loaded.seed == 5
        np.testing.assert_array_equal(loaded.mu, state.mu)
        np.testing.assert_array_equal(loaded.rho, state.rho)

    def test_rejects_unknown_layout(self, tmp_path):
        shape = NetworkShape(d_in=1, hidden_widths=(2,))
        state = make_state(shape)
        path = tmp_path / "ckpt"
        save_checkpoint(path, state, shape)
        env = (tmp_path / "ckpt.json").read_text().replace(
            "layer-major", "column-major"
        )
        (tmp_path / "ckpt.json").write_text(env)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [0, 2, "1", None])
    def test_rejects_other_schema_version(self, tmp_path, version):
        shape = NetworkShape(d_in=1, hidden_widths=(2,))
        state = make_state(shape)
        path = tmp_path / "ckpt"
        save_checkpoint(path, state, shape)
        env = json.loads((tmp_path / "ckpt.json").read_text())
        env["schema_version"] = version
        (tmp_path / "ckpt.json").write_text(json.dumps(env))
        with pytest.raises(ValueError, match="schema_version"):
            load_checkpoint(path)
