import contextlib
import json
import math
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from besovbnn import design as dz
from besovbnn.network import NetworkShape, forward, NetworkParams, PassBuffers
from besovbnn.priors import make_density
from besovbnn.testbed import (
    Dataset,
    cantor_function,
    generate_dataset,
    log_singular_function,
    tabulated_function,
)
from besovbnn import vi
from besovbnn.vi import (
    StepBuffers,
    TrainConfig,
    TrainingDiverged,
    VariationalState,
    _init_state,
    elbo_gradient,
    frozen_elbo,
    load_checkpoint,
    posterior_predictive,
    save_checkpoint,
    softplus,
    train,
    train_replicates,
)

from oracles import FlatDensity

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
        objective, g_mu, g_rho = elbo_gradient(state, shape, data.x, data.y, prior, 0.2, seed=seed)
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
            state, shape, data.x, data.y, FlatDensity(), sigma=1e8, seed=4
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
            fresh = elbo_gradient(state, shape, data.x, data.y, prior, 0.2, seed=seed)
            reused = elbo_gradient(state, shape, data.x, data.y, prior, 0.2, seed=seed, buffers=buffers)
            assert reused[0] == fresh[0]
            for got, want in zip(reused[1:], fresh[1:]):
                assert got.tobytes() == want.tobytes()
        for wrong in (StepBuffers(shape, 11), StepBuffers(NetworkShape(1, (4,)), 12)):
            with pytest.raises(ValueError, match="buffers built for"):
                elbo_gradient(state, shape, data.x, data.y, prior, 0.2, seed=5, buffers=wrong)

    @pytest.mark.parametrize("stack", [None, 2])
    def test_noise_and_softplus_filled_by_the_caller_match_a_seeded_call(self, stack):
        # seed=None reads zeta and sq as the caller left them in the buffers
        shape = NetworkShape(d_in=1, hidden_widths=(4, 4))
        _, data = small_data(n=12, seed=2)
        prior = make_density("gauss")
        state, x, y, seeds = make_state(shape, mu_val=0.3, sigma_q=0.08), data.x, data.y, [5]
        if stack is not None:
            state = VariationalState(mu=np.stack([state.mu, -state.mu]),
                                     rho=np.stack([state.rho, state.rho - 1.0]))
            x, y, seeds = np.stack([x, x]), np.stack([y, y[::-1]]), [5, 6]
        want = elbo_gradient(state, shape, x, y, prior, 0.2,
                             seed=seeds[0] if stack is None else seeds)
        buffers = StepBuffers(shape, 12, stack)
        for z, seed in zip(buffers.zeta.reshape(len(seeds), -1), seeds):
            z[:] = np.random.default_rng(seed).standard_normal(state.T)
        buffers.sq[:] = softplus(state.rho)
        got = elbo_gradient(state, shape, x, y, prior, 0.2, seed=None, buffers=buffers)
        for a, b in zip(got, want, strict=True):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        with pytest.raises(ValueError, match="seed=None needs the buffers"):
            elbo_gradient(state, shape, x, y, prior, 0.2, seed=None)


class TestTrain:
    def test_initial_state_is_the_documented_one(self):
        # README's contract: weights N(0, 1/fan_in) drawn from the seed in
        # the flattening order, zero biases and every sigma_q = 0.01.
        shape = NetworkShape(d_in=2, hidden_widths=(5, 3))
        mu, rho = np.empty(shape.n_params), np.empty(shape.n_params)
        _init_state(shape, 6, mu, rho)
        np.testing.assert_allclose(softplus(rho), 0.01, rtol=1e-12)
        rng = np.random.default_rng(6)
        p = shape.layer_widths
        want = np.concatenate([np.append(rng.standard_normal(p[l] * p[l + 1]) / math.sqrt(p[l]),
                                         np.zeros(p[l + 1])) for l in range(len(p) - 1)])
        assert mu.tobytes() == want.tobytes()

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

        mu, rho = np.empty(shape.n_params), np.empty(shape.n_params)
        _init_state(shape, config.seed, mu, rho)
        rng = np.random.default_rng(config.seed + 1)
        if batch_size:
            idx = rng.choice(data.n, size=batch_size, replace=False)
            x, y, n_weight = data.x[idx], data.y[idx], data.n / batch_size
        else:
            x, y, n_weight = data.x, data.y, 1.0
        step_seed = int(rng.integers(0, 2**63 - 1))
        zeta = np.random.default_rng(step_seed).standard_normal((1, shape.n_params))[0]
        want = frozen_elbo(mu, rho, zeta, shape, x, y, prior, 0.1, n_weight)
        assert trace[0] == want

    def test_negative_batch_size_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=-3)

    @pytest.mark.parametrize("learning_rate", [math.nan, 0.0, math.inf])
    def test_learning_rate_rejected(self, learning_rate):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=learning_rate)

    def test_divergence_raises(self):
        f = tabulated_function([0.0, 1.0], [0.5, 0.5])
        data = Dataset(x=[[0.2], [0.8]], y=[math.inf, 0.0])
        shape = NetworkShape(d_in=1, hidden_widths=(3,))
        with pytest.raises(TrainingDiverged), np.errstate(invalid="ignore"):
            train(shape, data, FlatDensity(), TrainConfig(iterations=10))

    def test_the_last_update_is_checked(self):
        # One huge step leaves mu finite but overflows the network pass, so
        # only the objective after the last update shows the divergence.
        _, data = small_data(n=4)
        shape = NetworkShape(d_in=1, hidden_widths=(3,))
        config = TrainConfig(iterations=1, learning_rate=1e200)
        with pytest.raises(TrainingDiverged) as caught:
            train(shape, data, make_density("gauss"), config)
        assert caught.value.step == 1


def designed_f2(n):
    """The designed mixture prior and desk network shape for f2 at n."""
    spec = dz.SmoothnessSpec(s=1.5, p=1.0, q=1.0, d=1, m=2)
    arch = dz.design_architecture(spec, n, 10.0)
    prior = make_density("mixture",
                         mixture_spec=dz.mixture_hyperparams(arch, K0=5.0, counting="canonical"))
    shape = NetworkShape(1, tuple(dz.desk_scale_widths(arch)))
    return prior, shape


def warning_messages(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    return out, {(w.category, str(w.message)) for w in caught}


class TestTrainReplicates:
    def assert_fits_match(self, shape, datasets, prior, configs):
        fits = train_replicates(shape, datasets, prior, configs, sigma=0.1)
        assert len(fits) == len(configs)
        for data, config, (state, trace) in zip(datasets, configs, fits):
            want_state, want_trace = train(shape, data, prior, config, sigma=0.1)
            assert trace.tobytes() == want_trace.tobytes()
            assert state.mu.tobytes() == want_state.mu.tobytes()
            assert state.rho.tobytes() == want_state.rho.tobytes()
            assert (state.step, state.seed) == (want_state.step, want_state.seed)
        # final states are rows of one stack, not copies
        assert all(state.mu.base is fits[0][0].mu.base for state, _ in fits)
        return fits

    def test_full_batch_matches_separate_fits(self):
        prior, shape = designed_f2(100)
        f0 = log_singular_function()
        datasets = [generate_dataset(f0, 100, 0.1, seed) for seed in (3, 4, 5)]
        configs = [TrainConfig(iterations=200, learning_rate=0.01, seed=seed)
                   for seed in (3, 4, 5)]
        self.assert_fits_match(shape, datasets, prior, configs)

    def test_minibatch_matches_separate_fits(self):
        prior, shape = designed_f2(64)
        f0 = log_singular_function()
        datasets = [generate_dataset(f0, 64, 0.1, seed) for seed in (7, 8, 9)]
        configs = [TrainConfig(iterations=60, batch_size=16, learning_rate=0.01, seed=seed)
                   for seed in (7, 8, 9)]
        self.assert_fits_match(shape, datasets, prior, configs)

    def test_deep_uneven_stack_matches_separate_fits(self):
        # five hidden layers of uneven width, so the backward pass writes a
        # delta over an activation of every width
        prior, _ = designed_f2(60)
        shape = NetworkShape(1, (7, 12, 5, 9, 3))
        f0 = log_singular_function()
        datasets = [generate_dataset(f0, 60, 0.1, seed) for seed in (4, 5, 6, 7)]
        configs = [TrainConfig(iterations=80, learning_rate=0.01, seed=seed)
                   for seed in (4, 5, 6, 7)]
        self.assert_fits_match(shape, datasets, prior, configs)

    @staticmethod
    def one_diverging_stack():
        """Three replicates of a designed desk fit whose second diverges at
        step 0 (its y scaled by 1e200)."""
        prior, shape = designed_f2(50)
        f0 = log_singular_function()
        datasets = [generate_dataset(f0, 50, 0.1, seed) for seed in (1, 2, 3)]
        bad = datasets[1]
        datasets[1] = Dataset(x=bad.x, y=bad.y * 1e200)
        configs = [TrainConfig(iterations=40, learning_rate=0.01, seed=seed)
                   for seed in (1, 2, 3)]
        return prior, shape, datasets, configs

    def test_diverged_replicate_stays_frozen_in_the_stack(self):
        prior, shape, datasets, configs = self.one_diverging_stack()

        def separate():
            out = []
            for data, config in zip(datasets, configs):
                try:
                    out.append(train(shape, data, prior, config, sigma=0.1))
                except TrainingDiverged as exc:
                    out.append(exc)
            return out

        want, want_warnings = warning_messages(separate)
        fits, got_warnings = warning_messages(
            lambda: train_replicates(shape, datasets, prior, configs, sigma=0.1))
        assert got_warnings <= want_warnings
        assert isinstance(want[1], TrainingDiverged) and isinstance(fits[1], TrainingDiverged)
        assert fits[1].step == want[1].step == 0
        assert not math.isfinite(fits[1].value)
        for r in (0, 2):
            assert fits[r][1].tobytes() == want[r][1].tobytes()
            assert fits[r][0].mu.tobytes() == want[r][0].mu.tobytes()
            assert fits[r][0].rho.tobytes() == want[r][0].rho.tobytes()

    def test_diverged_replicate_leaves_a_stack_in_several_blocks(self, monkeypatch):
        # the stack's tail runs over more than one block, and the dead row
        # is frozen in each of them
        monkeypatch.setattr(vi, "TAIL_BLOCK", 3 * 100)
        self.test_diverged_replicate_stays_frozen_in_the_stack()

    def test_divergence_builds_no_second_stack(self, monkeypatch):
        built = []

        class CountedBuffers(StepBuffers):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(vi, "StepBuffers", CountedBuffers)
        prior, shape, datasets, configs = self.one_diverging_stack()
        fits = train_replicates(shape, datasets, prior, configs, sigma=0.1)
        assert isinstance(fits[1], TrainingDiverged)
        assert len(built) == 1

    @pytest.mark.parametrize("other", [
        dict(iterations=6), dict(batch_size=4), dict(learning_rate=0.02)])
    def test_configs_may_differ_only_in_seed(self, other):
        _, data = small_data(n=20)
        shape = NetworkShape(d_in=1, hidden_widths=(3,))
        base = dict(iterations=5, batch_size=0, learning_rate=0.01)
        configs = [TrainConfig(**base, seed=0), TrainConfig(**{**base, **other}, seed=1)]
        with pytest.raises(ValueError, match="differ only in seed"):
            train_replicates(shape, [data, data], FlatDensity(), configs)

    def test_datasets_must_match_configs_and_each_other(self):
        _, data = small_data(n=20)
        _, short = small_data(n=19)
        shape = NetworkShape(d_in=1, hidden_widths=(3,))
        configs = [TrainConfig(iterations=5, seed=s) for s in (0, 1)]
        with pytest.raises(ValueError, match="share n"):
            train_replicates(shape, [data, short], FlatDensity(), configs)
        with pytest.raises(ValueError, match="one dataset per config"):
            train_replicates(shape, [data], FlatDensity(), configs)
        with pytest.raises(ValueError, match="one dataset per config"):
            train_replicates(shape, [], FlatDensity(), [])


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

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, math.nan])
    def test_alpha_outside_unit_interval_raises_before_drawing(self, monkeypatch, alpha):
        shape = NetworkShape(d_in=1, hidden_widths=(2,))
        state = make_state(shape)
        f, data = small_data(n=5)
        monkeypatch.setattr("besovbnn.vi.forward", lambda *a: pytest.fail("drew"))
        with pytest.raises(ValueError, match="alpha"):
            posterior_predictive(state, shape, [0.5], 4, f, data, alpha=alpha)

    @pytest.mark.parametrize("n", [2, 4])
    def test_a_design_of_two_columns_raises_before_drawing(self, monkeypatch, n):
        # f0 is univariate; evaluated on an (n, 2) design it broadcast
        # against the draws' (n,) values: wrong errors at n = 2, numpy's
        # broadcast error at n = 4
        shape = NetworkShape(d_in=2, hidden_widths=(2,))
        state = make_state(shape)
        f, _ = small_data(n=5)
        rng = np.random.default_rng(n)
        data = Dataset(x=rng.uniform(0, 1, (n, 2)), y=rng.standard_normal(n))
        monkeypatch.setattr("besovbnn.vi.forward", lambda *a: pytest.fail("drew"))
        with pytest.raises(ValueError, match="one-column design, got d=2"):
            posterior_predictive(state, shape, data.x, 4, f, data, seed=1)


class TestPredictiveOracle:
    """posterior_predictive against a loop that calls nothing in vi: the
    draws theta_k = mu + sigma_q * zeta_k with zeta_k drawn one by one from
    default_rng(seed), and each grid point's quantiles by the linear
    interpolation formula on its sorted values."""

    @pytest.mark.parametrize("alpha", [0.05, 0.2])
    def test_mean_and_band_equal_the_oracle(self, alpha):
        shape = NetworkShape(d_in=1, hidden_widths=(4,))  # T = 13
        T = shape.n_params
        mu = np.linspace(-0.6, 0.6, T)
        rho = np.linspace(-2.0, 0.0, T)
        state = VariationalState(mu=mu, rho=rho)
        f, data = small_data(n=10)
        grid = np.linspace(0.0, 1.0, 9)
        draws, seed = 41, 12
        got = posterior_predictive(state, shape, grid, draws, f, data, alpha=alpha, seed=seed)

        sigma_q = np.log1p(np.exp(rho))
        rng = np.random.default_rng(seed)
        fvals = np.array([
            forward(NetworkParams.from_flat(shape, mu + sigma_q * rng.standard_normal(T)),
                    grid[:, None])
            for _ in range(draws)])

        def quantile(values, p):
            v = sorted(values)
            h = (len(v) - 1) * p
            lo = math.floor(h)
            return v[lo] if lo + 1 == len(v) else v[lo] + (h - lo) * (v[lo + 1] - v[lo])

        want_lower = [quantile(fvals[:, i], alpha / 2) for i in range(len(grid))]
        want_upper = [quantile(fvals[:, i], 1 - alpha / 2) for i in range(len(grid))]
        np.testing.assert_allclose(got.mean, fvals.mean(axis=0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.lower, want_lower, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.upper, want_upper, rtol=0, atol=1e-12)
        assert np.all(got.upper - got.lower > 1e-3)  # a band, not a point

    def test_fit_derives_its_seeds_from_seed(self, tmp_path):
        # fit's dataset and training use --seed; its predictive draws use
        # --seed + 10_000, which predict reuses
        from besovbnn.cli import main

        rc = main(["fit", "--function", "f1", "--n", "20", "--seed", "7",
                   "--iterations", "2", "--draws", "2", "--grid-points", "3",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["derived_seeds"] == {"dataset": 7, "train": 7, "predictive": 10_007}


class TestHelperThread:
    """At or above HELPER_MIN doubles per draw a helper thread runs the ELBO
    sums and the noise draws; below it the same tasks run inline.  Both
    paths give the same bits."""

    @staticmethod
    def both(monkeypatch, fn):
        """fn() with every size on the helper, then with every size inline."""
        real, used = vi._helper, []

        @contextlib.contextmanager
        def recording(size):
            with real(size) as helper:
                used.append(helper is not None)
                yield helper

        monkeypatch.setattr(vi, "_helper", recording)
        out = []
        for threshold in (0, 1 << 62):
            monkeypatch.setattr(vi, "HELPER_MIN", threshold)
            out.append(fn())
        assert used == [True, False]
        return out

    @staticmethod
    def diverging_minibatch_fit(iterations=40):
        """train_replicates on a stack of 3 with a minibatch, whose second
        replicate diverges."""
        prior, shape, datasets, configs = TestTrainReplicates.one_diverging_stack()
        configs = [replace(config, iterations=iterations, batch_size=20) for config in configs]
        return lambda: train_replicates(shape, datasets, prior, configs, sigma=0.1)

    @staticmethod
    def assert_same_fits(fits, want):
        assert [isinstance(fit, TrainingDiverged) for fit in want] == [False, True, False]
        for got, ref in zip(fits, want, strict=True):
            if isinstance(ref, TrainingDiverged):
                assert isinstance(got, TrainingDiverged)
                assert (got.step, repr(got.value)) == (ref.step, repr(ref.value))
                continue
            assert got[1].tobytes() == ref[1].tobytes()
            assert got[0].mu.tobytes() == ref[0].mu.tobytes()
            assert got[0].rho.tobytes() == ref[0].rho.tobytes()

    def test_train_replicates(self, monkeypatch):
        threaded, inline = self.both(monkeypatch, self.diverging_minibatch_fit())
        self.assert_same_fits(threaded, inline)

    def test_bits_hold_under_fast_thread_switching(self, monkeypatch):
        # three fits at once, each with its helper: six threads on fewer
        # cores, each pair sharing a tail of 11 blocks per step
        monkeypatch.setattr(vi, "TAIL_BLOCK", 3 * 64)
        fit = self.diverging_minibatch_fit(iterations=15)
        monkeypatch.setattr(vi, "HELPER_MIN", 1 << 62)
        want = fit()
        monkeypatch.setattr(vi, "HELPER_MIN", 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(3) as pool:
                futures = [pool.submit(fit) for _ in range(3)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for fits in results:
            self.assert_same_fits(fits, want)

    @pytest.mark.parametrize("on_design", [True, False])
    def test_posterior_predictive(self, monkeypatch, on_design):
        prior, shape = designed_f2(50)
        f0 = log_singular_function()
        data = generate_dataset(f0, 50, 0.1, seed=4)
        rng = np.random.default_rng(5)
        state = VariationalState(mu=0.3 * rng.standard_normal(shape.n_params),
                                 rho=rng.uniform(-6.0, -1.0, shape.n_params))
        grid = data.x if on_design else np.linspace(0.0, 1.0, 17)
        threaded, inline = self.both(
            monkeypatch, lambda: posterior_predictive(state, shape, grid, 9, f0, data, seed=6))
        for name in ("mean", "lower", "upper", "errors"):
            assert getattr(threaded, name).tobytes() == getattr(inline, name).tobytes()

    def test_failure_on_the_helper_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(vi, "HELPER_MIN", 0)
        draw, threads = vi._draw_noise, []

        def failing(out, seeds):
            threads.append(threading.current_thread())
            if len(threads) == 3:
                raise RuntimeError("noise draw failed")
            draw(out, seeds)

        monkeypatch.setattr(vi, "_draw_noise", failing)
        _, data = small_data(n=20)
        start = threading.active_count()
        with pytest.raises(RuntimeError, match="noise draw failed"):
            train(NetworkShape(1, (4,)), data, FlatDensity(),
                  TrainConfig(iterations=5, learning_rate=0.01, seed=1))
        # step 0's noise is drawn on the calling thread, each later step's
        # on the helper during the pass before
        assert len(threads) == 3 and threads[2] is not threading.main_thread()
        assert threading.active_count() == start

    def test_rows_diverging_with_a_draw_pending_match_inline(self, monkeypatch):
        # every row diverges after some updates, so the fit stops while the
        # helper still draws the next step's noise
        prior, shape = designed_f2(50)
        f0 = log_singular_function()
        datasets = [generate_dataset(f0, 50, 0.1, seed) for seed in (1, 2, 3)]
        configs = [TrainConfig(iterations=6, learning_rate=1e200, seed=seed)
                   for seed in (1, 2, 3)]

        def fit():
            return train_replicates(shape, datasets, prior, configs, sigma=0.1)

        monkeypatch.setattr(vi, "HELPER_MIN", 1 << 62)
        want = fit()
        monkeypatch.setattr(vi, "HELPER_MIN", 0)
        start = threading.active_count()
        got = fit()
        assert threading.active_count() == start
        assert all(isinstance(exc, TrainingDiverged) for exc in want)
        assert all(0 < exc.step < 5 for exc in want)  # a draw was still pending
        assert ([(exc.step, repr(exc.value)) for exc in got]
                == [(exc.step, repr(exc.value)) for exc in want])

    def test_a_fit_leaves_its_buffers_holding_arrays_only(self, monkeypatch):
        # The hand-off from step to step is train_replicates' loop state: no
        # helper, seeds, pending draw or softplus mark stays in the buffers.
        monkeypatch.setattr(vi, "HELPER_MIN", 0)
        built = []

        class RecordedBuffers(StepBuffers):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(vi, "StepBuffers", RecordedBuffers)
        self.diverging_minibatch_fit(iterations=5)()
        (buffers,) = built
        fields = vars(buffers).copy()
        assert type(fields.pop("width")) is int
        # the tail's block arrays have one entry per thread: the caller's
        # and the helper's
        assert buffers.sig.shape[0] == 2
        assert all(buffers.sig.shape == getattr(buffers, name).shape
                   for name in ("g_mu", "g_rho", "work", "mask"))
        assert [name for name, value in fields.items()
                if not isinstance(value, (np.ndarray, PassBuffers, NetworkParams))] == []

    @staticmethod
    def gate_tail(monkeypatch, on_helper=None):
        """Hold the calling thread at its first tail block of each step until
        the helper has taken one, so the helper's share is never empty.
        on_helper(cols), if given, runs on each block the helper takes.
        Returns the list of the helper's blocks, one list per step."""
        block, step, caller = vi._gradient_block, vi.elbo_gradient, threading.current_thread()
        taken, per_step = threading.Event(), []

        def gated(b, own, rho, cols, prior, n_weight):
            if threading.current_thread() is caller:
                assert taken.wait(timeout=60), "the helper took no block"
            else:
                per_step[-1].append(cols)
                taken.set()
                if on_helper is not None:
                    on_helper(cols)
            return block(b, own, rho, cols, prior, n_weight)

        def each_step(*args, **kwargs):
            taken.clear()
            per_step.append([])
            return step(*args, **kwargs)

        monkeypatch.setattr(vi, "_gradient_block", gated)
        monkeypatch.setattr(vi, "elbo_gradient", each_step)
        return per_step

    def test_helper_blocks_of_the_shared_tail_match_inline(self, monkeypatch):
        # T = 81,001 in blocks of 2,048 columns: 40 blocks per step.  The
        # helper's blocks must read the zeta of their own step, not the
        # spare, which holds the next step's noise until the tail is done.
        monkeypatch.setattr(vi, "TAIL_BLOCK", 2048 * 3)
        prior, _, datasets, configs = TestTrainReplicates.one_diverging_stack()
        shape = NetworkShape(1, (200, 200, 200))
        assert shape.n_params == 81_001
        configs = [replace(config, iterations=4, batch_size=20) for config in configs]

        def fit():
            return train_replicates(shape, datasets, prior, configs, sigma=0.1)

        monkeypatch.setattr(vi, "HELPER_MIN", 1 << 62)
        want = fit()
        monkeypatch.setattr(vi, "HELPER_MIN", 0)
        per_step = self.gate_tail(monkeypatch)
        self.assert_same_fits(fit(), want)
        # four updates and the check pass, which runs no tail
        assert len(per_step) == 5 and per_step[-1] == []
        assert all(0 < len(taken) < 40 for taken in per_step[:-1])

    def test_failure_in_the_helpers_tail_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(vi, "HELPER_MIN", 0)
        monkeypatch.setattr(vi, "TAIL_BLOCK", 4)  # T = 13: four blocks

        def failing(cols):
            raise RuntimeError("tail block failed")

        per_step = self.gate_tail(monkeypatch, on_helper=failing)
        _, data = small_data(n=20)
        start = threading.active_count()
        with pytest.raises(RuntimeError, match="tail block failed"):
            train(NetworkShape(1, (4,)), data, FlatDensity(),
                  TrainConfig(iterations=5, learning_rate=0.01, seed=1))
        assert len(per_step) == 1 and len(per_step[0]) == 1
        assert threading.active_count() == start

    @pytest.mark.parametrize("helper_min", [0, 1 << 62])
    def test_elbo_gradient_after_a_fit_computes_its_own_softplus(self, monkeypatch, helper_min):
        # The fit's tail leaves sq holding softplus of its last rho; a later
        # call on the same buffers, with that rho array changed in place,
        # must not take it.
        monkeypatch.setattr(vi, "HELPER_MIN", helper_min)
        built = []

        class RecordedBuffers(StepBuffers):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(vi, "StepBuffers", RecordedBuffers)
        prior, shape = designed_f2(50)
        data = generate_dataset(log_singular_function(), 50, 0.1, seed=2)
        fitted, _ = train(shape, data, prior, TrainConfig(iterations=6, learning_rate=0.01,
                                                          seed=3), sigma=0.1)
        (buffers,) = built
        state = VariationalState(mu=fitted.mu.base, rho=fitted.rho.base)
        assert state.rho is fitted.rho.base  # the array the fit stepped
        state.rho -= 1.5
        args = (state, shape, data.x[None], data.y[None], prior, 0.1, [11])
        got = elbo_gradient(*args, buffers=buffers)
        want = elbo_gradient(*args, buffers=StepBuffers(shape, 50, 1))
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()


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

    @pytest.mark.parametrize("stacked", [False, True])
    def test_bin_bytes_match_the_concatenating_writer(self, tmp_path, stacked):
        # the file is mu then rho, as np.concatenate([mu, rho]).astype("<f8")
        # wrote it; a stack row is written as it lies, without a copy
        shape = NetworkShape(d_in=1, hidden_widths=(4, 3))
        rng = np.random.default_rng(3)
        if stacked:
            mu, rho = rng.standard_normal((2, 3, shape.n_params))
            state = VariationalState(mu=mu[1], rho=rho[1], step=4, seed=2)
        else:
            mu, rho = rng.standard_normal((2, shape.n_params))
            state = VariationalState(mu=mu, rho=rho, step=4, seed=2)
        save_checkpoint(tmp_path / "ckpt", state, shape)
        old = np.concatenate([state.mu, state.rho]).astype("<f8").tobytes()
        assert (tmp_path / "ckpt.bin").read_bytes() == old

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

    @pytest.mark.parametrize("version", [0, 2, "1", None, True])
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

    def test_load_peaks_at_two_vectors(self, tmp_path):
        # mu and rho are read straight into their arrays: no whole-file
        # buffer and no copies out of it
        shape = NetworkShape(d_in=1, hidden_widths=(200, 200, 200))
        T = shape.n_params
        assert T == 81_001
        state = make_state(shape)
        save_checkpoint(tmp_path / "ckpt", state, shape)
        tracemalloc.start()
        try:
            loaded, _ = load_checkpoint(tmp_path / "ckpt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 2 * 8 * T <= peak < 2.5 * 8 * T
        np.testing.assert_array_equal(loaded.mu, state.mu)
        np.testing.assert_array_equal(loaded.rho, state.rho)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_rejects_a_bin_of_the_wrong_length(self, tmp_path, extra):
        shape = NetworkShape(d_in=1, hidden_widths=(4, 3))
        state = make_state(shape)
        save_checkpoint(tmp_path / "ckpt", state, shape)
        bin_path = tmp_path / "ckpt.bin"
        raw = bin_path.read_bytes()
        bin_path.write_bytes(raw[:-8] if extra < 0 else raw + raw[:8])
        with pytest.raises(ValueError, match="length"):
            load_checkpoint(tmp_path / "ckpt")
