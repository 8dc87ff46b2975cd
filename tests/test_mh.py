import math

import numpy as np
import pytest

from besovbnn import mh
from besovbnn.mh import MHConfig, MHResult, compare_vi_mh, mh_sample
from besovbnn.network import NetworkParams, NetworkShape, PassBuffers, forward, loglik
from besovbnn.priors import make_density
from besovbnn.testbed import generate_dataset, tabulated_function


def ess(x):
    """Crude effective sample size from the lag-1 autocorrelation."""
    x = np.asarray(x)
    r = np.corrcoef(x[:-1], x[1:])[0, 1]
    r = min(max(r, 0.0), 0.999)
    return len(x) * (1 - r) / (1 + r)


TINY_SHAPE = NetworkShape(d_in=1, hidden_widths=(2,))  # 7 parameters


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MHConfig(steps=10, burn_in=10)
        with pytest.raises(ValueError):
            MHConfig(steps=10, burn_in=0, proposal_sd=0.0)
        with pytest.raises(ValueError):
            MHConfig(steps=10, burn_in=0, proposal_sd=math.nan)


class TestPriorRecovery:
    def test_gaussian_prior_moments(self):
        # with no data the chain samples the prior; check first and second
        # moments of each coordinate against N(0, 0.7^2) within 3 ESS-based SE
        prior = make_density("gauss", sigma=0.7)
        config = MHConfig(steps=30_000, burn_in=5_000, proposal_sd=0.5, seed=1)
        res = mh_sample(TINY_SHAPE, None, prior, sigma=0.1, config=config)
        for j in range(TINY_SHAPE.n_params):
            x = res.chain[:, j]
            n_eff = ess(x)
            se_mean = 0.7 / math.sqrt(n_eff)
            assert abs(np.mean(x)) < 3 * se_mean, f"coord {j}"
            se_var = 0.7**2 * math.sqrt(2.0 / n_eff)
            assert abs(np.var(x) - 0.49) < 3 * se_var, f"coord {j}"

    def test_acceptance_adapts_toward_target(self):
        prior = make_density("gauss")
        config = MHConfig(steps=20_000, burn_in=8_000, proposal_sd=5.0, seed=3)
        res = mh_sample(TINY_SHAPE, None, prior, sigma=0.1, config=config)
        assert 0.1 < res.acceptance_rate < 0.4

    def test_tiny_proposal_accepts_everything(self):
        prior = make_density("gauss")
        config = MHConfig(steps=600, burn_in=500, proposal_sd=1e-8, seed=0)
        res = mh_sample(TINY_SHAPE, None, prior, sigma=0.1, config=config)
        assert res.acceptance_rate > 0.99


class _ShiftedGaussianTarget:
    """Coordinatewise N(mean, sd^2) target, used to validate the kernel
    against a known non-centered distribution."""

    def __init__(self, mean, sd):
        self.mean = mean
        self.sd = sd

    def log_density_sum(self, theta):
        # a float for a vector (T,), an array (R,) for a stack (R, T)
        z = (np.asarray(theta, dtype=float) - self.mean) / self.sd
        total = np.sum(-0.5 * z**2 - math.log(self.sd), axis=-1)
        return float(total) if np.ndim(total) == 0 else total


class TestKnownTarget:
    def test_shifted_gaussian_moments(self):
        mean, sd = 1.2, 0.4
        target = _ShiftedGaussianTarget(mean, sd)
        config = MHConfig(steps=40_000, burn_in=10_000, proposal_sd=0.3, seed=4)
        res = mh_sample(TINY_SHAPE, None, target, sigma=0.1, config=config)
        for j in range(TINY_SHAPE.n_params):
            x = res.chain[:, j]
            n_eff = ess(x)
            assert abs(np.mean(x) - mean) < 4 * sd / math.sqrt(n_eff), f"coord {j}"
            assert np.var(x) == pytest.approx(sd**2, rel=0.2)


class TestWithData:
    def test_one_pass_buffer_set_per_chain(self, monkeypatch):
        # one lone-network call scores the start point; every later call is
        # a stacked pass of PROPOSALS_PER_PASS proposals in one reused
        # PassBuffers, fewer calls than half the steps; the chain equals a
        # chain whose every likelihood call allocates afresh
        f0 = tabulated_function([0.0, 1.0], [0.5, 0.5])
        data = generate_dataset(f0, 30, 0.1, seed=1)
        config = MHConfig(steps=400, burn_in=100, proposal_sd=0.05, seed=2)
        prior = make_density("gauss")
        seen = []

        def fresh_call(params, x, y, sigma, buffers=None):
            seen.append((params.stack, buffers))
            return loglik(params, x, y, sigma)

        monkeypatch.setattr(mh, "loglik", fresh_call)
        want = mh_sample(TINY_SHAPE, data, prior, 0.1, config)
        monkeypatch.undo()
        got = mh_sample(TINY_SHAPE, data, prior, 0.1, config)
        assert got.chain.tobytes() == want.chain.tobytes()
        assert got.acceptance_rate == want.acceptance_rate
        assert seen[0] == (None, None)
        stacks, passes = zip(*seen[1:])
        assert isinstance(passes[0], PassBuffers) and passes[0].stack == mh.PROPOSALS_PER_PASS
        assert all(r == mh.PROPOSALS_PER_PASS for r in stacks)
        assert all(b is passes[0] for b in passes)
        assert len(seen) < config.steps / 2


class _NowhereFinite:
    """A prior whose log density is -inf everywhere."""

    def log_density_sum(self, theta):
        return -math.inf


class TestGuards:
    def test_parameter_cap(self):
        big = NetworkShape(d_in=1, hidden_widths=(20, 20))
        with pytest.raises(ValueError):
            mh_sample(big, None, make_density("gauss"), 0.1, MHConfig(steps=10, burn_in=1))

    def test_bad_initial_point(self):
        # the chain starts at 0, where a custom prior may still be -inf
        with pytest.raises(ValueError, match="initial point"):
            mh_sample(TINY_SHAPE, None, _NowhereFinite(), 0.1, MHConfig(steps=10, burn_in=1))


class TestCompare:
    def test_identical_means_have_zero_diff(self):
        chain = np.zeros((10, TINY_SHAPE.n_params))
        res = MHResult(chain=chain, acceptance_rate=0.2, proposal_sd=0.1, shape=TINY_SHAPE)
        grid = np.linspace(0, 1, 11)
        out = compare_vi_mh(np.zeros(11), res, grid)
        assert out["max_abs_diff"] == 0.0 and out["within_tolerance"]

    def test_flags_large_difference(self):
        chain = np.zeros((10, TINY_SHAPE.n_params))
        res = MHResult(chain=chain, acceptance_rate=0.2, proposal_sd=0.1, shape=TINY_SHAPE)
        grid = np.linspace(0, 1, 11)
        out = compare_vi_mh(np.full(11, 0.5), res, grid, tolerance=0.1)
        assert out["max_abs_diff"] == pytest.approx(0.5)
        assert not out["within_tolerance"]

    @pytest.mark.parametrize("draws", [1, 128, 300])
    def test_chain_mean_equals_a_draw_by_draw_sum(self, draws):
        shape = NetworkShape(d_in=2, hidden_widths=(4, 3))
        rng = np.random.default_rng(draws)
        chain = rng.standard_normal((draws, shape.n_params))
        grid = rng.uniform(0, 1, (17, 2))
        acc = np.zeros(len(grid))
        for theta in chain:
            acc += forward(NetworkParams.from_flat(shape, theta), grid)
        want = acc / draws
        res = MHResult(chain=chain, acceptance_rate=0.2, proposal_sd=0.1, shape=shape)
        assert compare_vi_mh(want, res, grid)["max_abs_diff"] == 0.0

    def test_grid_mismatch(self):
        res = MHResult(
            chain=np.zeros((5, TINY_SHAPE.n_params)),
            acceptance_rate=0.2,
            proposal_sd=0.1,
            shape=TINY_SHAPE,
        )
        with pytest.raises(ValueError):
            compare_vi_mh(np.zeros(3), res, np.linspace(0, 1, 5))
