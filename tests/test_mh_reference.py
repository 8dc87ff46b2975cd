"""The forward-only Metropolis chain against a reference copy of the old loop.

`mh_sample` evaluates proposals with `loglik` (no backward pass), writes
each proposal into a persistent buffer and swaps the two buffers and their
network views on accept.  The reference below is the loop as it was written
before that: a fresh proposal `theta + sd * z` per step, `from_flat` per
step and `loglik_and_grad` with its gradient thrown away.  The arithmetic is
the same operation for operation, so the chains must agree bit for bit.
"""

import math

import numpy as np
import pytest

from besovbnn.mh import PROPOSALS_PER_PASS, MHConfig, mh_sample
from besovbnn.network import NetworkParams, NetworkShape, PassBuffers, loglik_and_grad
from besovbnn.priors import make_density
from besovbnn.testbed import generate_dataset, tabulated_function

# ----------------------------------------------------------------- reference


def ref_log_target(theta, shape, data, prior, sigma, buffers):
    lp = prior.log_density_sum(theta)
    if not math.isfinite(lp):
        return lp
    if data is None or data.n == 0:
        return lp
    params = NetworkParams.from_flat(shape, theta)
    ll, _ = loglik_and_grad(params, data.x, data.y, sigma, buffers=buffers)
    return lp + ll


def ref_mh_sample(shape, data, prior, sigma, config):
    T = shape.n_params
    rng = np.random.default_rng(config.seed)
    theta = np.zeros(T)
    buffers = None if data is None or data.n == 0 else PassBuffers(shape, data.n)
    log_p = ref_log_target(theta, shape, data, prior, sigma, buffers)
    if not math.isfinite(log_p):
        raise ValueError("non-finite target at the initial point")

    sd = config.proposal_sd
    kept = []
    accepted_post = 0
    proposed_post = 0
    accept_window = 0
    window = 100
    for step in range(config.steps):
        prop = theta + sd * rng.standard_normal(T)
        log_p_prop = ref_log_target(prop, shape, data, prior, sigma, buffers)
        accept = math.log(rng.random()) < log_p_prop - log_p
        if accept:
            theta = prop
            log_p = log_p_prop
        if step < config.burn_in:
            accept_window += accept
            if (step + 1) % window == 0:
                rate = accept_window / window
                sd *= math.exp(0.5 * (rate - 0.234))
                accept_window = 0
        else:
            proposed_post += 1
            accepted_post += accept
            kept.append(theta.copy())
    return np.asarray(kept), accepted_post / max(proposed_post, 1), sd


# --------------------------------------------------------------------- cases

CRITERION_8_SHAPE = NetworkShape(d_in=1, hidden_widths=(4,))


def _data(n=200, seed=0):
    return generate_dataset(tabulated_function([0.0, 1.0], [0.5, 0.5]), n, 0.1, seed=seed)


def _assert_same_chain(shape, data, prior, config):
    want_chain, want_rate, want_sd = ref_mh_sample(shape, data, prior, 0.1, config)
    got = mh_sample(shape, data, prior, 0.1, config)
    assert got.chain.shape == want_chain.shape
    assert got.chain.tobytes() == want_chain.tobytes()
    assert got.acceptance_rate == want_rate
    assert got.proposal_sd == want_sd
    assert type(got.acceptance_rate) is float and type(got.proposal_sd) is float
    return got


def test_criterion_8_net_with_data():
    # criterion 8's model, data and proposal, on a shorter chain
    config = MHConfig(steps=5_000, burn_in=2_000, proposal_sd=0.05, seed=2)
    _assert_same_chain(CRITERION_8_SHAPE, _data(), make_density("gauss", sigma=1.0), config)


def test_without_data():
    config = MHConfig(steps=3_000, burn_in=1_000, proposal_sd=0.5, seed=1)
    _assert_same_chain(CRITERION_8_SHAPE, None, make_density("gauss", sigma=0.7), config)


def test_laplace_prior_keeps_every_state():
    config = MHConfig(steps=3_000, burn_in=500, proposal_sd=0.1, seed=5)
    got = _assert_same_chain(CRITERION_8_SHAPE, _data(50, seed=3),
                             make_density("laplace", scale=0.5), config)
    assert got.chain.shape[0] == 2_500  # every state after burn-in


class _CountingSlab:
    """A uniform-slab prior that counts the points it puts outside its support."""

    def __init__(self, B):
        self.density = make_density("uniform-slab", B=B)
        self.outside = 0

    def log_density_sum(self, theta):
        # a float for a vector (T,), an array (R,) for a stack (R, T)
        lp = self.density.log_density_sum(theta)
        self.outside += int(np.count_nonzero(np.asarray(lp) == -math.inf))
        return lp


def test_proposals_outside_the_support():
    # a narrow slab: proposals that leave [-B, B] take the non-finite-prior
    # return before any network pass, and are rejected
    config = MHConfig(steps=3_000, burn_in=1_000, proposal_sd=0.4, seed=7)
    prior = _CountingSlab(0.6)
    got = _assert_same_chain(CRITERION_8_SHAPE, _data(), prior, config)
    assert prior.outside > 100
    assert np.all(np.abs(got.chain) <= 0.6)


# ------------------------------------------------- edges of the prefetch walk


@pytest.mark.parametrize("with_data", [True, False])
@pytest.mark.parametrize("steps, burn_in", [
    (1, 0), (5, 2), (7, 6), (8, 0), (9, 1),  # chains shorter than or near one pass
    (250, 0), (250, 1), (250, 99), (250, 101),  # burn-in at adaptation-window edges
    (100, 99), (102, 101), (301, 300),  # one retained state
])
def test_block_edges(steps, burn_in, with_data):
    config = MHConfig(steps=steps, burn_in=burn_in, proposal_sd=0.05, seed=3)
    _assert_same_chain(CRITERION_8_SHAPE, _data() if with_data else None,
                       make_density("gauss", sigma=1.0), config)


class _CountingGauss:
    """The gauss prior, counting the stacked calls: one per prefetch pass."""

    def __init__(self):
        self.density = make_density("gauss", sigma=1.0)
        self.passes = 0

    def log_density_sum(self, theta):
        self.passes += np.ndim(theta) == 2
        return self.density.log_density_sum(theta)


@pytest.mark.parametrize("proposal_sd, passes", [
    (1e-8, 300),  # every proposal accepted: each pass walks one row
    (50.0, math.ceil(300 / PROPOSALS_PER_PASS)),  # none accepted: each pass runs full
])
def test_one_row_and_full_passes(proposal_sd, passes):
    config = MHConfig(steps=300, burn_in=0, proposal_sd=proposal_sd, seed=4)
    prior = _CountingGauss()
    got = _assert_same_chain(CRITERION_8_SHAPE, _data(), prior, config)
    assert got.acceptance_rate == (1.0 if proposal_sd < 1 else 0.0)
    assert prior.passes == passes


def test_rows_outside_the_support_skip_the_network():
    # every proposal lands far outside the slab, where the old loop never ran
    # the network; the stacked pass must not run it on those rows either,
    # or 1e200-sized weights overflow (a RuntimeWarning, an error here)
    config = MHConfig(steps=50, burn_in=0, proposal_sd=1e200, seed=6)
    got = _assert_same_chain(CRITERION_8_SHAPE, _data(), make_density("uniform-slab", B=1.0),
                             config)
    assert got.acceptance_rate == 0.0 and not got.chain.any()
