"""The in-place VI step against a reference copy of the allocating one.

`train` runs the network pass, the ELBO gradient and Adam in buffers that
live for the whole fit, and the elementwise tail of each step block by
block.  The reference below is the step as it was written before that:
every array is a fresh temporary and whole-length, `from_flat` copies, the
sigmoid takes two exps, and the gradient is averaged over `mc` draws.  The
arithmetic is the same operation for operation, so the two must agree bit
for bit, not merely to a tolerance.
"""

import math
import tracemalloc

import numpy as np
import pytest

from besovbnn import design as dz
from besovbnn import priors, vi
from besovbnn.network import NetworkShape
from besovbnn.priors import make_density
from besovbnn.testbed import generate_dataset, log_singular_function
from besovbnn.vi import (INIT_SIGMA_Q, TrainConfig, VariationalState, _sigmoid, train,
                         train_replicates)

# ----------------------------------------------------------------- reference


def ref_softplus(rho):
    return np.logaddexp(0.0, np.asarray(rho, dtype=float))


def ref_sigmoid(rho):
    rho = np.asarray(rho, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # the branch np.where drops
        return np.where(rho >= 0, 1.0 / (1.0 + np.exp(-rho)), np.exp(rho) / (1.0 + np.exp(rho)))


def ref_from_flat(shape, theta):
    p = shape.layer_widths
    weights, biases = [], []
    pos = 0
    for l in range(len(p) - 1):
        nw = p[l] * p[l + 1]
        weights.append(theta[pos : pos + nw].reshape(p[l], p[l + 1]).copy())
        pos += nw
        biases.append(theta[pos : pos + p[l + 1]].copy())
        pos += p[l + 1]
    return weights, biases


def ref_loglik_and_grad(weights, biases, x, y, sigma):
    n = y.shape[0]
    n_layers = len(weights)
    acts = [x]
    pre_acts = []
    h = x
    for l in range(n_layers - 1):
        z = h @ weights[l] + biases[l]
        pre_acts.append(z)
        h = np.maximum(z, 0.0)
        acts.append(h)
    f = (h @ weights[-1] + biases[-1])[:, 0]
    resid = y - f
    loglik = float(
        -0.5 * n * np.log(2.0 * np.pi * sigma**2) - 0.5 * np.sum(resid**2) / sigma**2
    )
    delta = (resid / sigma**2)[:, None]
    grad_w = [None] * n_layers
    grad_b = [None] * n_layers
    for l in range(n_layers - 1, -1, -1):
        grad_w[l] = acts[l].T @ delta
        grad_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ weights[l].T) * (pre_acts[l - 1] > 0.0)
    parts = []
    for gw, gb in zip(grad_w, grad_b):
        parts.append(gw.ravel())
        parts.append(gb)
    return loglik, np.concatenate(parts)


def ref_elbo_gradient(mu, rho, shape, x, y, prior, sigma, mc, seed, n_weight):
    T = mu.shape[0]
    zetas = np.random.default_rng(seed).standard_normal((mc, T))
    sq = ref_softplus(rho)
    sig = ref_sigmoid(rho)
    g_mu = np.zeros(T)
    g_rho = np.zeros(T)
    for k, zeta in enumerate(zetas):
        theta = mu + sq * zeta
        ll, g_ll = ref_loglik_and_grad(*ref_from_flat(shape, theta), x, y, sigma)
        if k == 0:
            neg_log_q = np.sum(np.log(sq)) + 0.5 * T * math.log(2.0 * math.pi) + 0.5 * np.sum(zeta**2)
            objective = float(n_weight * ll + prior.log_density_sum(theta) + neg_log_q)
        g_theta = n_weight * g_ll + prior.grad_log_pdf(theta)
        g_mu += g_theta
        g_rho += g_theta * zeta * sig + sig / sq
    return objective, g_mu / mc, g_rho / mc


def ref_train(shape, data, prior, config, sigma):
    rng = np.random.default_rng(config.seed)
    p = shape.layer_widths
    mus = []
    for l in range(len(p) - 1):
        mus.append(rng.standard_normal(p[l] * p[l + 1]) / math.sqrt(p[l]))
        mus.append(np.zeros(p[l + 1]))
    mu = np.concatenate(mus)
    rho = np.full(shape.n_params, float(INIT_SIGMA_Q + np.log(-np.expm1(-INIT_SIGMA_Q))))

    rng = np.random.default_rng(config.seed + 1)
    n = data.n
    batch = config.batch_size if 0 < config.batch_size < n else n
    m_mu = np.zeros(mu.size)
    v_mu = np.zeros(mu.size)
    m_rho = np.zeros(mu.size)
    v_rho = np.zeros(mu.size)
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    trace = np.empty(config.iterations)
    for it in range(config.iterations):
        if batch < n:
            idx = rng.choice(n, size=batch, replace=False)
            xb, yb = data.x[idx], data.y[idx]
        else:
            xb, yb = data.x, data.y
        step_seed = int(rng.integers(0, 2**63 - 1))
        obj, g_mu, g_rho = ref_elbo_gradient(mu, rho, shape, xb, yb, prior, sigma, 1,
                                             step_seed, n / batch)
        trace[it] = obj
        t = it + 1
        m_mu = beta1 * m_mu + (1 - beta1) * g_mu
        v_mu = beta2 * v_mu + (1 - beta2) * g_mu**2
        m_rho = beta1 * m_rho + (1 - beta1) * g_rho
        v_rho = beta2 * v_rho + (1 - beta2) * g_rho**2
        mhat_mu = m_mu / (1 - beta1**t)
        vhat_mu = v_mu / (1 - beta2**t)
        mhat_rho = m_rho / (1 - beta1**t)
        vhat_rho = v_rho / (1 - beta2**t)
        mu = mu + config.learning_rate * mhat_mu / (np.sqrt(vhat_mu) + adam_eps)
        rho = rho + config.learning_rate * mhat_rho / (np.sqrt(vhat_rho) + adam_eps)
    return mu, rho, trace


# --------------------------------------------------------------------- tests


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def designed_problem(n, widths, seed):
    """The CLI's f2 fit: designed mixture prior, desk or given widths."""
    spec = dz.SmoothnessSpec(s=1.5, p=1.0, q=1.0, d=1, m=2)
    f0 = log_singular_function()
    arch = dz.design_architecture(spec, n, 10.0)
    prior = make_density("mixture", mixture_spec=dz.mixture_hyperparams(arch, K0=5.0))
    data = generate_dataset(f0, n, 0.1, seed)
    return NetworkShape(d_in=1, hidden_widths=widths), data, prior


@pytest.mark.parametrize(
    "n, widths, batch, iterations",
    [
        (200, (24, 24), 0, 150),  # desk network, full batch
        (64, (24, 24), 16, 150),  # desk network, minibatch 16 of 64
        (50, (200, 200, 200), 0, 4),  # T = 81,001
    ],
)
def test_train_matches_allocating_reference(n, widths, batch, iterations):
    shape, data, prior = designed_problem(n, widths, seed=5)
    config = TrainConfig(iterations=iterations, batch_size=batch, learning_rate=0.01, seed=7)
    state, trace = train(shape, data, prior, config, sigma=0.1)
    mu, rho, ref_trace = ref_train(shape, data, prior, config, sigma=0.1)
    assert_same_bits(trace, ref_trace)
    assert_same_bits(state.mu, mu)
    assert_same_bits(state.rho, rho)
    assert isinstance(state, VariationalState) and state.step == iterations


def blocks_of(monkeypatch, width, stack=1):
    """Make the step's tail run in blocks of `width` columns."""
    monkeypatch.setattr(vi, "TAIL_BLOCK", width * stack)


def test_stack_in_several_blocks_matches_reference_per_replicate(monkeypatch):
    # T = 673 in blocks of 100 columns: six full blocks and one of 73
    blocks_of(monkeypatch, 100, stack=3)
    shape, _, prior = designed_problem(80, (24, 24), seed=5)
    f0 = log_singular_function()
    datasets = [generate_dataset(f0, 80, 0.1, seed) for seed in (5, 6, 7)]
    configs = [TrainConfig(iterations=120, learning_rate=0.01, seed=s) for s in (7, 8, 9)]
    results = train_replicates(shape, datasets, prior, configs, sigma=0.1)
    for (state, trace), data, config in zip(results, datasets, configs):
        mu, rho, ref_trace = ref_train(shape, data, prior, config, sigma=0.1)
        assert_same_bits(trace, ref_trace)
        assert_same_bits(state.mu, mu)
        assert_same_bits(state.rho, rho)


def test_minibatch_in_several_blocks_matches_reference(monkeypatch):
    blocks_of(monkeypatch, 100)
    shape, data, prior = designed_problem(64, (24, 24), seed=5)
    config = TrainConfig(iterations=150, batch_size=16, learning_rate=0.01, seed=7)
    state, trace = train(shape, data, prior, config, sigma=0.1)
    mu, rho, ref_trace = ref_train(shape, data, prior, config, sigma=0.1)
    assert_same_bits(trace, ref_trace)
    assert_same_bits(state.mu, mu)
    assert_same_bits(state.rho, rho)


def test_spike_coordinates_across_a_block_boundary_match_reference(monkeypatch):
    # A spike of scale 1e-3 puts its cut near 0.04, so the first layer's
    # biases (coordinates 24..47, starting at 0) take the two-component
    # formulas; blocks of 30 columns split them at coordinate 30.
    blocks_of(monkeypatch, 30)
    spec = dz.MixturePriorSpec(log_a=math.log(0.5), eta=0.9, log_sigma1=math.log(1e-3),
                               sigma2=1.5, pi1=0.7, pi2=0.3, B=5.0, K0=5.0)
    prior = make_density("mixture", mixture_spec=spec)
    shape, data, _ = designed_problem(64, (24, 24), seed=5)
    config = TrainConfig(iterations=100, learning_rate=0.01, seed=7)
    inside = []  # coordinates inside the cut, per gradient call (block)
    grad = prior.grad_log_pdf
    cut = priors._spike_cut(spec)

    def counting(t):
        inside.append(int(np.count_nonzero(np.abs(t) <= cut)))
        return grad(t)

    monkeypatch.setattr(prior, "grad_log_pdf", counting)
    state, trace = train(shape, data, prior, config, sigma=0.1)
    mu, rho, ref_trace = ref_train(shape, data, make_density("mixture", mixture_spec=spec),
                                   config, sigma=0.1)
    assert_same_bits(trace, ref_trace)
    assert_same_bits(state.mu, mu)
    assert_same_bits(state.rho, rho)
    per_block = np.reshape(inside, (config.iterations, -(-shape.n_params // 30)))
    assert np.all(per_block[:10, :2] > 0)  # both sides of the boundary at 30


def test_train_keeps_eleven_full_length_arrays(monkeypatch):
    # mu, rho, four Adam moments, zeta, its spare (the ELBO sums' scratch
    # and the next step's noise), sigma_q, theta and the network gradient;
    # everything else, the calling thread's and the helper's block sets
    # included, is block-sized or smaller, so with small blocks the fit
    # needs less than one more T-vector besides
    blocks_of(monkeypatch, 2048)
    shape, data, prior = designed_problem(20, (200, 200, 200), seed=5)
    T = shape.n_params
    assert T == 81_001
    config = TrainConfig(iterations=2, learning_rate=0.01, seed=7)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        train(shape, data, prior, config, sigma=0.1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= (11 + 1) * T * 8, f"{peak / (T * 8):.2f} T-vectors"


def test_deep_pass_keeps_one_mask_and_no_delta():
    # A deep network with n large relative to W: besides the eleven
    # T-vectors (R = 1), the pass holds every hidden activation, written
    # over by the backward deltas, and one ReLU mask of the widest layer,
    # and the tail one block set of four block-wide arrays and a bool mask.
    # One delta buffer of the widest layer would need 8 n max(w) bytes more.
    widths = (8, 12, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8)
    shape, data, prior = designed_problem(2000, widths, seed=5)
    T, n = shape.n_params, data.n
    width = min(T, vi.TAIL_BLOCK)
    assert T == 885 and width == T
    config = TrainConfig(iterations=2, learning_rate=0.01, seed=7)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        train(shape, data, prior, config, sigma=0.1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    pass_bytes = 8 * n * sum(widths) + n * max(widths)
    bound = 11 * T * 8 + pass_bytes + 33 * width
    # The output and residual columns, numpy's 64 KiB ufunc buffer (4.1
    # n-vectors here) and small temporaries: 7.7 n-vectors measured.
    slack = 10 * n * 8
    assert peak <= bound + slack, f"{(peak - bound) / (n * 8):.2f} n-vectors over"
    assert 8 * n * max(widths) > slack


def test_sigmoid_matches_two_branch_formula():
    tiny = np.nextafter(0.0, 1.0)
    rho = np.array([0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 2.2e-308, -2.2e-308,
                    1e-17, -1e-17, 0.5, -0.5, 36.0, -36.0, 745.5, -745.5,
                    800.0, -800.0, np.inf, -np.inf])
    rho = np.concatenate([rho, np.random.default_rng(0).standard_normal(2000) * 30.0])
    assert_same_bits(_sigmoid(rho), ref_sigmoid(rho))
    out, work, mask = np.empty_like(rho), np.empty_like(rho), np.empty(rho.shape, bool)
    assert _sigmoid(rho, out=out, work=work, mask=mask) is out
    assert_same_bits(out, ref_sigmoid(rho))
    assert np.isnan(_sigmoid(np.array([np.nan, -np.nan]))).all()
