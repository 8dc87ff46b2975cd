"""The in-place VI step against a reference copy of the allocating one.

`train` runs the network pass, the ELBO gradient and Adam in buffers that
live for the whole fit.  The reference below is the step as it was written
before that: every array is a fresh temporary, `from_flat` copies, the
sigmoid takes two exps, and the gradient is averaged over `mc` draws.  The
arithmetic is the same operation for operation, so the two must agree bit
for bit, not merely to a tolerance.
"""

import math

import numpy as np
import pytest

from besovbnn import design as dz
from besovbnn.network import NetworkShape
from besovbnn.priors import make_density
from besovbnn.testbed import generate_dataset, log_singular_function
from besovbnn.vi import INIT_SIGMA_Q, TrainConfig, VariationalState, _sigmoid, train

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
