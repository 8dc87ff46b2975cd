"""Mean-field Gaussian variational inference (Bayes by Backprop) for the
fixed-architecture network, posterior-predictive summaries, and the
checkpoint format.

The variational family is a fully factorized Gaussian over the flattened
parameter vector; scales are parameterized through a softplus pre-activation
so they stay positive.  The single-sample ELBO uses the pathwise
(reparameterization) estimator theta = mu + softplus(rho) * zeta.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .network import NetworkParams, NetworkShape, forward, loglik_and_grad
from .testbed import Dataset, empirical_norm

__all__ = [
    "VariationalState",
    "TrainConfig",
    "PredictiveSummary",
    "TrainingDiverged",
    "softplus",
    "frozen_elbo",
    "elbo_estimate",
    "elbo_gradient",
    "train",
    "posterior_predictive",
    "save_checkpoint",
    "load_checkpoint",
]

_LOG_2PI = math.log(2.0 * math.pi)

CHECKPOINT_SCHEMA_VERSION = 1
FLATTEN_ORDER = "layer-major:weights-then-biases:row-major"
INIT_SIGMA_Q = 1e-2  # initial posterior scale of every coordinate


def softplus(rho):
    return np.logaddexp(0.0, np.asarray(rho, dtype=float))


def _sigmoid(rho):
    rho = np.asarray(rho, dtype=float)
    return np.where(rho >= 0, 1.0 / (1.0 + np.exp(-rho)), np.exp(rho) / (1.0 + np.exp(rho)))


def _inv_softplus(s):
    s = np.asarray(s, dtype=float)
    return s + np.log(-np.expm1(-s))


@dataclass
class VariationalState:
    """Factorized Gaussian posterior: means mu and scale pre-activations rho."""

    mu: np.ndarray
    rho: np.ndarray
    step: int = 0
    seed: int = 0

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.rho = np.asarray(self.rho, dtype=float)
        if self.mu.shape != self.rho.shape or self.mu.ndim != 1:
            raise ValueError("mu and rho must be 1-d vectors of equal length")

    @property
    def T(self) -> int:
        return self.mu.shape[0]

    @property
    def sigma_q(self) -> np.ndarray:
        return softplus(self.rho)


@dataclass
class TrainConfig:
    """Knobs of the stochastic ELBO ascent: Adam on one noise draw per step."""

    iterations: int = 2000
    batch_size: int = 0  # 0 means full batch
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if self.batch_size < 0:
            raise ValueError("batch_size must be >= 0 (0 means full batch)")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, value: float):
        self.step = step
        self.value = value
        super().__init__(f"non-finite ELBO ({value}) at step {step}")


def _draw_zetas(T: int, mc: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((mc, T))


def _elbo(ll, theta, zeta, sq, prior, n_weight: float = 1.0) -> float:
    """Single-sample ELBO at theta = mu + sq * zeta, given the log-likelihood
    ll of the data at theta.

    log q at the sampled theta reduces to -sum(log sigma_q) - T/2 log 2pi
    - |zeta|^2/2, so the pathwise theta-dependence of the entropy cancels.
    """
    neg_log_q = np.sum(np.log(sq)) + 0.5 * theta.size * _LOG_2PI + 0.5 * np.sum(zeta**2)
    return float(n_weight * ll + prior.log_density_sum(theta) + neg_log_q)


def frozen_elbo(mu, rho, zeta, shape: NetworkShape, x, y, prior, sigma: float,
                n_weight: float = 1.0) -> float:
    """Single-sample ELBO with the noise draw zeta held fixed.

    This is the objective whose (mu, rho) gradient elbo_gradient computes for
    a single sample; finite differences of it validate the pathwise gradient.
    """
    sq = softplus(rho)
    theta = np.asarray(mu, dtype=float) + sq * zeta
    ll, _ = loglik_and_grad(NetworkParams.from_flat(shape, theta), x, y, sigma)
    return _elbo(ll, theta, zeta, sq, prior, n_weight)


def elbo_estimate(state: VariationalState, shape: NetworkShape, data: Dataset,
                  prior, sigma: float, mc: int, seed: int) -> float:
    """Monte Carlo ELBO: E_q[log p(D|theta) + log pi(theta) - log q(theta)]."""
    if mc < 1:
        raise ValueError("need mc >= 1")
    if state.T != shape.n_params:
        raise ValueError("state length does not match the network shape")
    zetas = _draw_zetas(state.T, mc, seed)
    sq = state.sigma_q
    total = 0.0
    for zeta in zetas:
        theta = state.mu + sq * zeta
        ll, _ = loglik_and_grad(NetworkParams.from_flat(shape, theta), data.x, data.y, sigma)
        total += _elbo(ll, theta, zeta, sq, prior)
    return float(total / mc)


def elbo_gradient(state: VariationalState, shape: NetworkShape, data: Dataset,
                  prior, sigma: float, mc: int, seed: int,
                  x=None, y=None, n_weight: float = 1.0):
    """Pathwise gradient of the MC ELBO with respect to (mu, rho).

    Returns (objective, g_mu, g_rho), where objective is the frozen
    single-sample ELBO of the first noise draw, taken from the same network
    pass as its gradient.  Optionally evaluates on an explicit (x, y)
    minibatch with the data term reweighted by n_weight to stay unbiased.
    """
    if mc < 1:
        raise ValueError("need mc >= 1")
    if x is None:
        x, y = data.x, data.y
    zetas = _draw_zetas(state.T, mc, seed)
    sq = state.sigma_q
    sig = _sigmoid(state.rho)
    g_mu = np.zeros(state.T)
    g_rho = np.zeros(state.T)
    for k, zeta in enumerate(zetas):
        theta = state.mu + sq * zeta
        ll, g_ll = loglik_and_grad(NetworkParams.from_flat(shape, theta), x, y, sigma)
        if k == 0:
            objective = _elbo(ll, theta, zeta, sq, prior, n_weight)
        g_theta = n_weight * g_ll + prior.grad_log_pdf(theta)
        g_mu += g_theta
        g_rho += g_theta * zeta * sig + sig / sq  # + entropy term d/drho sum log sigma_q
    return objective, g_mu / mc, g_rho / mc


def _init_state(shape: NetworkShape, config: TrainConfig) -> VariationalState:
    rng = np.random.default_rng(config.seed)
    p = shape.layer_widths
    mus = []
    for l in range(len(p) - 1):
        fan_in = p[l]
        mus.append(rng.standard_normal(p[l] * p[l + 1]) / math.sqrt(fan_in))
        mus.append(np.zeros(p[l + 1]))
    mu = np.concatenate(mus)
    rho = np.full(shape.n_params, float(_inv_softplus(INIT_SIGMA_Q)))
    return VariationalState(mu=mu, rho=rho, step=0, seed=config.seed)


def train(shape: NetworkShape, data: Dataset, prior, config: TrainConfig,
          sigma: float = 0.1):
    """Stochastic ELBO ascent; returns the final state and the per-iteration
    objective trace (minibatch single-pass estimates)."""
    state = _init_state(shape, config)
    rng = np.random.default_rng(config.seed + 1)
    n = data.n
    batch = config.batch_size if 0 < config.batch_size < n else n

    # Adam moments.
    m_mu = np.zeros(state.T)
    v_mu = np.zeros(state.T)
    m_rho = np.zeros(state.T)
    v_rho = np.zeros(state.T)
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8

    trace = np.empty(config.iterations)
    for it in range(config.iterations):
        if batch < n:
            idx = rng.choice(n, size=batch, replace=False)
            xb, yb = data.x[idx], data.y[idx]
        else:
            xb, yb = data.x, data.y
        n_weight = n / batch
        step_seed = int(rng.integers(0, 2**63 - 1))
        obj, g_mu, g_rho = elbo_gradient(
            state, shape, data, prior, sigma, 1, step_seed, x=xb, y=yb, n_weight=n_weight,
        )
        if not math.isfinite(obj):
            raise TrainingDiverged(it, obj)
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
        state.mu = state.mu + config.learning_rate * mhat_mu / (np.sqrt(vhat_mu) + adam_eps)
        state.rho = state.rho + config.learning_rate * mhat_rho / (np.sqrt(vhat_rho) + adam_eps)
        state.step = it + 1
    return state, trace


@dataclass
class PredictiveSummary:
    """Posterior-predictive mean, pointwise quantile band, and per-draw
    empirical errors against the truth on the training design."""

    grid: np.ndarray
    mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    errors: np.ndarray
    alpha: float

    def median_error(self) -> float:
        return float(np.median(self.errors))


def posterior_predictive(state: VariationalState, shape: NetworkShape, grid,
                         draws: int, f0, data: Dataset, alpha: float = 0.05,
                         seed: int = 0) -> PredictiveSummary:
    """Sample `draws` networks from q and summarize them on the grid."""
    if draws < 2:
        raise ValueError("need at least 2 draws")
    grid = np.asarray(grid, dtype=float)
    grid_x = grid.reshape(-1, 1) if grid.ndim == 1 else grid
    rng = np.random.default_rng(seed)
    sq = state.sigma_q
    fx_true = np.asarray(f0(data.x[:, 0] if data.d == 1 else data.x), dtype=float)
    fvals = np.empty((draws, grid_x.shape[0]))
    errors = np.empty(draws)
    for k in range(draws):
        theta = state.mu + sq * rng.standard_normal(state.T)
        params = NetworkParams.from_flat(shape, theta)
        fvals[k] = forward(params, grid_x)
        errors[k] = empirical_norm(forward(params, data.x) - fx_true)
    mean = fvals.mean(axis=0)
    lower = np.quantile(fvals, alpha / 2.0, axis=0)
    upper = np.quantile(fvals, 1.0 - alpha / 2.0, axis=0)
    return PredictiveSummary(grid=grid, mean=mean, lower=lower, upper=upper,
                             errors=errors, alpha=alpha)


def save_checkpoint(path, state: VariationalState, shape: NetworkShape) -> None:
    """Write <path>.json (envelope) and <path>.bin (mu then rho, little-endian
    float64)."""
    path = Path(path)
    bin_path = path.with_suffix(".bin")
    envelope = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "shape": shape.to_dict(),
        "T": state.T,
        "flatten_order": FLATTEN_ORDER,
        "seed": state.seed,
        "step": state.step,
        "arrays": bin_path.name,
    }
    path.with_suffix(".json").write_text(json.dumps(envelope, sort_keys=True, indent=2) + "\n")
    arr = np.concatenate([state.mu, state.rho]).astype("<f8")
    bin_path.write_bytes(arr.tobytes())


def load_checkpoint(path):
    """Inverse of save_checkpoint; returns (state, shape)."""
    path = Path(path)
    envelope = json.loads(path.with_suffix(".json").read_text())
    if envelope.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise ValueError(
            f"checkpoint schema_version {envelope.get('schema_version')!r} is not "
            f"{CHECKPOINT_SCHEMA_VERSION}"
        )
    if envelope["flatten_order"] != FLATTEN_ORDER:
        raise ValueError("checkpoint uses an unknown flatten order")
    shape = NetworkShape.from_dict(envelope["shape"])
    raw = np.frombuffer(path.with_suffix(".bin").read_bytes(), dtype="<f8")
    T = envelope["T"]
    if raw.size != 2 * T:
        raise ValueError("checkpoint array length mismatch")
    state = VariationalState(mu=raw[:T].copy(), rho=raw[T:].copy(),
                             step=envelope["step"], seed=envelope["seed"])
    return state, shape
