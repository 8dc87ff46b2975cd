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

from .network import NetworkParams, NetworkShape, PassBuffers, forward, loglik_and_grad
from .testbed import Dataset, empirical_norm

__all__ = [
    "VariationalState",
    "TrainConfig",
    "PredictiveSummary",
    "TrainingDiverged",
    "StepBuffers",
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
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def softplus(rho, out=None):
    return np.logaddexp(0.0, np.asarray(rho, dtype=float), out=out)


def _sigmoid(rho, out=None, work=None, mask=None):
    """Logistic sigmoid of a 1-d rho with one exp: e = exp(-|rho|), then
    1 / (1 + e) where rho >= 0 and e / (1 + e) elsewhere, the same doubles
    as the two-branch formula.  out, work and mask are optional buffers of
    rho's shape (bool for mask); work is overwritten."""
    e = np.abs(rho, out=work)
    np.negative(e, out=e)
    np.exp(e, out=e)
    den = np.add(e, 1.0, out=out)
    np.copyto(e, 1.0, where=np.greater_equal(rho, 0.0, out=mask))
    return np.divide(e, den, out=den)


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


class StepBuffers:
    """Work arrays of one `elbo_gradient` call for a network shape and batch
    size: the noise draw, sigma_q, sigmoid(rho), theta, the two gradients, a
    scratch vector and mask of length T, and the network pass's PassBuffers.
    `train` builds one set per fit and reuses it on every step."""

    def __init__(self, shape: NetworkShape, batch: int):
        T = shape.n_params
        self.zeta, self.sq, self.sig, self.theta, self.g_mu, self.g_rho, self.work = (
            np.empty(T) for _ in range(7)
        )
        self.mask = np.empty(T, dtype=bool)
        self.network = PassBuffers(shape, batch)


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, value: float):
        self.step = step
        self.value = value
        super().__init__(f"non-finite ELBO ({value}) at step {step}")


def _draw_zetas(T: int, mc: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((mc, T))


def _elbo(ll, theta, zeta, sq, prior, n_weight: float = 1.0, work=None) -> float:
    """Single-sample ELBO at theta = mu + sq * zeta, given the log-likelihood
    ll of the data at theta; `work`, if given, is overwritten scratch.

    log q at the sampled theta reduces to -sum(log sigma_q) - T/2 log 2pi
    - |zeta|^2/2, so the pathwise theta-dependence of the entropy cancels.
    """
    neg_log_q = (np.sum(np.log(sq, out=work)) + 0.5 * theta.size * _LOG_2PI
                 + 0.5 * np.sum(np.square(zeta, out=work)))
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
                  prior, sigma: float, seed: int, x=None, y=None,
                  n_weight: float = 1.0, buffers: StepBuffers | None = None):
    """Pathwise gradient of the single-sample ELBO with respect to (mu, rho)
    for the noise draw of `seed`.

    Returns (objective, g_mu, g_rho), where objective is the frozen ELBO of
    that draw, taken from the same network pass as its gradient.  Optionally
    evaluates on an explicit (x, y) minibatch with the data term reweighted
    by n_weight to stay unbiased.  The step runs in `buffers` (a StepBuffers
    for shape and len(y)), and g_mu and g_rho are its arrays, overwritten by
    the next call with the same set; without one a fresh set is allocated.
    """
    if x is None:
        x, y = data.x, data.y
    b = StepBuffers(shape, len(y)) if buffers is None else buffers
    b.network.check(shape, len(y))
    zeta = np.random.default_rng(seed).standard_normal(out=b.zeta)
    sq = softplus(state.rho, out=b.sq)
    sig = _sigmoid(state.rho, out=b.sig, work=b.work, mask=b.mask)
    theta = np.multiply(sq, zeta, out=b.theta)
    theta += state.mu
    ll, g_ll = loglik_and_grad(NetworkParams.from_flat(shape, theta), x, y, sigma,
                               buffers=b.network)
    objective = _elbo(ll, theta, zeta, sq, prior, n_weight, work=b.work)
    g_mu = np.multiply(g_ll, n_weight, out=b.g_mu)
    g_mu += prior.grad_log_pdf(theta)
    g_rho = np.multiply(g_mu, zeta, out=b.g_rho)
    g_rho *= sig
    g_rho += np.divide(sig, sq, out=b.work)  # entropy term d/drho sum log sigma_q
    return objective, g_mu, g_rho


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

    buffers = StepBuffers(shape, batch)
    m_mu, v_mu, m_rho, v_rho = (np.zeros(state.T) for _ in range(4))  # Adam moments
    scratch = (np.empty(state.T), np.empty(state.T))

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
            state, shape, data, prior, sigma, step_seed, x=xb, y=yb, n_weight=n_weight,
            buffers=buffers,
        )
        if not math.isfinite(obj):
            raise TrainingDiverged(it, obj)
        trace[it] = obj
        _adam_ascent(state.mu, g_mu, m_mu, v_mu, it + 1, config.learning_rate, scratch)
        _adam_ascent(state.rho, g_rho, m_rho, v_rho, it + 1, config.learning_rate, scratch)
        state.step = it + 1
    return state, trace


def _adam_ascent(param, g, m, v, t: int, lr: float, scratch) -> None:
    """Adam step t (from 1) of gradient ascent, updating param and the
    moments m and v in place with the two scratch vectors:
    param += lr * mhat / (sqrt(vhat) + eps)."""
    a, b = scratch
    m *= ADAM_BETA1
    m += np.multiply(g, 1 - ADAM_BETA1, out=a)
    v *= ADAM_BETA2
    v += np.multiply(np.square(g, out=a), 1 - ADAM_BETA2, out=a)
    np.divide(m, 1 - ADAM_BETA1**t, out=a)
    a *= lr
    np.divide(v, 1 - ADAM_BETA2**t, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    param += a


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
    """Sample `draws` networks from q and summarize them on the grid.  When
    the grid is the training design itself (`grid is data.x`), its network
    values also give the per-draw errors."""
    if draws < 2:
        raise ValueError("need at least 2 draws")
    grid = np.asarray(grid, dtype=float)
    grid_x = grid.reshape(-1, 1) if grid.ndim == 1 else grid
    on_design = grid_x is data.x
    rng = np.random.default_rng(seed)
    sq = state.sigma_q
    fx_true = np.asarray(f0(data.x[:, 0] if data.d == 1 else data.x), dtype=float)
    fvals = np.empty((draws, grid_x.shape[0]))
    errors = np.empty(draws)
    for k in range(draws):
        theta = state.mu + sq * rng.standard_normal(state.T)
        params = NetworkParams.from_flat(shape, theta)
        fvals[k] = forward(params, grid_x)
        fx = fvals[k] if on_design else forward(params, data.x)
        errors[k] = empirical_norm(fx - fx_true)
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
