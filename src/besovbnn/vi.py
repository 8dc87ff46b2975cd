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
from dataclasses import dataclass, replace
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
    "elbo_gradient",
    "train",
    "train_replicates",
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
    """Logistic sigmoid of rho with one exp: e = exp(-|rho|), then
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
    """Factorized Gaussian posterior: means mu and scale pre-activations rho,
    vectors (T,) or, for replicates trained together, stacks (R, T)."""

    mu: np.ndarray
    rho: np.ndarray
    step: int = 0
    seed: int = 0

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.rho = np.asarray(self.rho, dtype=float)
        if self.mu.shape != self.rho.shape or self.mu.ndim not in (1, 2):
            raise ValueError("mu and rho must be vectors or stacks of vectors of equal shape")

    @property
    def T(self) -> int:
        return self.mu.shape[-1]

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
    """Work arrays of one `elbo_gradient` call for a network shape, batch
    size and a stack of R states (stack=R) or one (stack=None): the noise
    draw, sigma_q, sigmoid(rho), theta, the two gradients, a scratch vector
    and mask of length T, each with a leading axis R for a stack, and the
    network pass's PassBuffers.  `train_replicates` builds one set per
    stack and reuses it on every step."""

    def __init__(self, shape: NetworkShape, batch: int, stack: int | None = None):
        size = (shape.n_params,) if stack is None else (stack, shape.n_params)
        self.zeta, self.sq, self.sig, self.theta, self.g_mu, self.g_rho, self.work = (
            np.empty(size) for _ in range(7)
        )
        self.mask = np.empty(size, dtype=bool)
        self.network = PassBuffers(shape, batch, stack)


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, value: float):
        self.step = step
        self.value = value
        super().__init__(f"non-finite ELBO ({value}) at step {step}")


def _elbo(ll, theta, zeta, sq, prior, n_weight: float = 1.0, work=None):
    """Single-sample ELBO at theta = mu + sq * zeta, given the log-likelihood
    ll of the data at theta; `work`, if given, is overwritten scratch.  For
    vectors (T,) it is a float; for stacks (R, T), with ll (R,), it is (R,),
    every sum running over the last axis.

    log q at the sampled theta reduces to -sum(log sigma_q) - T/2 log 2pi
    - |zeta|^2/2, so the pathwise theta-dependence of the entropy cancels.
    """
    neg_log_q = (np.sum(np.log(sq, out=work), axis=-1) + 0.5 * theta.shape[-1] * _LOG_2PI
                 + 0.5 * np.sum(np.square(zeta, out=work), axis=-1))
    elbo = n_weight * ll + prior.log_density_sum(theta) + neg_log_q
    return float(elbo) if theta.ndim == 1 else elbo


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


def elbo_gradient(state: VariationalState, shape: NetworkShape, data: Dataset,
                  prior, sigma: float, seed, x=None, y=None,
                  n_weight: float = 1.0, buffers: StepBuffers | None = None):
    """Pathwise gradient of the single-sample ELBO with respect to (mu, rho)
    for the noise draw of `seed`.

    Returns (objective, g_mu, g_rho), where objective is the frozen ELBO of
    that draw, taken from the same network pass as its gradient.  Optionally
    evaluates on an explicit (x, y) minibatch with the data term reweighted
    by n_weight to stay unbiased.  For a stacked state (mu and rho of shape
    (R, T)), `seed` holds one seed per row, x and y are stacked (R, n, d)
    and (R, n), and objective is an (R,) array; each row equals a separate
    call bit for bit.  The step runs in `buffers` (a StepBuffers for shape,
    n and the stack), and g_mu and g_rho are its arrays, overwritten by the
    next call with the same set; without one a fresh set is allocated.
    """
    if x is None:
        x, y = data.x, data.y
    stack = None if state.mu.ndim == 1 else state.mu.shape[0]
    n = np.shape(y)[-1]
    b = StepBuffers(shape, n, stack) if buffers is None else buffers
    b.network.check(shape, n, stack)
    T = shape.n_params
    seeds = [seed] if stack is None else list(seed)
    if stack is not None and len(seeds) != stack:
        raise ValueError(f"need {stack} seeds, one per row of the stack, got {len(seeds)}")
    for z, s in zip(b.zeta.reshape(-1, T), seeds):
        np.random.default_rng(s).standard_normal(out=z)
    zeta = b.zeta
    sq = softplus(state.rho, out=b.sq)
    sig = _sigmoid(state.rho, out=b.sig, work=b.work, mask=b.mask)
    theta = np.multiply(sq, zeta, out=b.theta)
    theta += state.mu
    ll, g_ll = loglik_and_grad(NetworkParams.from_flat(shape, theta), x, y, sigma,
                               buffers=b.network)
    # Row sums over the last axis equal separate per-row sums bit for bit
    # (pinned in tests/test_priors.py), so a stack's rows match lone fits.
    objective = _elbo(ll, theta, zeta, sq, prior, n_weight, work=b.work)
    g_mu = np.multiply(g_ll, n_weight, out=b.g_mu)
    g_mu += prior.grad_log_pdf(theta)
    g_rho = np.multiply(g_mu, zeta, out=b.g_rho)
    g_rho *= sig
    g_rho += np.divide(sig, sq, out=b.work)  # entropy term d/drho sum log sigma_q
    return objective, g_mu, g_rho


def _init_state(shape: NetworkShape, config: TrainConfig, mu=None, rho=None) -> VariationalState:
    """Weights N(0, 1/fan_in) drawn from the config's seed, zero biases and
    every scale INIT_SIGMA_Q, written into mu and rho (vectors of length T)
    when they are given, so a stack's rows need no temporaries."""
    mu = np.empty(shape.n_params) if mu is None else mu
    rho = np.empty(shape.n_params) if rho is None else rho
    rng = np.random.default_rng(config.seed)
    p = shape.layer_widths
    pos = 0
    for l in range(len(p) - 1):
        w = rng.standard_normal(out=mu[pos : pos + p[l] * p[l + 1]])
        w /= math.sqrt(p[l])  # fan-in
        pos += w.size
        mu[pos : pos + p[l + 1]] = 0.0
        pos += p[l + 1]
    rho.fill(float(_inv_softplus(INIT_SIGMA_Q)))
    return VariationalState(mu=mu, rho=rho, step=0, seed=config.seed)


def train(shape: NetworkShape, data: Dataset, prior, config: TrainConfig,
          sigma: float = 0.1):
    """Stochastic ELBO ascent; returns the final state and the per-iteration
    objective trace (minibatch single-pass estimates), or raises
    TrainingDiverged at the first non-finite objective."""
    (result,) = train_replicates(shape, [data], prior, [config], sigma)
    if isinstance(result, TrainingDiverged):
        raise result
    return result


def train_replicates(shape: NetworkShape, datasets, prior, configs, sigma: float = 0.1):
    """Train one fit per (dataset, config) pair in lockstep, each step one
    stacked `elbo_gradient` call and one stacked Adam update.

    The configs may differ only in `seed`, and the datasets must share n
    and d.  Each replicate keeps its own initial state, minibatch and noise
    draws, so entry r of the returned list equals
    train(shape, datasets[r], prior, configs[r], sigma) bit for bit: a
    (state, trace) pair whose mu and rho are rows of the stack, or the
    TrainingDiverged that fit raises.  A diverged replicate leaves the stack
    before its update and the others go on.
    """
    datasets, configs = list(datasets), list(configs)
    if not configs or len(datasets) != len(configs):
        raise ValueError("need one dataset per config and at least one of each")
    common = replace(configs[0], seed=0)
    if any(replace(c, seed=0) != common for c in configs):
        raise ValueError("replicate configs may differ only in seed")
    n, d = datasets[0].n, datasets[0].d
    if any((data.n, data.d) != (n, d) for data in datasets):
        raise ValueError("replicate datasets must share n and d")
    R, T = len(configs), shape.n_params
    batch = common.batch_size if 0 < common.batch_size < n else n
    n_weight = n / batch

    state = VariationalState(mu=np.empty((R, T)), rho=np.empty((R, T)))
    for r, config in enumerate(configs):
        _init_state(shape, config, state.mu[r], state.rho[r])
    rngs = [np.random.default_rng(config.seed + 1) for config in configs]
    if batch < n:
        xb, yb = np.empty((R, batch, d)), np.empty((R, batch))
    else:
        xb, yb = np.stack([data.x for data in datasets]), np.stack([data.y for data in datasets])

    buffers = StepBuffers(shape, batch, R)
    m_mu, v_mu, m_rho, v_rho = (np.zeros((R, T)) for _ in range(4))  # Adam moments
    scratch = (np.empty((R, T)), np.empty((R, T)))
    trace = np.empty((R, common.iterations))
    results = [None] * R
    rows = list(range(R))  # the replicate in each row of the stack
    for it in range(common.iterations):
        seeds = []
        for r, k in enumerate(rows):
            if batch < n:
                idx = rngs[k].choice(n, size=batch, replace=False)
                xb[r], yb[r] = datasets[k].x[idx], datasets[k].y[idx]
            seeds.append(int(rngs[k].integers(0, 2**63 - 1)))
        obj, g_mu, g_rho = elbo_gradient(
            state, shape, None, prior, sigma, seeds, x=xb, y=yb, n_weight=n_weight,
            buffers=buffers,
        )
        finite = np.isfinite(obj)
        if not finite.all():
            for r in np.flatnonzero(~finite):
                results[rows[r]] = TrainingDiverged(it, float(obj[r]))
            keep = np.flatnonzero(finite)
            if keep.size == 0:
                return results
            rows = [rows[r] for r in keep]
            mu, rho, m_mu, v_mu, m_rho, v_rho, trace, xb, yb, obj, g_mu, g_rho = (
                a[keep] for a in (state.mu, state.rho, m_mu, v_mu, m_rho, v_rho, trace,
                                  xb, yb, obj, g_mu, g_rho))
            state = VariationalState(mu=mu, rho=rho)
            scratch = (np.empty(mu.shape), np.empty(mu.shape))
            buffers = StepBuffers(shape, batch, len(rows))
        trace[:, it] = obj
        _adam_ascent(state.mu, g_mu, m_mu, v_mu, it + 1, common.learning_rate, scratch)
        _adam_ascent(state.rho, g_rho, m_rho, v_rho, it + 1, common.learning_rate, scratch)
    for r, k in enumerate(rows):
        results[k] = (VariationalState(mu=state.mu[r], rho=state.rho[r],
                                       step=common.iterations, seed=configs[k].seed),
                      trace[r])
    return results


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
