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
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .network import (NetworkParams, NetworkShape, PassBuffers, _layer_views, forward,
                      loglik_and_grad)
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
TAIL_BLOCK = 32_768  # elements per block, across the stack, of a step's elementwise tail


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
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")


class StepBuffers:
    """Work arrays of one `elbo_gradient` call for a network shape, batch
    size and a stack of R states (stack=R) or one (stack=None).

    Length T, with a leading axis R for a stack: the noise draw zeta,
    sigma_q, sigmoid(rho) and theta, plus the network pass's PassBuffers,
    whose `grad` is the fifth, and `params`, the NetworkParams views of
    theta.  The elementwise tail after the network pass runs over column
    blocks of `width` (TAIL_BLOCK elements across the stack), so g_mu,
    g_rho, the scratch pair `work` and the bool `mask` are one block wide.
    `train_replicates` builds one set per stack and reuses it on every step.
    """

    def __init__(self, shape: NetworkShape, batch: int, stack: int | None = None):
        T = shape.n_params
        lead = () if stack is None else (stack,)
        self.zeta, self.sq, self.sig, self.theta = (np.empty((*lead, T)) for _ in range(4))
        self.network = PassBuffers(shape, batch, stack)
        self.params = NetworkParams.from_flat(shape, self.theta)
        self.width = min(T, max(1, TAIL_BLOCK // (stack or 1)))
        self.g_mu, self.g_rho, *self.work = (np.empty((*lead, self.width)) for _ in range(4))
        self.mask = np.empty((*lead, self.width), dtype=bool)

    def blocks(self):
        """The column slices of the tail's blocks, in order."""
        T = self.theta.shape[-1]
        return [slice(a, min(a + self.width, T)) for a in range(0, T, self.width)]


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, value: float):
        self.step = step
        self.value = value
        super().__init__(f"non-finite ELBO ({value}) at step {step}")


def _elbo(ll, theta, zeta, sq, prior, n_weight: float = 1.0, work=None):
    """Single-sample ELBO at theta = mu + sq * zeta, given the log-likelihood
    ll of the data at theta; `work`, if given, is overwritten scratch of
    theta's shape that holds each summand in turn.  For
    vectors (T,) it is a float; for stacks (R, T), with ll (R,), it is (R,),
    every sum running over the last axis.

    log q at the sampled theta reduces to -sum(log sigma_q) - T/2 log 2pi
    - |zeta|^2/2, so the pathwise theta-dependence of the entropy cancels.
    """
    neg_log_q = (np.sum(np.log(sq, out=work), axis=-1) + 0.5 * theta.shape[-1] * _LOG_2PI
                 + 0.5 * np.sum(np.square(zeta, out=work), axis=-1))
    elbo = n_weight * ll + prior.log_density_sum(theta, out=work) + neg_log_q
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


def elbo_gradient(state: VariationalState, shape: NetworkShape, x, y, prior,
                  sigma: float, seed, n_weight: float = 1.0,
                  buffers: StepBuffers | None = None, gradients: bool = True):
    """Pathwise gradient of the single-sample ELBO with respect to (mu, rho)
    for the noise draw of `seed`.

    Returns (objective, g_mu, g_rho), where objective is the frozen ELBO of
    that draw, taken from the same network pass as its gradient.  On a
    minibatch (x, y) the data term is reweighted by n_weight to stay
    unbiased.  For a stacked state (mu and rho of shape
    (R, T)), `seed` holds one seed per row, x and y are stacked (R, n, d)
    and (R, n), and objective is an (R,) array; each row equals a separate
    call bit for bit.  The step runs in `buffers` (a StepBuffers for shape,
    n and the stack; without one a fresh set is allocated), and g_mu and
    g_rho are new arrays filled block by block through `_gradient_block`.
    With gradients=False they are None: the step stops before the tail,
    which the caller runs on `buffers` block by block.
    """
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
    sq = softplus(state.rho, out=b.sq)
    theta = np.multiply(sq, b.zeta, out=b.theta)
    theta += state.mu
    ll, _ = loglik_and_grad(b.params, x, y, sigma, buffers=b.network)
    # Row sums over the last axis equal separate per-row sums bit for bit
    # (pinned in tests/test_priors.py), so a stack's rows match lone fits.
    # sig is the sums' scratch until the tail fills it.
    objective = _elbo(ll, theta, b.zeta, sq, prior, n_weight, work=b.sig)
    if not gradients:
        return objective, None, None
    g_mu, g_rho = np.empty_like(theta), np.empty_like(theta)
    for cols in b.blocks():
        g_mu[..., cols], g_rho[..., cols] = _gradient_block(b, state.rho, cols, prior, n_weight)
    return objective, g_mu, g_rho


def _gradient_block(b: StepBuffers, rho, cols: slice, prior, n_weight: float):
    """The tail of the step in `b` on the columns `cols`: sigmoid(rho) into
    b.sig, then g_mu and g_rho into b's block arrays, whose views it
    returns.  Every coordinate takes the operations of the whole-vector
    formula in the same order, so the values do not depend on the blocks."""
    w = cols.stop - cols.start
    work, mask = b.work[0][..., :w], b.mask[..., :w]
    sig = _sigmoid(rho[..., cols], out=b.sig[..., cols], work=work, mask=mask)
    g_mu = np.multiply(b.network.grad[..., cols], n_weight, out=b.g_mu[..., :w])
    g_mu += prior.grad_log_pdf(b.theta[..., cols])
    g_rho = np.multiply(g_mu, b.zeta[..., cols], out=b.g_rho[..., :w])
    g_rho *= sig
    g_rho += np.divide(sig, b.sq[..., cols], out=work)  # entropy term d/drho sum log sigma_q
    return g_mu, g_rho


def _init_state(shape: NetworkShape, config: TrainConfig, mu, rho) -> VariationalState:
    """Weights N(0, 1/fan_in) drawn from the config's seed, zero biases and
    every scale INIT_SIGMA_Q, written into mu and rho (vectors of length T),
    so a stack's rows need no temporaries."""
    rng = np.random.default_rng(config.seed)
    for w, b in zip(*_layer_views(shape, mu)):
        rng.standard_normal(out=w)
        w /= math.sqrt(w.shape[0])  # fan-in
        b.fill(0.0)
    rho.fill(float(_inv_softplus(INIT_SIGMA_Q)))
    return VariationalState(mu=mu, rho=rho, step=0, seed=config.seed)


def train(shape: NetworkShape, data: Dataset, prior, config: TrainConfig,
          sigma: float = 0.1):
    """Stochastic ELBO ascent; returns the final state and the per-iteration
    objective trace (minibatch single-pass estimates), or raises
    TrainingDiverged at the first non-finite objective, the final state's
    included (reported as step `iterations`)."""
    (result,) = train_replicates(shape, [data], prior, [config], sigma)
    if isinstance(result, TrainingDiverged):
        raise result
    return result


def train_replicates(shape: NetworkShape, datasets, prior, configs, sigma: float = 0.1):
    """Train one fit per (dataset, config) pair in lockstep, each step one
    stacked `elbo_gradient` call up to the network pass and the ELBO, then
    the gradient and the Adam updates of the stack block by block.

    The configs may differ only in `seed`, and the datasets must share n
    and d.  Each replicate keeps its own initial state, minibatch and noise
    draws, so entry r of the returned list equals
    train(shape, datasets[r], prior, configs[r], sigma) bit for bit: a
    (state, trace) pair whose mu and rho are rows of the stack, or the
    TrainingDiverged that fit raises.  A diverged replicate stays in the
    stack without being updated while the others go on, and one pass after
    the last update checks the state each fit returns.
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
    trace = np.empty((R, common.iterations))
    results = [None] * R
    live = np.ones(R, dtype=bool)
    # Overflow shows as a non-finite objective, which becomes TrainingDiverged,
    # so numpy need not warn.  Pass `iterations` checks the last update's
    # state on the last step's draws and updates nothing.
    with np.errstate(all="ignore"):
        for it in range(common.iterations + 1):
            if it < common.iterations:
                seeds = []
                for r, (rng, data) in enumerate(zip(rngs, datasets)):
                    if batch < n:
                        idx = rng.choice(n, size=batch, replace=False)
                        xb[r], yb[r] = data.x[idx], data.y[idx]
                    seeds.append(int(rng.integers(0, 2**63 - 1)))
            obj, _, _ = elbo_gradient(
                state, shape, xb, yb, prior, sigma, seeds, n_weight=n_weight,
                buffers=buffers, gradients=False,
            )
            # A diverged row stays in the stack, frozen: its gradient is
            # zeroed and its Adam moments are reset, so no later update moves
            # it; a row's values do not depend on the stack around it.
            dead = live & ~np.isfinite(obj)
            for r in np.flatnonzero(dead):
                results[r] = TrainingDiverged(it, float(obj[r]))
                for m in (m_mu, v_mu, m_rho, v_rho):
                    m[r] = 0.0
            live &= ~dead
            if it == common.iterations or not live.any():
                break
            trace[:, it] = obj
            for cols in buffers.blocks():
                g_mu, g_rho = _gradient_block(buffers, state.rho, cols, prior, n_weight)
                g_mu[~live], g_rho[~live] = 0.0, 0.0
                scratch = [a[..., : cols.stop - cols.start] for a in buffers.work]
                for param, g, m, v in ((state.mu, g_mu, m_mu, v_mu),
                                       (state.rho, g_rho, m_rho, v_rho)):
                    _adam_ascent(param[..., cols], g, m[..., cols], v[..., cols], it + 1,
                                 common.learning_rate, scratch)
    for r in np.flatnonzero(live):
        results[r] = (VariationalState(mu=state.mu[r], rho=state.rho[r],
                                       step=common.iterations, seed=configs[r].seed),
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
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
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
                             errors=errors)


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
    with bin_path.open("wb") as f:
        for a in (state.mu, state.rho):  # a float64 vector or stack row is not copied
            f.write(np.ascontiguousarray(a, dtype="<f8").data)


def load_checkpoint(path):
    """Inverse of save_checkpoint; returns (state, shape)."""
    path = Path(path)
    envelope = json.loads(path.with_suffix(".json").read_text())
    if not isinstance(envelope, dict):
        raise ValueError("checkpoint envelope is not a JSON object")
    if envelope.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise ValueError(
            f"checkpoint schema_version {envelope.get('schema_version')!r} is not "
            f"{CHECKPOINT_SCHEMA_VERSION}"
        )
    missing = [k for k in ("flatten_order", "shape", "T", "seed", "step") if k not in envelope]
    if missing:
        raise ValueError(f"checkpoint envelope lacks {', '.join(missing)}")
    if envelope["flatten_order"] != FLATTEN_ORDER:
        raise ValueError("checkpoint uses an unknown flatten order")
    try:
        shape = NetworkShape.from_dict(envelope["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint shape is malformed: {exc!r}") from exc
    T = shape.n_params
    if envelope["T"] != T:
        raise ValueError(f"checkpoint T={envelope['T']!r} is not its shape's {T} parameters")
    with path.with_suffix(".bin").open("rb") as f:
        # Checked before reading, so a wrong file allocates nothing; mu and
        # rho are read straight into their own arrays.
        if os.fstat(f.fileno()).st_size != 16 * T:
            raise ValueError("checkpoint array length mismatch")
        mu, rho = (np.fromfile(f, dtype="<f8", count=T) for _ in range(2))
    state = VariationalState(mu=mu, rho=rho, step=envelope["step"], seed=envelope["seed"])
    return state, shape
