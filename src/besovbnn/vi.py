"""Mean-field Gaussian variational inference (Bayes by Backprop) for the
fixed-architecture network, posterior-predictive summaries, and the
checkpoint format.

The variational family is a fully factorized Gaussian over the flattened
parameter vector; scales are parameterized through a softplus pre-activation
so they stay positive.  The single-sample ELBO uses the pathwise
(reparameterization) estimator theta = mu + softplus(rho) * zeta.
"""

from __future__ import annotations

import contextvars
import json
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .network import (NetworkParams, NetworkShape, PassBuffers, _layer_views, forward, loglik,
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
HELPER_MIN = 1 << 16  # doubles per noise draw (R*T) from which work runs on a helper thread


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


@contextmanager
def _helper(size: int):
    """A one-thread executor for the work that runs beside the calling
    thread's when a noise draw holds `size` >= HELPER_MIN doubles, else
    None: `_start` then runs each task inline."""
    if size < HELPER_MIN:
        yield None
    else:
        with ThreadPoolExecutor(1) as pool:
            yield pool


def _start(helper, fn, *args, **kwargs):
    """Start fn(*args, **kwargs) on the helper, under the caller's numpy
    error state, or run it now when helper is None.  Returns a call that
    waits for fn and gives its result or raises its exception."""
    if helper is None:
        result = fn(*args, **kwargs)
        return lambda: result
    return helper.submit(contextvars.copy_context().run, fn, *args, **kwargs).result


def _draw_noise(out, seeds):
    """Fill out (T,), or each row of out (R, T), with the standard normals
    of its seed."""
    for z, s in zip(out.reshape(-1, out.shape[-1]), seeds):
        np.random.default_rng(s).standard_normal(out=z)


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


class _BlockSet:
    """One thread's block-wide arrays of the step's tail: sigmoid(rho)
    `sig`, g_mu, g_rho, the scratch `work` and the bool `mask`.  sig is
    dead once g_rho is formed, so it is Adam's second scratch."""

    def __init__(self, lead: tuple, width: int):
        self.sig, self.g_mu, self.g_rho, self.work = (
            np.empty((*lead, width)) for _ in range(4))
        self.mask = np.empty((*lead, width), dtype=bool)


class StepBuffers:
    """Work arrays of one `elbo_gradient` call for a network shape, batch
    size and a stack of R states (stack=R) or one (stack=None).

    Length T, with a leading axis R for a stack: the noise draw zeta, a
    spare of its shape (the ELBO sums' scratch), sigma_q `sq` and theta,
    plus the network pass's PassBuffers, whose `grad` is the fifth and whose
    activations (reused for the deltas) and mask take 8·R·n·Σw + R·n·max(w)
    bytes, and `params`, the NetworkParams views of theta.  The elementwise
    tail after the network pass runs over column blocks of `width`
    (TAIL_BLOCK elements across the stack), in `sets`, one block-wide
    `_BlockSet` (four float arrays and a bool mask, 33·R·width bytes) for
    each of the `threads` threads that take blocks.  The buffers keep no
    record of what they hold: the caller that fills zeta and sq knows.
    """

    def __init__(self, shape: NetworkShape, batch: int, stack: int | None = None,
                 threads: int = 1):
        T = shape.n_params
        lead = () if stack is None else (stack,)
        self.zeta, self.spare, self.sq, self.theta = (np.empty((*lead, T)) for _ in range(4))
        self.network = PassBuffers(shape, batch, stack)
        self.params = NetworkParams.from_flat(shape, self.theta)
        self.width = min(T, max(1, TAIL_BLOCK // (stack or 1)))
        self.sets = [_BlockSet(lead, self.width) for _ in range(threads)]

    def blocks(self):
        """The column slices of the tail's blocks, in order."""
        T = self.theta.shape[-1]
        return [slice(a, min(a + self.width, T)) for a in range(0, T, self.width)]


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, value: float):
        self.step = step
        self.value = value
        super().__init__(f"non-finite ELBO ({value}) at step {step}")


def _elbo_terms(theta, zeta, sq, prior, work=None):
    """The single-sample ELBO's terms at theta = mu + sq * zeta that need no
    network pass: (log prior density, -log q), each summed over the last
    axis; `work`, if given, is overwritten scratch of theta's shape that
    holds each summand in turn.

    log q at the sampled theta reduces to -sum(log sigma_q) - T/2 log 2pi
    - |zeta|^2/2, so the pathwise theta-dependence of the entropy cancels.
    """
    neg_log_q = (np.sum(np.log(sq, out=work), axis=-1) + 0.5 * theta.shape[-1] * _LOG_2PI
                 + 0.5 * np.sum(np.square(zeta, out=work), axis=-1))
    return prior.log_density_sum(theta, out=work), neg_log_q


def _elbo(ll, log_prior, neg_log_q, n_weight: float = 1.0):
    """Single-sample ELBO from the log-likelihood ll of the data at theta
    and `_elbo_terms`: a float for vectors (T,), and (R,) for stacks (R, T)
    with ll (R,)."""
    elbo = n_weight * ll + log_prior + neg_log_q
    return elbo if isinstance(elbo, np.ndarray) else float(elbo)


def frozen_elbo(mu, rho, zeta, shape: NetworkShape, x, y, prior, sigma: float,
                n_weight: float = 1.0) -> float:
    """Single-sample ELBO with the noise draw zeta held fixed.

    This is the objective whose (mu, rho) gradient elbo_gradient computes for
    a single sample; finite differences of it validate the pathwise gradient.
    """
    sq = softplus(rho)
    theta = np.asarray(mu, dtype=float) + sq * zeta
    ll = loglik(NetworkParams.from_flat(shape, theta), x, y, sigma)
    return _elbo(ll, *_elbo_terms(theta, zeta, sq, prior), n_weight)


def elbo_gradient(state: VariationalState, shape: NetworkShape, x, y, prior,
                  sigma: float, seed, n_weight: float = 1.0,
                  buffers: StepBuffers | None = None, gradients: bool = True,
                  helper=None, next_seeds=None):
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

    A caller that steps on its own buffers passes seed=None once it has
    filled buffers.zeta with the noise and buffers.sq with softplus(rho).
    The ELBO's other terms are summed on `helper` (None: inline) during the
    network pass, and then the noise of `next_seeds`, if given, is drawn
    into buffers.spare.  gradients=False stops the step before the tail,
    which the caller runs on `buffers` block by block, and returns
    (objective, wait), where wait() waits for that draw (None without one).
    """
    stack = None if state.mu.ndim == 1 else state.mu.shape[0]
    n = np.shape(y)[-1]
    if seed is None and buffers is None:
        raise ValueError("seed=None needs the buffers that hold the noise")
    b = StepBuffers(shape, n, stack) if buffers is None else buffers
    b.network.check(shape, n, stack)
    if seed is not None:
        seeds = [seed] if stack is None else list(seed)
        if stack is not None and len(seeds) != stack:
            raise ValueError(f"need {stack} seeds, one per row of the stack, got {len(seeds)}")
        softplus(state.rho, out=b.sq)
        _draw_noise(b.zeta, seeds)
    theta = np.multiply(b.sq, b.zeta, out=b.theta)
    theta += state.mu
    # Row sums over the last axis equal separate per-row sums bit for bit
    # (pinned in tests/test_priors.py), so a stack's rows match lone fits.
    terms = _start(helper, _elbo_terms, theta, b.zeta, b.sq, prior, b.spare)
    drawn = None if next_seeds is None else _start(helper, _draw_noise, b.spare, next_seeds)
    ll, _ = loglik_and_grad(b.params, x, y, sigma, buffers=b.network)
    objective = _elbo(ll, *terms(), n_weight)
    if not gradients:
        return objective, drawn
    g_mu, g_rho = np.empty_like(theta), np.empty_like(theta)
    for cols in b.blocks():
        g_mu[..., cols], g_rho[..., cols] = _gradient_block(
            b, b.sets[0], state.rho, cols, prior, n_weight)
    return objective, g_mu, g_rho


def _gradient_block(b: StepBuffers, own: _BlockSet, rho, cols: slice, prior, n_weight: float):
    """The tail of the step in `b` on the columns `cols`: sigmoid(rho) into
    own.sig, then g_mu and g_rho into the block arrays of `own`, the set of
    the thread that runs it, whose views it returns.  Every coordinate takes
    the operations of the whole-vector formula in the same order, so the
    values do not depend on the blocks.  zeta is read from `b` on each
    call, since `train_replicates` swaps it with the spare."""
    w = cols.stop - cols.start
    work, mask = own.work[..., :w], own.mask[..., :w]
    sig = _sigmoid(rho[..., cols], out=own.sig[..., :w], work=work, mask=mask)
    g_mu = np.multiply(b.network.grad[..., cols], n_weight, out=own.g_mu[..., :w])
    g_mu += prior.grad_log_pdf(b.theta[..., cols])
    g_rho = np.multiply(g_mu, b.zeta[..., cols], out=own.g_rho[..., :w])
    g_rho *= sig
    g_rho += np.divide(sig, b.sq[..., cols], out=work)  # entropy term d/drho sum log sigma_q
    return g_mu, g_rho


def _init_state(shape: NetworkShape, seed: int, mu, rho) -> None:
    """Write weights N(0, 1/fan_in) drawn from seed, zero biases and every
    scale INIT_SIGMA_Q into mu and rho (vectors of length T), so a stack's
    rows need no temporaries."""
    rng = np.random.default_rng(seed)
    for w, b in zip(*_layer_views(shape, mu)):
        rng.standard_normal(out=w)
        w /= math.sqrt(w.shape[0])  # fan-in
        b.fill(0.0)
    rho.fill(float(_inv_softplus(INIT_SIGMA_Q)))


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

    The loop owns the hand-off from step to step: step 0's call fills zeta
    and sq from its seeds, the tail leaves sq at softplus of the updated
    rho, and each call draws the next step's noise into the spare, which
    the loop waits for and swaps with zeta once the tail is done; later
    calls take seed=None.  From HELPER_MIN doubles per noise draw a helper
    thread, alive for the loop, runs the ELBO's sums and that draw during
    each network pass and shares the tail's blocks (the gradient, the Adam
    updates and the next step's softplus) with the calling thread.  The
    last step's draws serve the check.  Below HELPER_MIN they run inline in order.
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
        _init_state(shape, config.seed, state.mu[r], state.rho[r])
    rngs = [np.random.default_rng(config.seed + 1) for config in configs]
    if batch < n:
        xb, yb = np.empty((R, batch, d)), np.empty((R, batch))
    elif R == 1:  # a lone full-batch fit reads its data in place
        xb, yb = datasets[0].x[None], datasets[0].y[None]
    else:
        xb, yb = np.stack([data.x for data in datasets]), np.stack([data.y for data in datasets])

    def next_inputs():
        """Step inputs from each replicate's rng: its minibatch indices
        (none for the full batch), then the seed of its noise draw."""
        picks, seeds = [], []
        for rng in rngs:
            if batch < n:
                picks.append(rng.choice(n, size=batch, replace=False))
            seeds.append(int(rng.integers(0, 2**63 - 1)))
        return picks, seeds

    def load_batch(picks):
        for r, (idx, data) in enumerate(zip(picks, datasets)):
            xb[r], yb[r] = data.x[idx], data.y[idx]

    m_mu, v_mu, m_rho, v_rho = (np.zeros((R, T)) for _ in range(4))  # Adam moments
    trace = np.empty((R, common.iterations))
    results = [None] * R
    live = np.ones(R, dtype=bool)

    def ascend(own: _BlockSet, blocks: deque, t: int):
        """Take blocks until none is left: on each, the gradient, Adam step
        t of mu and rho, and then sigma_q of the updated rho into
        buffers.sq, which the next call (seed=None) takes as it is."""
        while True:
            try:
                cols = blocks.popleft()  # deque.popleft is thread-safe
            except IndexError:
                return
            g_mu, g_rho = _gradient_block(buffers, own, state.rho, cols, prior, n_weight)
            g_mu[~live], g_rho[~live] = 0.0, 0.0
            scratch = [a[..., : cols.stop - cols.start] for a in (own.work, own.sig)]
            for param, g, m, v in ((state.mu, g_mu, m_mu, v_mu),
                                   (state.rho, g_rho, m_rho, v_rho)):
                _adam_ascent(param[..., cols], g, m[..., cols], v[..., cols], t,
                             common.learning_rate, scratch)
            softplus(state.rho[..., cols], out=buffers.sq[..., cols])

    # Overflow shows as a non-finite objective, which becomes TrainingDiverged,
    # so numpy need not warn.  Pass `iterations` checks the last update's
    # state on the last step's draws and updates nothing.
    with np.errstate(all="ignore"), _helper(R * T) as helper:
        buffers = StepBuffers(shape, batch, R, threads=1 if helper is None else 2)
        picks, seeds = next_inputs()
        load_batch(picks)
        for it in range(common.iterations + 1):
            # Step it+1's inputs come first, so that its noise is drawn into
            # the spare during this step's network pass.
            next_picks, next_seeds = next_inputs() if it + 1 < common.iterations else (None, None)
            obj, drawn = elbo_gradient(
                state, shape, xb, yb, prior, sigma, seeds if it == 0 else None,
                n_weight=n_weight, buffers=buffers, gradients=False, helper=helper,
                next_seeds=next_seeds,
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
            # The helper joins once its noise draw is done, with the last
            # set (the only one when the tasks run inline); every block
            # touches only its own columns.
            blocks = deque(buffers.blocks())
            helped = _start(helper, ascend, buffers.sets[-1], blocks, it + 1)
            ascend(buffers.sets[0], blocks, it + 1)
            helped()
            if drawn is not None:  # this step's batch and noise are read
                drawn()
                buffers.zeta, buffers.spare = buffers.spare, buffers.zeta
                load_batch(next_picks)
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
    """Posterior-predictive mean and pointwise quantile band on the
    caller's grid, and per-draw empirical errors against the truth on the
    training design."""

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
    zetas, theta = np.empty((2, state.T)), np.empty(state.T)
    params = NetworkParams.from_flat(shape, theta)
    # From HELPER_MIN doubles a helper thread draws zeta_{k+1} while this
    # thread runs draw k's networks.  sq * zeta + mu has the bits of
    # mu + sq * zeta, since IEEE addition commutes.
    with _helper(state.T) as helper:
        draw = _start(helper, rng.standard_normal, out=zetas[0])
        for k in range(draws):
            zeta = draw()
            if k + 1 < draws:
                draw = _start(helper, rng.standard_normal, out=zetas[(k + 1) % 2])
            np.multiply(sq, zeta, out=theta)
            theta += state.mu
            fvals[k] = forward(params, grid_x)
            fx = fvals[k] if on_design else forward(params, data.x)
            errors[k] = empirical_norm(fx - fx_true)
    mean = fvals.mean(axis=0)
    lower, upper = np.quantile(fvals, [alpha / 2.0, 1.0 - alpha / 2.0], axis=0)
    return PredictiveSummary(mean=mean, lower=lower, upper=upper, errors=errors)


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
    version = envelope.get("schema_version")
    if type(version) is not int or version != CHECKPOINT_SCHEMA_VERSION:  # bool is no int here
        raise ValueError(
            f"checkpoint schema_version {version!r} is not "
            f"{CHECKPOINT_SCHEMA_VERSION}"
        )
    missing = [k for k in ("flatten_order", "shape", "T", "seed", "step") if k not in envelope]
    if missing:
        raise ValueError(f"checkpoint envelope lacks {', '.join(missing)}")
    if envelope["flatten_order"] != FLATTEN_ORDER:
        raise ValueError("checkpoint uses an unknown flatten order")
    for key in ("seed", "step"):
        if type(envelope[key]) is not int or envelope[key] < 0:  # bool is no int here
            raise ValueError(f"checkpoint {key}={envelope[key]!r} is not a non-negative integer")
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
