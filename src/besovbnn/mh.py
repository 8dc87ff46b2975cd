"""Random-walk Metropolis over the flattened network parameters.

Desk-scale only (a hard cap on the parameter count): the chain exists to
cross-validate the variational posterior on tiny models, not to sample the
table-sized networks.  The target is evaluated by a forward pass only
(`network.loglik`).  A random-walk proposal does not depend on whether the
earlier ones were accepted, so `mh_sample` pre-fetches: it scores the next
PROPOSALS_PER_PASS proposals along the all-rejected path in one stacked
prior call and one stacked likelihood pass, in buffers and network views
built once per chain, and then walks their accept decisions in order
(Brockwell 2006).  The start point is scored by the same stacked target.
The chain is the one-proposal-per-step chain bit for bit; only the number
of calls falls, not the cost of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import NetworkParams, NetworkShape, PassBuffers, forward, loglik
from .network import loglik_and_grad  # unused: kept as the benchmark tracer's lookup site
# These imports also make `import besovbnn.mh` load `vi` and the priors, whose
# import times the benchmark's per-module probe reads.
from . import vi  # unused
from .priors import DensityHandle
from .testbed import Dataset

__all__ = ["MHConfig", "MHResult", "mh_sample", "compare_vi_mh"]

MAX_PARAMS = 200
DRAWS_PER_PASS = 128  # chain draws per stacked network pass in compare_vi_mh
PROPOSALS_PER_PASS = 8  # proposals scored per stacked target pass in mh_sample


@dataclass
class MHConfig:
    steps: int = 20000
    burn_in: int = 5000
    proposal_sd: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not self.steps > self.burn_in >= 0:
            raise ValueError("need steps > burn_in >= 0")
        if not 0 < self.proposal_sd < math.inf:
            raise ValueError(f"need a finite proposal_sd > 0, got {self.proposal_sd}")


@dataclass
class MHResult:
    chain: np.ndarray  # (steps - burn_in, T): every state after burn-in
    acceptance_rate: float
    proposal_sd: float  # final (post-adaptation) scale
    shape: NetworkShape


def mh_sample(shape: NetworkShape, data: Dataset | None, prior: DensityHandle, sigma: float,
              config: MHConfig) -> MHResult:
    """Spherical-Gaussian random-walk Metropolis targeting prior x likelihood,
    started at theta = 0.

    The proposal scale adapts toward 0.234 acceptance during burn-in and is
    frozen afterwards, so the retained chain is a correct Metropolis chain.

    Proposals are pre-fetched: the draws (z, u) of the next
    PROPOSALS_PER_PASS steps are queued in the generator's order, the
    proposals theta + sd * z along the all-rejected path are scored by one
    stacked prior call and one stacked `loglik`, and the accept decisions
    are walked in step order up to the first accept, the end of an
    adaptation window or the end of the chain.  The unread draws move to
    the front of the queue.  The start point is scored by the same stacked
    target, every row at theta = 0.  Each walked step sees the doubles of a
    lone step, so the chain is the one-proposal-per-step chain bit for bit.
    """
    T = shape.n_params
    if T > MAX_PARAMS:
        raise ValueError(f"parameter count {T} exceeds the desk-scale cap {MAX_PARAMS}")
    rng = np.random.default_rng(config.seed)
    K = PROPOSALS_PER_PASS
    z, u = np.empty((K, T)), [0.0] * K  # the queued draws of the next K steps
    props = np.zeros((K, T))  # every row holds the start point theta = 0
    props_params = NetworkParams.from_flat(shape, props)
    if data is not None:
        buffers = PassBuffers(shape, data.n, stack=K)
        xs, ys = np.repeat(data.x[None], K, axis=0), np.repeat(data.y[None], K, axis=0)

    def score():
        """The log target of every row of props: its log prior, plus its
        log-likelihood where the prior is finite and there is data.  Zeros
        stand in for the other rows in the one stacked network pass."""
        log_prior = prior.log_density_sum(props).tolist()
        if data is None:
            return log_prior
        skip = [j for j, lp in enumerate(log_prior) if not math.isfinite(lp)]
        if skip:
            held = props[skip]
            props[skip] = 0.0
        log_lik = loglik(props_params, xs, ys, sigma, buffers=buffers).tolist()
        if skip:
            props[skip] = held
        return [lp + ll if math.isfinite(lp) else lp for lp, ll in zip(log_prior, log_lik)]

    theta = np.zeros(T)
    log_p = score()[0]
    if not math.isfinite(log_p):
        raise ValueError("non-finite target at the initial point")

    def draw(rows):
        for j in rows:
            rng.standard_normal(out=z[j])
            u[j] = rng.random()

    draw(range(K))
    sd = float(config.proposal_sd)
    steps, burn_in = config.steps, config.burn_in
    chain = np.empty((steps - burn_in, T))
    accepted_post = 0
    accept_window = 0
    window = 100
    step = 0
    while step < steps:
        # props = theta + sd * z row by row, the doubles of one step's proposal.
        np.multiply(z, sd, out=props)
        props += theta
        log_target = score()
        for j in range(K):
            accept = math.log(u[j]) < log_target[j] - log_p
            if accept:
                theta[:] = props[j]
                log_p = log_target[j]
            if step < burn_in:
                accept_window += accept
                if (step + 1) % window == 0:
                    rate = accept_window / window
                    sd *= math.exp(0.5 * (rate - 0.234))
                    accept_window = 0
            else:
                accepted_post += accept
                chain[step - burn_in] = theta
            step += 1
            # A new theta or a new sd makes the queued proposals stale.
            if accept or step == steps or (step <= burn_in and step % window == 0):
                break
        used = j + 1
        z[: K - used] = z[used:]
        u[: K - used] = u[used:]
        draw(range(K - used, K))
    return MHResult(
        chain=chain,
        acceptance_rate=accepted_post / (steps - burn_in),
        proposal_sd=sd,
        shape=shape,
    )


def compare_vi_mh(vi_mean_on_grid, mh_result: MHResult, grid, tolerance: float = 0.1):
    """Max absolute difference of posterior-predictive mean functions.

    vi_mean_on_grid, of shape (m,), is the variational predictive mean
    evaluated on `grid`, an (m,) or (m, d_in) array of m points (`forward`
    rejects another dimension); the chain mean function is averaged over
    the retained draws.
    """
    grid = np.asarray(grid, dtype=float)
    grid_x = grid.reshape(-1, 1) if grid.ndim == 1 else grid
    vi_mean = np.asarray(vi_mean_on_grid, dtype=float)
    if vi_mean.shape != grid_x.shape[:1]:
        raise ValueError(f"vi mean of shape {vi_mean.shape}, not the grid's {grid_x.shape[:1]}")
    chain = mh_result.chain
    acc = np.zeros(grid_x.shape[0])
    for start in range(0, chain.shape[0], DRAWS_PER_PASS):
        params = NetworkParams.from_flat(mh_result.shape, chain[start:start + DRAWS_PER_PASS])
        for f in forward(params, grid_x):  # in chain order, as a draw-by-draw sum
            acc += f
    mh_mean = acc / chain.shape[0]
    max_diff = float(np.max(np.abs(vi_mean - mh_mean)))
    return {
        "max_abs_diff": max_diff,
        "within_tolerance": max_diff <= tolerance,
        "tolerance": tolerance,
    }
