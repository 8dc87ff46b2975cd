"""Random-walk Metropolis over the flattened network parameters.

Desk-scale only (a hard cap on the parameter count): the chain exists to
cross-validate the variational posterior on tiny models, not to sample the
table-sized networks.  The target is evaluated by a forward pass only
(`network.loglik`), and the current point and the proposal live in two
buffers whose network views are built once per chain.
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


@dataclass
class MHConfig:
    steps: int = 20000
    burn_in: int = 5000
    proposal_sd: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not self.steps > self.burn_in >= 0:
            raise ValueError("need steps > burn_in >= 0")
        if not self.proposal_sd > 0:
            raise ValueError("need proposal_sd > 0")


@dataclass
class MHResult:
    chain: np.ndarray  # (steps - burn_in, T): every state after burn-in
    acceptance_rate: float
    proposal_sd: float  # final (post-adaptation) scale
    shape: NetworkShape


def _log_target(theta, params, data, prior: DensityHandle, sigma, buffers):
    """log prior + log-likelihood at theta, whose network views are params;
    the prior alone without data, and a non-finite prior as it is."""
    lp = prior.log_density_sum(theta)
    if not math.isfinite(lp) or buffers is None:
        return lp
    return lp + loglik(params, data.x, data.y, sigma, buffers=buffers)


def mh_sample(shape: NetworkShape, data: Dataset | None, prior: DensityHandle, sigma: float,
              config: MHConfig) -> MHResult:
    """Spherical-Gaussian random-walk Metropolis targeting prior x likelihood,
    started at theta = 0.

    The proposal scale adapts toward 0.234 acceptance during burn-in and is
    frozen afterwards, so the retained chain is a correct Metropolis chain.
    """
    T = shape.n_params
    if T > MAX_PARAMS:
        raise ValueError(f"parameter count {T} exceeds the desk-scale cap {MAX_PARAMS}")
    rng = np.random.default_rng(config.seed)
    theta = np.zeros(T)
    prop = np.empty(T)
    # Network views of the two points; they swap with the buffers on accept.
    params = NetworkParams.from_flat(shape, theta)
    prop_params = NetworkParams.from_flat(shape, prop)
    buffers = None if data is None else PassBuffers(shape, data.n)
    log_p = _log_target(theta, params, data, prior, sigma, buffers)
    if not math.isfinite(log_p):
        raise ValueError("non-finite target at the initial point")

    sd = config.proposal_sd
    chain = np.empty((config.steps - config.burn_in, T))
    accepted_post = 0
    accept_window = 0
    window = 100
    for step in range(config.steps):
        # prop = theta + sd * z, the same doubles written in place.
        rng.standard_normal(out=prop)
        prop *= sd
        prop += theta
        log_p_prop = _log_target(prop, prop_params, data, prior, sigma, buffers)
        accept = math.log(rng.random()) < log_p_prop - log_p
        if accept:
            theta, prop = prop, theta
            params, prop_params = prop_params, params
            log_p = log_p_prop
        if step < config.burn_in:
            accept_window += accept
            if (step + 1) % window == 0:
                rate = accept_window / window
                sd *= math.exp(0.5 * (rate - 0.234))
                accept_window = 0
        else:
            accepted_post += accept
            chain[step - config.burn_in] = theta
    return MHResult(
        chain=chain,
        acceptance_rate=accepted_post / (config.steps - config.burn_in),
        proposal_sd=sd,
        shape=shape,
    )


def compare_vi_mh(vi_mean_on_grid, mh_result: MHResult, grid, tolerance: float = 0.1):
    """Max absolute difference of posterior-predictive mean functions.

    vi_mean_on_grid is the variational predictive mean evaluated on `grid`;
    the chain mean function is averaged over the retained draws.
    """
    grid = np.asarray(grid, dtype=float)
    grid_x = grid.reshape(-1, 1) if grid.ndim == 1 else grid
    if grid_x.shape[1] != mh_result.shape.d_in:
        raise ValueError("grid dimension does not match the chain's model")
    vi_mean = np.asarray(vi_mean_on_grid, dtype=float)
    if vi_mean.shape[0] != grid_x.shape[0]:
        raise ValueError("vi summary and grid length mismatch")
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
