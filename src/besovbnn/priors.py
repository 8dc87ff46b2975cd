"""Prior log-densities and samplers: spike-and-slab over sparse supports,
Gaussian-mixture shrinkage, generic coordinatewise product priors, and the
prior over network architectures (zero-truncated Poisson sizes, exponential
magnitude bound).

Density handles expose vectorized `log_pdf` / `grad_log_pdf` plus analytic
two-sided tail masses where available, and are registered by name for CLI
selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, log_ndtr, logsumexp

from .design import MixturePriorSpec

__all__ = [
    "SpikeSlabSpec",
    "SparseDraw",
    "ArchPriorSpec",
    "spike_slab_log_density",
    "spike_slab_sample",
    "mixture_log_density",
    "mixture_sample",
    "arch_prior_log_pmf",
    "arch_prior_sample",
    "DensityHandle",
    "GaussianDensity",
    "LaplaceDensity",
    "UniformSlabDensity",
    "MixtureDensity",
    "FlatDensity",
    "make_density",
    "DENSITY_NAMES",
]

_LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Spike-and-slab over supports of size exactly S


@dataclass(frozen=True)
class SpikeSlabSpec:
    """Uniform-slab spike-and-slab prior: T coordinates, exactly S active,
    active values uniform on [-B, B]."""

    T: int
    S: int
    B: float

    def __post_init__(self):
        if not 0 < self.S <= self.T:
            raise ValueError("need 0 < S <= T")
        if self.B <= 0:
            raise ValueError("need B > 0")


@dataclass(frozen=True)
class SparseDraw:
    """Active index set (strictly increasing) and the values on those coordinates."""

    gamma: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", tuple(self.gamma))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if len(self.gamma) != self.values.shape[0]:
            raise ValueError("gamma and values must be the same length")
        if any(a >= b for a, b in zip(self.gamma, self.gamma[1:])):
            raise ValueError(f"gamma must be strictly increasing, got {self.gamma}")


def spike_slab_log_density(draw: SparseDraw, spec: SpikeSlabSpec) -> float:
    """log prior of a sparse draw: -log C(T, S) + S log(1/(2B)).

    Returns -inf if any active value leaves the slab [-B, B].
    """
    if len(draw.gamma) != spec.S:
        raise ValueError(f"support size {len(draw.gamma)} != S = {spec.S}")
    if any(not 0 <= j < spec.T for j in draw.gamma):
        raise ValueError("active index out of range")
    if np.any(np.abs(draw.values) > spec.B):
        return -math.inf
    log_binom = (
        gammaln(spec.T + 1) - gammaln(spec.S + 1) - gammaln(spec.T - spec.S + 1)
    )
    return float(-log_binom - spec.S * math.log(2.0 * spec.B))


def spike_slab_sample(spec: SpikeSlabSpec, seed: int) -> SparseDraw:
    """Draw a support uniformly over size-S subsets and values uniform on the slab."""
    rng = np.random.default_rng(seed)
    gamma = rng.choice(spec.T, size=spec.S, replace=False)
    values = rng.uniform(-spec.B, spec.B, size=spec.S)
    order = np.argsort(gamma)
    return SparseDraw(gamma=tuple(int(j) for j in gamma[order]), values=values[order])


# ---------------------------------------------------------------------------
# Gaussian mixture shrinkage density


def _mixture_log_terms(t: np.ndarray, spec: MixturePriorSpec) -> np.ndarray:
    """Per-component log densities, shape (2,) + t.shape.

    The spike component is evaluated through log_sigma1 only; its density at
    any t bounded away from 0 underflows to -inf, which logsumexp absorbs.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        z1_sq = np.square(t * math.exp(-spec.log_sigma1))
        z1_sq = np.where(t == 0.0, 0.0, z1_sq)  # 0 * inf guard for tiny sigma1
        spike = math.log(spec.pi1) - spec.log_sigma1 - 0.5 * _LOG_2PI - 0.5 * z1_sq
        spike = np.where(np.isfinite(z1_sq), spike, -np.inf)
        slab = (
            math.log(spec.pi2)
            - math.log(spec.sigma2)
            - 0.5 * _LOG_2PI
            - 0.5 * np.square(t / spec.sigma2)
        )
    return np.stack([np.broadcast_to(spike, np.shape(slab)), slab])


def _spike_cut(spec: MixturePriorSpec) -> float:
    """|t| beyond which the mixture is exactly its slab term in doubles.

    Past the cut the spike's log weight relative to the slab lies below
    -800 - 2 |log sigma1|, so logsumexp adds exp(...) == 0 to the slab, and
    the spike part of the gradient, exp(-2 log sigma1 + log w_spike), is 0 as
    well.  The 1 - (sigma1 / sigma2)^2 factor keeps the bound for a spike
    that is not negligibly narrow; a spike at least as wide as the slab never
    fades.  If sigma1 underflows, the cut is 0.
    """
    log_width = spec.log_sigma1 - math.log(spec.sigma2)
    if log_width >= 0.0:
        return math.inf
    log_ratio = (math.log(spec.pi1) - spec.log_sigma1
                 - math.log(spec.pi2) + math.log(spec.sigma2))
    margin = 800.0 + abs(log_ratio) + 2.0 * abs(spec.log_sigma1)
    return math.exp(spec.log_sigma1) * math.sqrt(2.0 * margin / -math.expm1(2.0 * log_width))


def _two_component(a: np.ndarray, spec: MixturePriorSpec) -> np.ndarray:
    """Indices of the 1-d a = |t| that need the full two-component formulas:
    inside the spike cut, NaN, or so large that the slab's square overflows."""
    slab = a > _spike_cut(spec)
    slab &= a < 1e154 * spec.sigma2
    return np.flatnonzero(np.logical_not(slab, out=slab))


def mixture_log_density(theta, spec: MixturePriorSpec, out=None):
    """log g(theta) for the two-component Gaussian mixture, elementwise,
    written into `out` (a C-contiguous float array of theta's shape) when
    it is given, with the same bits.

    Coordinates past the spike cut take the closed-form slab term, which is
    what logsumexp of the two components returns there, bit for bit.
    """
    t = np.asarray(theta, dtype=float).ravel()
    if out is not None and not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    c = math.log(spec.pi2) - math.log(spec.sigma2) - 0.5 * _LOG_2PI
    # |t| first, so the slab term reuses the array
    flat = np.abs(t, out=None if out is None else out.reshape(-1))
    near = _two_component(flat, spec)
    with np.errstate(over="ignore"):
        np.square(np.divide(t, spec.sigma2, out=flat), out=flat)
    flat *= 0.5
    np.subtract(c, flat, out=flat)
    if near.size:
        flat[near] = logsumexp(_mixture_log_terms(t[near], spec), axis=0)
    if out is not None:
        return out
    if np.ndim(theta) == 0:
        return float(flat[0])
    return flat.reshape(np.shape(theta))


def _mixture_grad_log_density(t: np.ndarray, spec: MixturePriorSpec) -> np.ndarray:
    """d/dt log g(t) through both components' responsibilities."""
    terms = _mixture_log_terms(t, spec)
    lse = logsumexp(terms, axis=0)
    log_w_spike = terms[0] - lse
    log_w_slab = terms[1] - lse
    with np.errstate(over="ignore", invalid="ignore"):
        # -2 log sigma1 alone can overflow exp; a -inf spike weight always
        # means zero spike contribution, whatever the scale.
        spike_part = np.where(
            np.isneginf(log_w_spike),
            0.0,
            np.exp(-2.0 * spec.log_sigma1 + log_w_spike),
        )
        slab_part = np.exp(log_w_slab) / spec.sigma2**2
        grad = -t * (spike_part + slab_part)
    return np.where(t == 0.0, 0.0, grad)


def mixture_sample(spec: MixturePriorSpec, count: int, seed: int) -> np.ndarray:
    """Draw count values: Bernoulli(pi2) slab selection, then Gaussian scale."""
    if count < 1:
        raise ValueError("need count >= 1")
    rng = np.random.default_rng(seed)
    slab = rng.random(count) < spec.pi2
    z = rng.standard_normal(count)
    scales = np.where(slab, spec.sigma2, math.exp(spec.log_sigma1))
    return z * scales


# ---------------------------------------------------------------------------
# Adaptive architecture prior


@dataclass(frozen=True)
class ArchPriorSpec:
    """Rates of the architecture prior: zero-truncated Poisson unit count and
    depth, exponential magnitude bound, and the base width multiplier."""

    lam: float
    rho: float
    beta: float
    W1: int = 50

    def __post_init__(self):
        if self.lam <= 0 or self.rho <= 0 or self.beta <= 0:
            raise ValueError("all rates must be positive")
        if self.W1 < 1:
            raise ValueError("need W1 >= 1")


def _zt_poisson_log_pmf(k: int, rate: float) -> float:
    if k < 1:
        raise ValueError("zero-truncated Poisson support is {1, 2, ...}")
    return k * math.log(rate) - gammaln(k + 1) - math.log(math.expm1(rate))


def arch_prior_log_pmf(N: int, L: int, B: float, spec: ArchPriorSpec) -> float:
    """Joint log prior of (N, L, B): two zero-truncated Poissons and an
    exponential density beta * exp(-beta B)."""
    if B <= 0:
        raise ValueError("need B > 0")
    return (
        _zt_poisson_log_pmf(N, spec.lam)
        + _zt_poisson_log_pmf(L, spec.rho)
        + math.log(spec.beta)
        - spec.beta * B
    )


def _zt_poisson_sample(rate: float, u: float) -> int:
    """CDF inversion for the zero-truncated Poisson, exact up to tail 1e-14."""
    log_norm = math.log(math.expm1(rate))
    k = 1
    log_pmf = math.log(rate) - log_norm
    cum = math.exp(log_pmf)
    while cum < u and cum < 1.0 - 1e-14:
        k += 1
        log_pmf += math.log(rate) - math.log(k)
        cum += math.exp(log_pmf)
    return k


def arch_prior_sample(spec: ArchPriorSpec, seed: int):
    """Draw (N, L, B) and return them with the implied geometry
    (L, N*W1, (L-1)*W1^2*N + N, B)."""
    rng = np.random.default_rng(seed)
    u_n, u_l = rng.random(2)
    N = _zt_poisson_sample(spec.lam, u_n)
    L = _zt_poisson_sample(spec.rho, u_l)
    B = float(rng.exponential(1.0 / spec.beta))
    geometry = {
        "L": L,
        "W": N * spec.W1,
        "S": (L - 1) * spec.W1**2 * N + N,
        "B": B,
    }
    return N, L, B, geometry


# ---------------------------------------------------------------------------
# Density handles


def _into(values, out):
    """values, copied into out when an out array is given."""
    if out is None:
        return values
    np.copyto(out, values)
    return out


class DensityHandle:
    """Symmetric univariate density usable as a coordinatewise prior.

    `log_pdf(t, out=None)` writes its values into `out`, a C-contiguous
    float array of t's shape, when one is given; the bits are the same
    either way."""

    name = "abstract"

    def log_pdf(self, t, out=None):
        raise NotImplementedError

    def grad_log_pdf(self, t):
        raise NotImplementedError

    def log_tail_mass(self, c: float) -> float:
        """log P(|X| > c)."""
        raise NotImplementedError

    def log_density_sum(self, theta_vec, out=None):
        """Sum of log_pdf over the last axis: a float for a vector (T,), an
        array (R,) for a stack of vectors (R, T).  The log_pdf values go to
        `out` when it is given, so a caller's scratch array stands in for a
        T-length temporary."""
        total = self.log_pdf(np.asarray(theta_vec, dtype=float), out=out).sum(axis=-1)
        return float(total) if np.ndim(total) == 0 else total


class GaussianDensity(DensityHandle):
    name = "gauss"

    def __init__(self, sigma: float = 1.0):
        if sigma <= 0:
            raise ValueError("need sigma > 0")
        self.sigma = sigma

    def log_pdf(self, t, out=None):
        z = np.square(np.divide(np.asarray(t, dtype=float), self.sigma, out=out), out=out)
        z = np.multiply(z, 0.5, out=out)
        return np.subtract(-0.5 * _LOG_2PI - math.log(self.sigma), z, out=out)

    def grad_log_pdf(self, t):
        return -np.asarray(t, dtype=float) / self.sigma**2

    def log_tail_mass(self, c: float) -> float:
        return math.log(2.0) + float(log_ndtr(-c / self.sigma))


class LaplaceDensity(DensityHandle):
    name = "laplace"

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise ValueError("need scale > 0")
        self.scale = scale

    def log_pdf(self, t, out=None):
        z = np.divide(np.abs(np.asarray(t, dtype=float), out=out), self.scale, out=out)
        return np.subtract(-math.log(2.0 * self.scale), z, out=out)

    def grad_log_pdf(self, t):
        # subgradient 0 at t = 0
        return -np.sign(np.asarray(t, dtype=float)) / self.scale

    def log_tail_mass(self, c: float) -> float:
        return -c / self.scale


class UniformSlabDensity(DensityHandle):
    """Uniform on [-B, B]; has no spike mass at 0 by construction."""

    name = "uniform-slab"

    def __init__(self, B: float):
        if B <= 0:
            raise ValueError("need B > 0")
        self.B = B

    def log_pdf(self, t, out=None):
        t = np.asarray(t, dtype=float)
        return _into(np.where(np.abs(t) <= self.B, -math.log(2.0 * self.B), -np.inf), out)

    def grad_log_pdf(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def log_tail_mass(self, c: float) -> float:
        frac = max(0.0, 1.0 - c / self.B)
        return math.log(frac) if frac > 0 else -math.inf


class MixtureDensity(DensityHandle):
    """Gaussian-mixture shrinkage density built from a MixturePriorSpec."""

    name = "mixture"

    def __init__(self, spec: MixturePriorSpec):
        self.spec = spec

    def log_pdf(self, t, out=None):
        return mixture_log_density(t, self.spec, out=out)

    def grad_log_pdf(self, t):
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        # Past the spike cut the slab responsibility is exactly 1.
        grad = np.abs(flat)
        near = _two_component(grad, self.spec)
        with np.errstate(over="ignore"):
            np.multiply(flat, -(1.0 / self.spec.sigma2**2), out=grad)
        if near.size:
            grad[near] = _mixture_grad_log_density(flat[near], self.spec)
        return grad.reshape(t.shape)

    def log_tail_mass(self, c: float) -> float:
        with np.errstate(over="ignore"):
            z1 = c * math.exp(-self.spec.log_sigma1)
        term1 = math.log(self.spec.pi1) + float(log_ndtr(-z1)) if math.isfinite(z1) else -math.inf
        term2 = math.log(self.spec.pi2) + float(log_ndtr(-c / self.spec.sigma2))
        return math.log(2.0) + float(logsumexp([term1, term2]))


class FlatDensity(DensityHandle):
    """Improper constant density (log g = 0); for oracle comparisons only."""

    name = "flat"

    def log_pdf(self, t, out=None):
        return _into(np.zeros_like(np.asarray(t, dtype=float)), out)

    def grad_log_pdf(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))


DENSITY_NAMES = ("mixture", "gauss", "laplace", "uniform-slab")


def make_density(name: str, *, mixture_spec: MixturePriorSpec | None = None,
                 sigma: float = 1.0, scale: float = 1.0, B: float = 1.0) -> DensityHandle:
    """Build a registered density handle by name."""
    if name == "gauss":
        return GaussianDensity(sigma=sigma)
    if name == "laplace":
        return LaplaceDensity(scale=scale)
    if name == "uniform-slab":
        return UniformSlabDensity(B=B)
    if name == "mixture":
        if mixture_spec is None:
            raise ValueError("mixture density needs a MixturePriorSpec")
        return MixtureDensity(mixture_spec)
    raise KeyError(f"unknown density name {name!r}; known: {DENSITY_NAMES}")
