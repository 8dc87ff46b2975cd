"""Prior densities: the spike-and-slab sampler over sparse supports,
Gaussian-mixture shrinkage, and generic coordinatewise product priors.

Density handles expose vectorized `log_pdf` / `grad_log_pdf` plus analytic
two-sided tail masses where available, and are registered by name for CLI
selection.

scipy.special loads only where a value needs it: in the Gaussian and
mixture tail masses, and in the mixture's two-component branch, which takes
the coordinates inside the spike cut, NaN or past 1e154 sigma2 and is empty
in a designed fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import DENSITY_NAMES
from .design import MixturePriorSpec
from .network import _integer

__all__ = [
    "SpikeSlabSpec",
    "SparseDraw",
    "spike_slab_sample",
    "mixture_log_density",
    "DensityHandle",
    "GaussianDensity",
    "LaplaceDensity",
    "UniformSlabDensity",
    "MixtureDensity",
    "make_density",
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
        object.__setattr__(self, "T", _integer(self.T, "T"))
        object.__setattr__(self, "S", _integer(self.S, "S"))
        if not 0 < self.S <= self.T:
            raise ValueError("need 0 < S <= T")
        if not (math.isfinite(self.B) and self.B > 0):
            raise ValueError(f"need a finite B > 0, got {self.B!r}")


@dataclass(frozen=True)
class SparseDraw:
    """Active index set (non-negative integers, strictly increasing) and the
    1-d array of values on those coordinates."""

    gamma: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma",
                           tuple(_integer(j, "each index in gamma") for j in self.gamma))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1:
            raise ValueError(f"values must be 1-d, got shape {self.values.shape}")
        if any(j < 0 for j in self.gamma):
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if len(self.gamma) != self.values.shape[0]:
            raise ValueError("gamma and values must be the same length")
        if any(a >= b for a, b in zip(self.gamma, self.gamma[1:])):
            raise ValueError(f"gamma must be strictly increasing, got {self.gamma}")


def spike_slab_sample(spec: SpikeSlabSpec, seed: int) -> SparseDraw:
    """Draw a support uniformly over size-S subsets and values uniform on the slab."""
    rng = np.random.default_rng(seed)
    gamma = rng.choice(spec.T, size=spec.S, replace=False)
    values = rng.uniform(-spec.B, spec.B, size=spec.S)
    order = np.argsort(gamma)
    return SparseDraw(gamma=gamma[order].tolist(), values=values[order])


# ---------------------------------------------------------------------------
# Gaussian mixture shrinkage density


def _inverse_sigma1(spec: MixturePriorSpec) -> float:
    """1 / sigma1 from log sigma1: math.exp's value where it is finite, and
    inf where it overflows a double, which every caller's mask handles."""
    try:
        return math.exp(-spec.log_sigma1)
    except OverflowError:
        return math.inf


def _mixture_log_terms(t: np.ndarray, spec: MixturePriorSpec) -> np.ndarray:
    """Per-component log densities, shape (2,) + t.shape.

    The spike component is evaluated through log_sigma1 only; its density at
    any t bounded away from 0 underflows to -inf, which logsumexp absorbs.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        z1_sq = np.square(t * _inverse_sigma1(spec))
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
    inside the spike cut, NaN, or so large that the slab's square overflows.
    When every |t| lies between the two bounds, which a NaN's min or max
    fails, there are none, and no T-length mask is built."""
    cut, big = _spike_cut(spec), 1e154 * spec.sigma2
    if a.size and a.min() > cut and a.max() < big:
        return np.empty(0, dtype=np.intp)
    slab = a > cut
    slab &= a < big
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
        from scipy.special import logsumexp

        flat[near] = logsumexp(_mixture_log_terms(t[near], spec), axis=0)
    if out is not None:
        return out
    if np.ndim(theta) == 0:
        return float(flat[0])
    return flat.reshape(np.shape(theta))


def _mixture_grad_log_density(t: np.ndarray, spec: MixturePriorSpec) -> np.ndarray:
    """d/dt log g(t) through both components' responsibilities."""
    from scipy.special import logsumexp

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


# ---------------------------------------------------------------------------
# Density handles


class DensityHandle:
    """Symmetric univariate density usable as a coordinatewise prior.

    `log_pdf(t, out=None)` writes its values into `out`, a C-contiguous
    float array of t's shape, when one is given; the bits are the same
    either way."""

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
        from scipy.special import log_ndtr

        return math.log(2.0) + float(log_ndtr(-c / self.sigma))


class LaplaceDensity(DensityHandle):
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

    def __init__(self, B: float):
        if B <= 0:
            raise ValueError("need B > 0")
        self.B = B

    def log_pdf(self, t, out=None):
        t = np.asarray(t, dtype=float)
        values = np.where(np.abs(t) <= self.B, -math.log(2.0 * self.B), -np.inf)
        if out is None:
            return values
        np.copyto(out, values)
        return out

    def grad_log_pdf(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def log_tail_mass(self, c: float) -> float:
        frac = max(0.0, 1.0 - c / self.B)
        return math.log(frac) if frac > 0 else -math.inf


class MixtureDensity(DensityHandle):
    """Gaussian-mixture shrinkage density built from a MixturePriorSpec."""

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
        from scipy.special import log_ndtr, logsumexp

        with np.errstate(over="ignore"):
            z1 = c * _inverse_sigma1(self.spec)
        term1 = math.log(self.spec.pi1) + float(log_ndtr(-z1)) if math.isfinite(z1) else -math.inf
        term2 = math.log(self.spec.pi2) + float(log_ndtr(-c / self.spec.sigma2))
        return math.log(2.0) + float(logsumexp([term1, term2]))


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
