"""Ground-truth test functions, synthetic regression data, and smoothness diagnostics.

The two built-in targets are the Cantor (devil's staircase) function and the
log-singular function x -> 1/log(x/2), both on [0, 1].  Datasets are uniform
designs with additive Gaussian noise.  The modulus-of-smoothness and
Besov-norm estimators are deterministic grid approximations meant for sanity
checks (finiteness, monotonicity, stability), not for certifying membership
in a smoothness class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TrueFunction",
    "Dataset",
    "ModulusGrid",
    "eval_cantor",
    "eval_log_singular",
    "cantor_function",
    "log_singular_function",
    "tabulated_function",
    "generate_dataset",
    "empirical_norm",
    "modulus_of_smoothness",
    "besov_norm_estimate",
]

_CANTOR_MAX_DIGITS = 64


def eval_cantor(x: float) -> float:
    """Cantor function value at x in [0, 1] via ternary-digit expansion.

    Scans ternary digits of x, emitting binary digits (0->0, 2->1) until the
    first digit 1 (which terminates with a trailing binary 1) or until 64
    digits, which is exact to double precision.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"cantor function domain is [0, 1], got {x}")
    if x == 1.0:
        return 1.0
    value = 0.0
    bit = 0.5
    frac = x
    for _ in range(_CANTOR_MAX_DIGITS):
        frac *= 3.0
        digit = int(frac)
        frac -= digit
        if digit == 1:
            value += bit
            break
        if digit == 2:
            value += bit
        bit *= 0.5
        if frac == 0.0:
            break
    return value


def eval_log_singular(x: float) -> float:
    """The function 1/log(x/2) on (0, 1], defined as 0 at x = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"domain is [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    return 1.0 / math.log(x / 2.0)


@dataclass(frozen=True)
class TrueFunction:
    """A scalar target function on [0, 1]."""

    kind: str
    table: tuple | None = None  # (x grid, values) for tabulated functions

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "cantor":
            return np.vectorize(eval_cantor, otypes=[float])(x)
        if self.kind == "log_singular":
            return np.vectorize(eval_log_singular, otypes=[float])(x)
        if self.kind == "tabulated":
            xs, vals = self.table
            return np.interp(x, xs, vals)
        raise ValueError(f"unknown function kind {self.kind!r}")


def cantor_function() -> TrueFunction:
    return TrueFunction(kind="cantor")


def log_singular_function() -> TrueFunction:
    return TrueFunction(kind="log_singular")


def tabulated_function(x, values) -> TrueFunction:
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    if x.shape != values.shape or x.ndim != 1:
        raise ValueError("tabulated function needs matching 1-d x and value arrays")
    return TrueFunction(kind="tabulated", table=(x, values))


@dataclass
class Dataset:
    """Regression sample (x_i, y_i) with the noise level and seed that made it."""

    x: np.ndarray  # (n, d)
    y: np.ndarray  # (n,)
    noise_sd: float
    seed: int

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.y = np.asarray(self.y, dtype=float)
        if self.x.shape[0] != self.y.shape[0] or self.y.shape[0] == 0:
            raise ValueError("x and y must be nonempty and the same length")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def generate_dataset(f: TrueFunction, n: int, noise_sd: float, seed: int) -> Dataset:
    """Uniform design on [0, 1] with y = f(x) + N(0, noise_sd^2) noise."""
    if n < 1:
        raise ValueError("need n >= 1")
    if noise_sd < 0:
        raise ValueError("noise_sd must be nonnegative")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, 1))
    fx = f(x[:, 0])
    y = fx + noise_sd * rng.standard_normal(n) if noise_sd > 0 else fx.copy()
    return Dataset(x=x, y=y, noise_sd=noise_sd, seed=seed)


def empirical_norm(f_values) -> float:
    """Root mean square of the supplied function values."""
    v = np.asarray(f_values, dtype=float)
    if v.size == 0:
        raise ValueError("empirical norm of an empty sample is undefined")
    return float(np.sqrt(np.mean(v**2)))


@dataclass(frozen=True)
class ModulusGrid:
    """Grids for the modulus-of-smoothness estimator (d = 1)."""

    t_grid: np.ndarray = field(
        default_factory=lambda: np.logspace(-3, 0, 32)
    )
    h_samples: int = 64
    x_samples: int = 512

    def __post_init__(self):
        t = np.asarray(self.t_grid, dtype=float)
        if t.ndim != 1 or t.size == 0 or np.any(t <= 0) or np.any(np.diff(t) <= 0):
            raise ValueError("t_grid must be strictly increasing and positive")
        if self.h_samples < 1 or self.x_samples < 1:
            raise ValueError("grid counts must be >= 1")
        object.__setattr__(self, "t_grid", t)


def _finite_difference(fx_shifted: np.ndarray, r: int) -> np.ndarray:
    # fx_shifted has shape (r + 1, n_x): row j is f(x + j h)
    coef = np.array([math.comb(r, j) * (-1) ** (r - j) for j in range(r + 1)])
    return coef @ fx_shifted


def modulus_of_smoothness(f, r: int, p: float, t: float, grid: ModulusGrid) -> float:
    """Grid approximation of sup_{|h| <= t} || Delta_h^r f ||_p on [0, 1].

    The r-th finite difference is set to 0 wherever x + r h leaves [0, 1].
    `f` may be a TrueFunction or any callable on arrays.
    """
    if r < 1 or t <= 0 or p <= 0:
        raise ValueError("need r >= 1, t > 0, p > 0")
    x = (np.arange(grid.x_samples) + 0.5) / grid.x_samples
    hs = t * np.arange(1, grid.h_samples + 1) / grid.h_samples
    hs = np.concatenate([-hs[::-1], hs])
    best = 0.0
    for h in hs:
        shifts = np.stack([np.clip(x + j * h, 0.0, 1.0) for j in range(r + 1)])
        vals = np.asarray(f(shifts.ravel()), dtype=float).reshape(shifts.shape)
        diff = _finite_difference(vals, r)
        # x itself is always interior; x + rh in [0,1] implies the
        # intermediate shifts are too (the clip above only guards float edge).
        inside = (x + r * h >= 0.0) & (x + r * h <= 1.0)
        diff = np.where(inside, diff, 0.0)
        if math.isinf(p):
            norm = float(np.max(np.abs(diff)))
        else:
            norm = float(np.mean(np.abs(diff) ** p) ** (1.0 / p))
        best = max(best, norm)
    return best


def besov_norm_estimate(f, s: float, p: float, q: float, grid: ModulusGrid) -> float:
    """Numerical surrogate for the Besov norm: ||f||_p plus the modulus quadrature.

    Uses r = floor(s) + 1 differences, trapezoidal quadrature of
    (t^-s w(t))^q dt/t over the t grid for finite q, and the grid sup for
    q = infinity.
    """
    if s <= 0 or p <= 0 or q <= 0:
        raise ValueError("need s, p, q > 0")
    r = math.floor(s) + 1
    x = (np.arange(grid.x_samples) + 0.5) / grid.x_samples
    fx = np.asarray(f(x), dtype=float)
    if math.isinf(p):
        lp = float(np.max(np.abs(fx)))
    else:
        lp = float(np.mean(np.abs(fx) ** p) ** (1.0 / p))
    w = np.array([modulus_of_smoothness(f, r, p, t, grid) for t in grid.t_grid])
    scaled = grid.t_grid ** (-s) * w
    if math.isinf(q):
        seminorm = float(np.max(scaled))
    else:
        integrand = scaled**q / grid.t_grid
        seminorm = float(np.trapezoid(integrand, grid.t_grid) ** (1.0 / q))
    return lp + seminorm
