"""Ground-truth test functions and synthetic regression data.

The two built-in targets are the Cantor (devil's staircase) function and the
log-singular function x -> 1/log(x/2), both on [0, 1].  Datasets are uniform
designs with additive Gaussian noise.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

__all__ = [
    "TrueFunction",
    "Dataset",
    "eval_cantor",
    "eval_log_singular",
    "cantor_function",
    "log_singular_function",
    "tabulated_function",
    "generate_dataset",
    "empirical_norm",
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
    """A scalar target function on [0, 1]; `evaluate` maps a float array to
    the function's values at each of its entries."""

    evaluate: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x):
        return self.evaluate(np.asarray(x, dtype=float))


def cantor_function() -> TrueFunction:
    return TrueFunction(np.vectorize(eval_cantor, otypes=[float]))


def log_singular_function() -> TrueFunction:
    return TrueFunction(np.vectorize(eval_log_singular, otypes=[float]))


def tabulated_function(x, values) -> TrueFunction:
    """The piecewise-linear interpolant of values at the knots x, constant
    beyond the ends: x and values 1-d of one length, x strictly increasing."""
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    if x.shape != values.shape or x.ndim != 1:
        raise ValueError("tabulated function needs matching 1-d x and value arrays")
    if not np.all(x[1:] > x[:-1]):
        raise ValueError(f"tabulated function needs strictly increasing x, got {x.tolist()}")
    return TrueFunction(partial(np.interp, xp=x, fp=values))


@dataclass
class Dataset:
    """Regression sample (x_i, y_i): x of shape (n, d) and y of shape (n,)
    with n >= 1, both stored as C-contiguous float arrays."""

    x: np.ndarray  # (n, d), C-contiguous
    y: np.ndarray  # (n,), C-contiguous

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float, order="C")
        self.y = np.asarray(self.y, dtype=float, order="C")
        if self.x.ndim != 2 or self.y.shape != self.x.shape[:1] or self.y.size == 0:
            raise ValueError(f"need x of shape (n, d) and y of shape (n,) with n >= 1, "
                             f"got {self.x.shape} and {self.y.shape}")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def generate_dataset(f: TrueFunction, n: int, noise_sd: float, seed: int) -> Dataset:
    """Uniform design on [0, 1] with y = f(x) + noise_sd * z, z standard
    normal: n >= 1 points and a finite noise_sd >= 0 (0 gives the truth)."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 <= noise_sd < math.inf:
        raise ValueError(f"noise_sd must be finite and nonnegative, got {noise_sd}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, 1))
    return Dataset(x=x, y=f(x[:, 0]) + noise_sd * rng.standard_normal(n))


def empirical_norm(f_values) -> float:
    """Root mean square of the supplied function values."""
    v = np.asarray(f_values, dtype=float)
    if v.size == 0:
        raise ValueError("empirical norm of an empty sample is undefined")
    return float(np.sqrt(np.mean(v**2)))
