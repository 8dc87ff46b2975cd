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
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    if x.shape != values.shape or x.ndim != 1:
        raise ValueError("tabulated function needs matching 1-d x and value arrays")
    return TrueFunction(partial(np.interp, xp=x, fp=values))


@dataclass
class Dataset:
    """Regression sample (x_i, y_i)."""

    x: np.ndarray  # (n, d), C-contiguous
    y: np.ndarray  # (n,), C-contiguous

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float, order="C"))
        self.y = np.asarray(self.y, dtype=float, order="C")
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
    return Dataset(x=x, y=y)


def empirical_norm(f_values) -> float:
    """Root mean square of the supplied function values."""
    v = np.asarray(f_values, dtype=float)
    if v.size == 0:
        raise ValueError("empirical norm of an empty sample is undefined")
    return float(np.sqrt(np.mean(v**2)))
