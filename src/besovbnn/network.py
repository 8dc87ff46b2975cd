"""Fully connected ReLU networks: evaluation, coordinate thresholding, and the
Gaussian log-likelihood with or without its exact reverse-mode gradient.

Parameter flattening order is part of the checkpoint contract: layer-major,
weights before biases within a layer, weight matrices in row-major order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NetworkShape",
    "NetworkParams",
    "forward",
    "truncate",
    "loglik",
    "loglik_and_grad",
    "PassBuffers",
]


@dataclass(frozen=True)
class NetworkShape:
    """Widths of an MLP with scalar output: d_in -> hidden_widths -> 1."""

    d_in: int
    hidden_widths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "d_in", _integer(self.d_in, "d_in"))
        object.__setattr__(self, "hidden_widths",
                           tuple(_integer(w, "each hidden width") for w in self.hidden_widths))
        if self.d_in < 1 or len(self.hidden_widths) < 1:
            raise ValueError("need d_in >= 1 and at least one hidden layer")
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError("all widths must be >= 1")

    @property
    def layer_widths(self) -> tuple[int, ...]:
        return (self.d_in, *self.hidden_widths, 1)

    @property
    def n_params(self) -> int:
        p = self.layer_widths
        return sum(p[i] * p[i + 1] + p[i + 1] for i in range(len(p) - 1))

    def to_dict(self) -> dict:
        return {"d_in": self.d_in, "hidden_widths": list(self.hidden_widths)}

    @staticmethod
    def from_dict(obj: dict) -> "NetworkShape":
        return NetworkShape(d_in=obj["d_in"], hidden_widths=tuple(obj["hidden_widths"]))


def _integer(value, name: str) -> int:
    """value as an int: any integer type, numpy's included, but not bool."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def _layer_views(shape: NetworkShape, flat: np.ndarray):
    """Per-layer weight (..., p, q) and bias (..., q) views of flat vectors
    (..., T) in the flattening order; no data is copied."""
    p = shape.layer_widths
    lead = flat.shape[:-1]
    weights, biases = [], []
    pos = 0
    for l in range(len(p) - 1):
        nw = p[l] * p[l + 1]
        weights.append(flat[..., pos : pos + nw].reshape(*lead, p[l], p[l + 1]))
        pos += nw
        biases.append(flat[..., pos : pos + p[l + 1]])
        pos += p[l + 1]
    return weights, biases


class NetworkParams:
    """Weights and biases of an MLP, or of a stack of R MLPs of one shape,
    as read-only views of the flat vector (T,) or stack of vectors (R, T)
    they are built from by `from_flat`, the one way in.

    A stack has weights (R, p, q) and biases (R, q); `stack` is R, or None
    for one network.  Float64 input is not copied, so a later write to the
    vector shows through the parameters.
    """

    def __init__(self, shape: NetworkShape, flat: np.ndarray):
        # Built by `from_flat`, which checks flat's length and freezes it.
        self.shape = shape
        self._flat = flat
        self.stack = flat.shape[0] if flat.ndim == 2 else None
        self.weights, self.biases = _layer_views(shape, flat)

    def flatten(self) -> np.ndarray:
        """The read-only flat vector (or stack) the parameters view."""
        return self._flat

    @staticmethod
    def from_flat(shape: NetworkShape, theta) -> "NetworkParams":
        """Parameters whose weights and biases are read-only views of theta,
        a vector (T,) or a stack (R, T) with T = shape.n_params (C-ordered
        float64 input is not copied), so later writes to theta show through
        them."""
        flat = np.asarray(theta, dtype=float).view()
        if flat.ndim not in (1, 2) or flat.shape[-1] != shape.n_params:
            raise ValueError(
                f"expected flat vector of length {shape.n_params} or a stack of them, "
                f"got {flat.shape}"
            )
        flat.setflags(write=False)
        return NetworkParams(shape, flat)


def forward(params: NetworkParams, x) -> np.ndarray:
    """Evaluate the network on a batch x (..., n, d): (n,) for one network
    on (n, d), and (R, n) for a stack of R networks on a batch (n, d) or on
    a stack of batches (R, n, d)."""
    return _layers(params, _inputs(params, x))[..., 0]


def _inputs(params: NetworkParams, x) -> np.ndarray:
    """x as a float array (..., n, d_in), or ValueError."""
    x = np.asarray(x, dtype=float)
    if x.ndim < 2 or x.shape[-1] != params.shape.d_in:
        raise ValueError(f"expected inputs (..., n, {params.shape.d_in}), got shape {x.shape}")
    return x


def _layers(params: NetworkParams, h, outs=None) -> np.ndarray:
    """The layer loop: h @ W + b on every layer, ReLU on all but the last,
    each layer's output written into outs[l] when outs is given and a new
    array otherwise.  Returns the output layer's (..., n, 1) values."""
    n_layers = len(params.weights)
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = np.matmul(h, w, out=None if outs is None else outs[l])
        h += b[..., None, :]
        if l < n_layers - 1:
            np.maximum(h, 0.0, out=h)
    return h


def truncate(params: NetworkParams, a: float) -> NetworkParams:
    """Zero every coordinate with |theta_i| <= a (ties at |theta_i| = a zeroed)."""
    if a < 0:
        raise ValueError("need a >= 0")
    if a == 0:
        return params
    theta = params.flatten()
    theta = np.where(np.abs(theta) > a, theta, 0.0)
    return NetworkParams.from_flat(params.shape, theta)


class PassBuffers:
    """Work arrays of one `loglik_and_grad` or `loglik` call for a network
    shape, n data points and a stack of R networks (stack=R) or one
    (stack=None): the hidden activations, their ReLU masks, the output and
    residual columns and the flat gradient, each with a leading axis R for
    a stack.  The backward pass reads each mask once, so the masks are
    views of one bool buffer of R·n·max(w) elements, each a C-contiguous
    head of it, as `np.matmul(out=)` needs; it writes each backward delta
    over the activation of its width, dead once that layer's mask and
    weight gradient are taken.  So a pass holds 8·R·n·Σw + R·n·max(w) bytes
    of activations, deltas and masks, and 16·R·n bytes of the two columns
    (the activations hold deltas after `loglik_and_grad`).  `grad_w[l]` and
    `grad_b[l]` are views into `grad` in the flattening order, so the
    layers' gradients land in the flat vectors without a copy.  The
    residuals y - f go to `resid`, their squares to the output column once
    f is read, and the backward pass scales `resid` in place into its first
    delta."""

    def __init__(self, shape: NetworkShape, n: int, stack: int | None = None):
        hidden = shape.layer_widths[1:-1]
        lead = () if stack is None else (stack,)
        self.shape = shape
        self.n = n
        self.stack = stack
        self.acts = [np.empty((*lead, n, w)) for w in hidden]
        rows = (stack or 1) * n
        mask = np.empty(rows * max(hidden), dtype=bool)
        self.masks = [mask[: rows * w].reshape(*lead, n, w) for w in hidden]
        self.out, self.resid = np.empty((*lead, n, 1)), np.empty((*lead, n, 1))
        self.grad = np.empty((*lead, shape.n_params))
        self.grad_w, self.grad_b = _layer_views(shape, self.grad)

    def check(self, shape: NetworkShape, n: int, stack: int | None = None) -> None:
        """Raise ValueError unless the set was built for (shape, n, stack)."""
        if self.shape != shape or self.n != n or self.stack != stack:
            raise ValueError(
                f"buffers built for {self.shape}, n={self.n} and stack={self.stack}, "
                f"called with {shape}, n={n} and stack={stack}"
            )


def _forward_loglik(params: NetworkParams, x, y, sigma: float,
                    buffers: PassBuffers | None):
    """Checked forward pass shared by `loglik` and `loglik_and_grad`: the
    log-likelihood, the residual column y - f, the layer inputs (x, then
    the hidden post-activations) and the buffer set the pass ran in."""
    if not (sigma > 0 and 0.0 < sigma * sigma < math.inf):
        raise ValueError(f"need sigma > 0 whose square is a positive finite double, got {sigma}")
    x = _inputs(params, x)
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    if x.shape[:-1] != y.shape:
        raise ValueError("x and y length mismatch")
    if y.shape[:-1] != (() if params.stack is None else (params.stack,)):
        raise ValueError(f"data of shape {y.shape} for a stack of {params.stack} networks")
    if buffers is None:
        buffers = PassBuffers(params.shape, n, params.stack)
    else:
        buffers.check(params.shape, n, params.stack)
    # The hidden post-activations stay in the buffers for the backward pass.
    f = _layers(params, x, [*buffers.acts, buffers.out])
    resid = np.subtract(y[..., None], f, out=buffers.resid)
    ll = (-0.5 * n * np.log(2.0 * np.pi * sigma**2)
          - 0.5 * np.square(resid, out=buffers.out)[..., 0].sum(axis=-1) / sigma**2)
    if params.stack is None:
        ll = float(ll)
    return ll, resid, [x, *buffers.acts], buffers


def loglik(params: NetworkParams, x, y, sigma: float, buffers: PassBuffers | None = None):
    """Gaussian log-likelihood sum_i log N(y_i | f(x_i), sigma^2) by a
    forward pass only: the first value `loglik_and_grad` returns, bit for
    bit, with the same shapes, checks and buffer contract."""
    return _forward_loglik(params, x, y, sigma, buffers)[0]


def loglik_and_grad(params: NetworkParams, x, y, sigma: float,
                    buffers: PassBuffers | None = None):
    """Gaussian log-likelihood sum_i log N(y_i | f(x_i), sigma^2) and its exact
    gradient in the flattened parameters by reverse accumulation.

    For one network x is (n, d) and y (n,), and the log-likelihood is a
    float.  For a stack of R networks x is (R, n, d) and y (R, n): row r of
    the stack is evaluated on row r of the data, and the log-likelihoods
    (R,) and gradients (R, T) equal those of R separate calls bit for bit.

    The ReLU subgradient at exactly 0 is taken to be 0.  The pass runs in
    `buffers` (a PassBuffers for params.shape, n and the stack), and the
    returned gradient is `buffers.grad`, overwritten by the next call with
    the same set; without one a fresh set is allocated.
    """
    ll, resid, acts, buffers = _forward_loglik(params, x, y, sigma, buffers)
    weights = params.weights

    # Backward pass: dL/df = resid / sigma^2.  A post-activation is > 0
    # exactly where its pre-activation is.  The delta of layer l - 1 goes
    # over acts[l], which nothing reads once its mask and grad_w[l] exist.
    delta = np.divide(resid, sigma**2, out=resid)
    for l in range(len(weights) - 1, -1, -1):
        np.matmul(acts[l].swapaxes(-1, -2), delta, out=buffers.grad_w[l])
        np.sum(delta, axis=-2, out=buffers.grad_b[l])
        if l > 0:
            mask = np.greater(acts[l], 0.0, out=buffers.masks[l - 1])
            delta = np.matmul(delta, weights[l].swapaxes(-1, -2), out=acts[l])
            delta *= mask
    return ll, buffers.grad
