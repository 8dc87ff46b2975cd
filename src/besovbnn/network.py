"""Fully connected ReLU networks: evaluation, sparsity accounting, coordinate
thresholding, and exact reverse-mode gradients of the Gaussian log-likelihood.

Parameter flattening order is part of the checkpoint contract: layer-major,
weights before biases within a layer, weight matrices in row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NetworkShape",
    "NetworkParams",
    "forward",
    "membership",
    "truncate",
    "loglik_and_grad",
    "PassBuffers",
]


@dataclass(frozen=True)
class NetworkShape:
    """Widths of an MLP with scalar output: d_in -> hidden_widths -> 1."""

    d_in: int
    hidden_widths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(self.hidden_widths))
        if self.d_in < 1 or len(self.hidden_widths) < 1:
            raise ValueError("need d_in >= 1 and at least one hidden layer")
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError("all widths must be >= 1")

    @property
    def depth(self) -> int:
        return len(self.hidden_widths)

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


def _layer_views(shape: NetworkShape, flat: np.ndarray):
    """Per-layer weight and bias views of a flat vector in the flattening
    order; no data is copied."""
    p = shape.layer_widths
    weights, biases = [], []
    pos = 0
    for l in range(len(p) - 1):
        nw = p[l] * p[l + 1]
        weights.append(flat[pos : pos + nw].reshape(p[l], p[l + 1]))
        pos += nw
        biases.append(flat[pos : pos + p[l + 1]])
        pos += p[l + 1]
    return weights, biases


class NetworkParams:
    """Weights and biases of an MLP, flattenable to a vector.

    The arrays are read-only through this object but float64 input is not
    copied: `from_flat` gives views of theta, so a later write to theta
    shows through the parameters.
    """

    def __init__(self, shape: NetworkShape, weights, biases):
        p = shape.layer_widths
        if len(weights) != len(p) - 1 or len(biases) != len(p) - 1:
            raise ValueError("layer count mismatch")
        self.shape = shape
        self.weights = []
        self.biases = []
        for l, (w, b) in enumerate(zip(weights, biases)):
            w = np.asarray(w, dtype=float)
            b = np.asarray(b, dtype=float)
            if w.shape != (p[l], p[l + 1]) or b.shape != (p[l + 1],):
                raise ValueError(
                    f"layer {l}: expected W {(p[l], p[l + 1])} and b {(p[l + 1],)}, "
                    f"got {w.shape} and {b.shape}"
                )
            w.setflags(write=False)
            b.setflags(write=False)
            self.weights.append(w)
            self.biases.append(b)

    @property
    def n_params(self) -> int:
        return self.shape.n_params

    def flatten(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b)
        return np.concatenate(parts)

    @staticmethod
    def from_flat(shape: NetworkShape, theta) -> "NetworkParams":
        """Parameters whose weights and biases are read-only views of theta
        (a float64 vector of length shape.n_params is not copied), so later
        writes to theta show through them."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (shape.n_params,):
            raise ValueError(
                f"expected flat vector of length {shape.n_params}, got {theta.shape}"
            )
        return NetworkParams(shape, *_layer_views(shape, theta))

    @staticmethod
    def zeros(shape: NetworkShape) -> "NetworkParams":
        return NetworkParams.from_flat(shape, np.zeros(shape.n_params))

    def sparsity(self) -> int:
        return int(np.count_nonzero(self.flatten()))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.flatten())))


def forward(params: NetworkParams, x) -> np.ndarray | float:
    """Evaluate the network; x may be a single point (d,) or a batch (n, d)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    h = np.atleast_2d(x)
    if h.shape[1] != params.shape.d_in:
        if single and h.shape[1] == 1 and params.shape.d_in == h.size:
            h = h.reshape(1, -1)
        else:
            raise ValueError(
                f"input dimension {h.shape[1]} != d_in {params.shape.d_in}"
            )
    n_layers = len(params.weights)
    for l in range(n_layers - 1):
        h = np.maximum(h @ params.weights[l] + params.biases[l], 0.0)
    out = (h @ params.weights[-1] + params.biases[-1])[:, 0]
    return float(out[0]) if single else out


def membership(params: NetworkParams, L: int, W: int, S: int, B: float) -> bool:
    """True iff params lie in the sparse bounded space: depth L, widths all W,
    at most S nonzeros, sup norm at most B."""
    if params.shape.depth != L or any(w != W for w in params.shape.hidden_widths):
        return False
    return params.sparsity() <= S and params.sup_norm() <= B


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
    """Work arrays of one `loglik_and_grad` call for a network shape and n
    data points: the hidden activations, their ReLU masks, the backward
    deltas, the output column and the flat gradient.  `grad_w[l]` and
    `grad_b[l]` are views into `grad` in the flattening order, so the
    layers' gradients land in the flat vector without a copy."""

    def __init__(self, shape: NetworkShape, n: int):
        hidden = shape.layer_widths[1:-1]
        self.shape = shape
        self.n = n
        self.acts = [np.empty((n, w)) for w in hidden]
        self.masks = [np.empty((n, w), dtype=bool) for w in hidden]
        self.deltas = [np.empty((n, w)) for w in hidden]
        self.out = np.empty((n, 1))
        self.grad = np.empty(shape.n_params)
        self.grad_w, self.grad_b = _layer_views(shape, self.grad)

    def check(self, shape: NetworkShape, n: int) -> None:
        """Raise ValueError unless the set was built for (shape, n)."""
        if self.shape != shape or self.n != n:
            raise ValueError(
                f"buffers built for {self.shape} and n={self.n}, "
                f"called with {shape} and n={n}"
            )


def loglik_and_grad(params: NetworkParams, x, y, sigma: float,
                    buffers: PassBuffers | None = None):
    """Gaussian log-likelihood sum_i log N(y_i | f(x_i), sigma^2) and its exact
    gradient in the flattened parameters by reverse accumulation.

    The ReLU subgradient at exactly 0 is taken to be 0.  The pass runs in
    `buffers` (a PassBuffers for params.shape and len(y)), and the returned
    gradient is `buffers.grad`, overwritten by the next call with the same
    set; without one a fresh set is allocated.
    """
    if sigma <= 0:
        raise ValueError("need sigma > 0")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if x.shape[0] != n:
        raise ValueError("x and y length mismatch")
    if buffers is None:
        buffers = PassBuffers(params.shape, n)
    else:
        buffers.check(params.shape, n)
    weights, biases = params.weights, params.biases

    # Forward pass, keeping post-activation values per layer.
    acts = [x, *buffers.acts]
    for l, h in enumerate(buffers.acts):
        np.matmul(acts[l], weights[l], out=h)
        h += biases[l]
        np.maximum(h, 0.0, out=h)
    np.matmul(acts[-1], weights[-1], out=buffers.out)
    buffers.out += biases[-1]
    f = buffers.out[:, 0]

    resid = y - f
    loglik = float(
        -0.5 * n * np.log(2.0 * np.pi * sigma**2) - 0.5 * np.sum(resid**2) / sigma**2
    )

    # Backward pass: dL/df = resid / sigma^2.  A post-activation is > 0
    # exactly where its pre-activation is.
    delta = (resid / sigma**2)[:, None]
    for l in range(len(weights) - 1, -1, -1):
        np.matmul(acts[l].T, delta, out=buffers.grad_w[l])
        np.sum(delta, axis=0, out=buffers.grad_b[l])
        if l > 0:
            mask = np.greater(acts[l], 0.0, out=buffers.masks[l - 1])
            delta = np.matmul(delta, weights[l].T, out=buffers.deltas[l - 1])
            delta *= mask
    return loglik, buffers.grad
