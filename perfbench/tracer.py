"""Span tracer for the benchmark's traced run.

The tracer wraps each public function of the seven besovbnn modules under
the name its callers look it up by, times every call, and keeps per-span
call counts, inclusive time and self time (inclusive time minus the time of
traced calls made inside it) in memory.  Hooks attached to some spans count
work at the layer boundary: network flops, bytes copied, prior coordinates,
checkpoint bytes and Metropolis steps.

Nothing here edits the package on disk; patches are applied to the loaded
modules and undone when the `patched` context exits.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class PatchError(LookupError):
    """The patch map names a lookup site the package no longer has."""


class Tracer:
    def __init__(self):
        # name -> [calls, inclusive seconds, self seconds]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(float)
        self.values = {}
        self._stack = []  # open spans: [name, seconds spent in traced children]

    def under(self, name: str) -> bool:
        """True when a span called `name` is open on the current call path."""
        return any(frame[0] == name for frame in self._stack)

    def wrap(self, name, fn, hook=None):
        """Return fn timed as span `name`.  hook(tracer, args, kwargs, result)
        runs after the span closes, with the caller's spans still open."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                span = self.spans[name]
                span[0] += 1
                span[1] += dt
                span[2] += dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def stat(self, name: str, index: int):
        """calls (0), inclusive seconds (1) or self seconds (2) of a span."""
        return self.spans[name][index] if name in self.spans else 0


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _checkpoint_bytes(path) -> int:
    path = Path(path)
    return sum(p.stat().st_size for p in (path.with_suffix(".json"), path.with_suffix(".bin")))


def _loglik_hook(tracer, args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    n = len(_arg(args, kwargs, 2, "y"))
    p = params.shape.layer_widths
    pairs = [p[l] * p[l + 1] for l in range(len(p) - 1)]
    # forward h @ W and backward a.T @ delta on every layer; backward
    # delta @ W.T on every layer but the first.
    tracer.counters["network.loglik_and_grad.flops"] += 2 * n * (2 * sum(pairs) + sum(pairs[1:]))
    tracer.counters["network.loglik_and_grad.grad_used"] += tracer.under("vi.elbo_gradient")
    tracer.counters["network.loglik_and_grad.in_train"] += tracer.under("vi.train")


def _from_flat_hook(tracer, args, kwargs, result):
    tracer.counters["network.from_flat.bytes"] += result.shape.n_params * 8


def _prior_coords_hook(tracer, args, kwargs, result):
    theta = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    tracer.counters["priors.coords"] += getattr(theta, "size", 1)


def _train_hook(tracer, args, kwargs, result):
    tracer.counters["vi.train.steps"] += _arg(args, kwargs, 3, "config").iterations


def _save_hook(tracer, args, kwargs, result):
    tracer.counters["vi.save_checkpoint.bytes"] += _checkpoint_bytes(_arg(args, kwargs, 0, "path"))


def _load_hook(tracer, args, kwargs, result):
    tracer.counters["vi.load_checkpoint.bytes"] += _checkpoint_bytes(_arg(args, kwargs, 0, "path"))


def _mh_hook(tracer, args, kwargs, result):
    tracer.counters["mh.steps"] += _arg(args, kwargs, 4, "config").steps
    tracer.values["mh.acceptance_rate"] = result.acceptance_rate


def patch_map(pkg):
    """(owner, attribute, span name, hook) for every traced lookup site.

    `pkg` maps module short names to the loaded besovbnn modules.  `vi` and
    `mh` bind `forward` and `loglik_and_grad` at import, so those are patched
    where they are bound as well as on `network`; `cli._posterior_mean_on`
    imports `forward` from `network` at call time, which the `network` patch
    covers.  `from_flat` is a staticmethod and the density methods live on
    the handle classes, so those are patched on the classes.
    """
    network, vi, mh, priors = pkg["network"], pkg["vi"], pkg["mh"], pkg["priors"]
    design, testbed, cli = pkg["design"], pkg["testbed"], pkg["cli"]
    sites = []
    for owner in (network, vi, mh):
        sites.append((owner, "forward", "network.forward", None))
        sites.append((owner, "loglik_and_grad", "network.loglik_and_grad", _loglik_hook))
    sites.append((network.NetworkParams, "from_flat", "network.from_flat", _from_flat_hook))
    sites.append((priors.DensityHandle, "log_density_sum", "priors.log_density_sum",
                  _prior_coords_hook))
    for cls in vars(priors).values():
        if (inspect.isclass(cls) and issubclass(cls, priors.DensityHandle)
                and cls is not priors.DensityHandle and "grad_log_pdf" in vars(cls)):
            sites.append((cls, "grad_log_pdf", "priors.grad_log_pdf", _prior_coords_hook))
    sites += [
        (vi, "softplus", "vi.softplus", None),
        (vi, "elbo_gradient", "vi.elbo_gradient", None),
        (vi, "train", "vi.train", _train_hook),
        (vi, "posterior_predictive", "vi.posterior_predictive", None),
        (vi, "save_checkpoint", "vi.save_checkpoint", _save_hook),
        (vi, "load_checkpoint", "vi.load_checkpoint", _load_hook),
        (mh, "mh_sample", "mh.mh_sample", _mh_hook),
        (mh, "compare_vi_mh", "mh.compare_vi_mh", None),
        (design, "design_architecture", "design.design_architecture", None),
        (design, "mixture_hyperparams", "design.mixture_hyperparams", None),
        (testbed, "generate_dataset", "testbed.generate_dataset", None),
        (testbed.TrueFunction, "__call__", "testbed.true_function", None),
        (cli, "main", "cli.main", None),
    ]
    return sites


@contextlib.contextmanager
def patched(tracer: Tracer, sites):
    """Install the wrappers and undo them on exit.  Raises PatchError naming
    every lookup site that no longer exists, so a stale map fails instead of
    reading as 0 s."""
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in sites
               if attr not in vars(owner)]
    if missing:
        raise PatchError("patch sites not found: " + ", ".join(missing))
    saved = []
    try:
        for owner, attr, name, hook in sites:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            if isinstance(original, staticmethod):
                wrapped = staticmethod(tracer.wrap(name, original.__func__, hook))
            else:
                wrapped = tracer.wrap(name, original, hook)
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
