"""The benchmark's traced run against the package.

`perfbench/tracer.py` patches the package's functions under the names
their callers look them up by, and raises `PatchError` when a lookup site
is gone.  A change that deletes or renames such a site would otherwise show
up only when the traced benchmark runs, so this test installs the benchmark's
own patch map and undoes it.  Likewise `perfbench/run.py` times each
module's import from one probe program, so a test runs that program.  The
benchmark's files are imported, not written: no bytecode is cached next to
them.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _import_bench(monkeypatch, names):
    """Import the first of `names` from perfbench/, which imports the rest;
    yield it and forget all of them afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    assert not any(name in sys.modules for name in names)
    try:
        yield importlib.import_module(names[0])
    finally:
        for name in names:
            sys.modules.pop(name, None)


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's `child` and `tracer` modules, imported from perfbench/."""
    yield from _import_bench(monkeypatch, ("child", "tracer"))


@pytest.fixture
def run(monkeypatch):
    """The benchmark's entry point, `perfbench/run.py`."""
    yield from _import_bench(monkeypatch, ("run",))


def test_the_import_probe_loads_every_module(run):
    # The traced benchmark reads each module's import time from one fresh
    # interpreter running IMPORT_PROGRAM, and fails with 'no import time for
    # <module>' when the program leaves one of MODULES unloaded.
    code = run.IMPORT_PROGRAM + "\nimport sys; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH="src"),
                          capture_output=True, text=True, check=True)
    loaded = proc.stdout.split()
    assert [m for m in run.MODULES if f"besovbnn.{m}" not in loaded] == []


def test_patch_map_installs_and_restores(bench):
    tracing = bench.tracing
    sites = tracing.patch_map(bench.MODULES)
    # A site the package lacks reads None here, and `patched` names it.
    before = [vars(owner).get(attr) for owner, attr, _, _ in sites]
    with tracing.patched(tracing.Tracer(), sites):
        assert all(vars(owner)[attr] is not original
                   for (owner, attr, _, _), original in zip(sites, before))
    assert all(vars(owner)[attr] is original
               for (owner, attr, _, _), original in zip(sites, before))


def test_a_traced_fit_reaches_every_training_span(bench):
    # The traced benchmark fails its coverage check when a span records no
    # call, as when `train_replicates` stops looking `elbo_gradient` up
    # through the module; a short designed desk fit shows the same here.
    tracing, design, priors, testbed, vi = (
        bench.tracing, bench.design, bench.priors, bench.testbed, bench.vi)
    tracer = tracing.Tracer()
    with tracing.patched(tracer, tracing.patch_map(bench.MODULES)):
        spec = design.SmoothnessSpec(s=1.5, p=1.0, q=1.0, d=1, m=2)
        arch = design.design_architecture(spec, 50, 10.0)
        prior = priors.make_density("mixture", mixture_spec=design.mixture_hyperparams(
            arch, K0=5.0, counting="canonical"))
        shape = bench.network.NetworkShape(1, tuple(design.desk_scale_widths(arch)))
        f0 = testbed.log_singular_function()
        data = testbed.generate_dataset(f0, 50, 0.1, 0)
        state, _ = vi.train(shape, data, prior,
                            vi.TrainConfig(iterations=3, learning_rate=0.01), sigma=0.1)
        vi.posterior_predictive(state, shape, data.x, 4, f0, data)
    assert [span for span in bench._TRAINING_SPANS if tracer.stat(span, 0) == 0] == []
