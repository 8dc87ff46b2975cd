"""The benchmark's traced run against the package.

`perfbench/tracer.py` patches the package's functions under the names
their callers look them up by, and raises `PatchError` when a lookup site
is gone.  A change that deletes or renames such a site would otherwise show
up only when the traced benchmark runs, so this test installs the benchmark's
own patch map and undoes it.  The benchmark's files are imported, not
written: no bytecode is cached next to them.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's `child` and `tracer` modules, imported from perfbench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("child", "tracer")
    assert not any(name in sys.modules for name in names)
    try:
        yield importlib.import_module("child")
    finally:
        for name in names:
            sys.modules.pop(name, None)


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
