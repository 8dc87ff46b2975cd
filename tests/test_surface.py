"""Every module's `__all__` names only what the module defines, so a
deletion cannot leave a stale export behind."""

import importlib

import pytest


@pytest.mark.parametrize("name", ["design", "mh", "network", "priors", "testbed", "vi"])
def test_star_import_binds_every_listed_name(name):
    module = importlib.import_module(f"besovbnn.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from besovbnn.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
