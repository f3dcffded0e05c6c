"""Every name a module exports in __all__ must exist in it."""

import importlib

import pytest

MODULES = ["cli", "closedform", "core", "evolver", "io", "oracles",
           "specialfn", "sweep", "svg"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"qcthreshold.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"qcthreshold.{module}.__all__ names {missing}"
