"""Every name a module exports in __all__ must exist in it, and importing
the package pulls in no module it does not use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcthreshold

MODULES = ["cli", "closedform", "core", "evolver", "io", "oracles",
           "specialfn", "sweep", "svg"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"qcthreshold.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"qcthreshold.{module}.__all__ names {missing}"


def test_import_skips_scipy_signal():
    # scipy.signal is about 0.5 s of import time, and no module uses it
    src = str(Path(qcthreshold.__file__).resolve().parents[1])
    code = ("import sys, qcthreshold.cli, qcthreshold.oracles; "
            "print('scipy.signal' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.stdout.strip() == "False"
