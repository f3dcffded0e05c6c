"""Every name a module exports in __all__ must exist in it, importing the
package pulls in no module it does not use, no module reaches into the
evolver's private names, and the oracles share no code with the evolver."""

import ast
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


@pytest.mark.parametrize("module", ["scipy.signal", "scipy.interpolate",
                                    "scipy.sparse"])
def test_import_skips_scipy_signal(module):
    # scipy.signal is about 0.5 s of import time and scipy.interpolate
    # 35 ms, and no module uses either; scipy.sparse serves only the
    # Langevin oracle, which imports it on first use
    src = str(Path(qcthreshold.__file__).resolve().parents[1])
    code = ("import sys, qcthreshold.cli, qcthreshold.oracles; "
            f"print({module!r} in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.stdout.strip() == "False"


def test_no_module_imports_private_evolver_names():
    # the evolver owns its guards and its Moyal phase; other modules use
    # only what evolver.__all__ offers
    found = []
    for path in Path(qcthreshold.__file__).parent.glob("*.py"):
        if path.stem == "evolver":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in (
                    "evolver", "qcthreshold.evolver"):
                found += [f"{path.stem}: {a.name}" for a in node.names
                          if a.name.startswith("_")]
    assert not found, found


def test_oracles_import_only_core_and_errors():
    # the oracles are independent references: from the package they may
    # use only the domain types and the error classes
    path = Path(qcthreshold.__file__).parent / "oracles.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            # "from .core import x" names core; "from . import x" names x
            found |= ({node.module} if node.module
                      else {a.name for a in node.names})
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # the package imports itself only relatively; flag any other
            names = [node.module] if isinstance(node, ast.ImportFrom) \
                else [a.name for a in node.names]
            found |= {n for n in names if n.split(".")[0] == "qcthreshold"}
    assert found <= {"core", "errors"}, found
