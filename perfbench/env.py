"""Paths, environment pinning, package import and run provenance.

Nothing here imports numpy at module level: :func:`pin_environment` must run
before numpy starts its BLAS/OpenMP thread pools.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import subprocess
import sys
import tempfile
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = BENCH_DIR / "data"
OUT = BENCH_DIR / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

MODULES = ("cli", "closedform", "core", "evolver", "io", "oracles",
           "specialfn", "sweep")


class PackageMissing(RuntimeError):
    """The checkout holds no ``src/qcthreshold`` to benchmark."""


def pin_environment() -> None:
    """Pin every BLAS/OpenMP pool to one thread and keep temporary files
    inside the checkout. Child processes inherit both settings."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def import_package() -> types.SimpleNamespace:
    """Import qcthreshold from this checkout's ``src`` (never from an
    installed copy) and return its modules by short name."""
    if not (SRC / "qcthreshold" / "__init__.py").is_file():
        raise PackageMissing(f"no qcthreshold package under {SRC}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("qcthreshold")
    if Path(pkg.__file__).resolve().parent != SRC / "qcthreshold":
        raise PackageMissing(f"qcthreshold was imported from {pkg.__file__}, "
                             f"not from {SRC}")
    return types.SimpleNamespace(
        version=pkg.__version__,
        **{name: importlib.import_module(f"qcthreshold.{name}")
           for name in MODULES})


def read_steal() -> tuple:
    """(steal seconds, total seconds) summed over all CPUs, from the first
    line of /proc/stat; (0, 0) where it cannot be read."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0, 0.0
    ticks = [int(v) for v in fields[1:]]
    hz = os.sysconf("SC_CLK_TCK")
    # guest time is already included in user time
    return ticks[7] / hz, sum(ticks[:8]) / hz


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the package sources, so that a result can be matched to
    its code where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "qcthreshold").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, steal_start: tuple) -> dict:
    import numpy
    import scipy
    steal, total = read_steal()
    return {
        "git_commit": _git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "host_steal_s": steal - steal_start[0],
        "host_cpu_s": total - steal_start[1],
    }
