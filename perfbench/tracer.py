"""Spans around qcthreshold's public functions, recorded from outside.

The tracer replaces each traced function at every module attribute where a
caller looks it up (``sweep.evolve`` as well as ``evolver.evolve``), so no
file under ``src/`` changes. Each call records a span: name, start, end, the
index of its parent span, and the counts taken at the same boundary. Spans
stay in memory until the run writes them out.

Counts marked *computed* below are derived from the call's inputs, not
measured, so they repeat exactly from run to run:

- ``cells``: n_u * n_v of the field handed to a substep operator;
- ``points``: the number of momenta handed to a density or to D_ell;
- ``sample_steps``: samples times Euler-Maruyama steps, from ``m`` and the
  window lengths (each window takes ceil(tau / dt) steps).

``minflt`` (minor page faults, from getrusage) and ``misses`` (from the
``constants`` cache statistics) are measured.
"""

from __future__ import annotations

import functools
import inspect
import math
import resource
import time

import numpy as np

#: span name -> the (module, attribute) sites where callers look it up
SITES = {
    "evolver.evolve": [("sweep", "evolve"), ("evolver", "evolve")],
    "evolver.cubic_kick_substep": [("evolver", "cubic_kick_substep")],
    "evolver.diffusion_substep": [("evolver", "diffusion_substep")],
    "closedform.classical_momentum_pdf": [
        ("sweep", "classical_momentum_pdf"),
        ("closedform", "classical_momentum_pdf")],
    "closedform.quantum_momentum_pdf": [
        ("sweep", "quantum_momentum_pdf"),
        ("closedform", "quantum_momentum_pdf")],
    "closedform.constants": [("sweep", "constants"),
                             ("closedform", "constants")],
    "closedform.duhamel_bound": [("sweep", "duhamel_bound"),
                                 ("closedform", "duhamel_bound")],
    "closedform.predicted_moments": [("closedform", "predicted_moments")],
    "specialfn.parabolic_cylinder_D": [
        ("closedform", "parabolic_cylinder_D"),
        ("specialfn", "parabolic_cylinder_D")],
    # closedform's per-point fallback past |z| = 36; D_ell's own quadrature
    # calls scipy directly and is inside parabolic_cylinder_D's span
    "specialfn.adaptive_integral": [("closedform", "adaptive_integral")],
    "oracles.coherent_wavefunction": [("oracles", "coherent_wavefunction")],
    "oracles.schrodinger_closed": [("oracles", "schrodinger_closed")],
    "oracles.momentum_distribution": [("oracles", "momentum_distribution")],
    "oracles.coherent_density_matrix": [("oracles", "coherent_density_matrix")],
    "oracles.lindblad_dm_evolve": [("oracles", "lindblad_dm_evolve")],
    "oracles.dm_momentum_marginal": [("oracles", "dm_momentum_marginal")],
    "oracles.langevin_sample": [("oracles", "langevin_sample")],
    "oracles.histogram_distribution": [("oracles", "histogram_distribution")],
    "core.initial_coherent_field": [("sweep", "initial_coherent_field"),
                                    ("core", "initial_coherent_field")],
    "core.momentum_marginal": [("sweep", "momentum_marginal"),
                               ("core", "momentum_marginal")],
    "core.l1_distance": [("sweep", "l1_distance"), ("core", "l1_distance")],
    "core.expect_observable": [("sweep", "expect_observable"),
                               ("core", "expect_observable")],
    "sweep.run_experiment": [("cli", "run_experiment"),
                             ("sweep", "run_experiment")],
    "sweep.run_point": [("sweep", "run_point")],
    "sweep.write_artifacts": [("sweep", "write_artifacts")],
    "sweep.observable_table": [("sweep", "observable_table")],
    "sweep.emit_figures": [("sweep", "emit_figures")],
    "cli.build_config": [("cli", "build_config")],
    "cli.main": [("cli", "main")],
    "io.read_marginal_csv": [("io", "read_marginal_csv")],
}


def _cells(a, _before, _result):
    return {"cells": int(np.size(a["field"].values))}


def _points(arg):
    return lambda a, _before, _result: {"points": int(np.size(a[arg]))}


def _sample_steps(a, _before, _result):
    schedule, dt = a["schedule"], a["dt"]
    steps = sum(int(math.ceil(schedule.window(i)[1] / dt)) for i in (1, 2, 3))
    return {"sample_steps": int(a["m"]) * steps}


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


#: span name -> (function run just before the call or None,
#:               function(arguments by name, its value, result) -> counts)
COUNTERS = {
    "evolver.cubic_kick_substep": (None, _cells),
    "evolver.diffusion_substep": (None, _cells),
    "evolver.evolve": (_minflt, lambda a, before, r: {
        "minflt": _minflt() - before}),
    "closedform.classical_momentum_pdf": (None, _points("p")),
    "closedform.quantum_momentum_pdf": (None, _points("p")),
    "specialfn.parabolic_cylinder_D": (None, _points("z")),
    "oracles.langevin_sample": (None, _sample_steps),
    "cli.main": (None, lambda a, before, code: {"exit_code": int(code)}),
}


def _cache_misses(fn):
    info = getattr(fn, "cache_info", None)
    return info().misses if info else None


class Tracer:
    """Records spans while installed; install and uninstall may repeat."""

    def __init__(self, qc, names=None):
        self._qc = qc
        self._names = list(SITES) if names is None else list(names)
        self._saved = []
        #: [name, start, end, parent index, counts]
        self.spans = []
        self._stack = []

    def install(self) -> None:
        if self._saved:
            return
        wrappers = {}
        for name in self._names:
            for module_name, attr in SITES[name]:
                module = getattr(self._qc, module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue  # gone from this version of the package
                key = (name, id(fn))
                if key not in wrappers:
                    wrappers[key] = self._wrap(name, fn)
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrappers[key])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def _wrap(self, name, fn):
        before_fn, count_fn = COUNTERS.get(name, (None, None))
        if name == "closedform.constants":
            def before_fn():
                return _cache_misses(fn)

            def count_fn(_a, before, _result):
                after = _cache_misses(fn)
                return {"misses": 1 if before is None else after - before}
        signature = inspect.signature(fn) if count_fn else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            before = before_fn() if before_fn else None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count_fn:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = count_fn(bound.arguments, before, result)
            return result

        return traced


def summarize(spans, windows):
    """Per-name totals over the spans that lie inside the given (start,
    end) windows: calls, busy (inclusive) seconds, self seconds (busy minus
    the time covered by direct child spans) and summed counts."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for i, (name, start, end, _parent, counts) in enumerate(spans):
        if not any(lo <= start and end <= hi for lo, hi in windows):
            continue
        entry = totals.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                         "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals
