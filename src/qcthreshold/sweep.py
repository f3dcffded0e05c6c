"""Experiment harness: (h, D) sweeps, threshold crossing estimates, bound
reports, figure emission, and the --oracle cross-checks.

Each sweep point evolves the classical state, derives the quantum one from
it, measures the final momentum distributions, and records the observable
discrepancy, the L1 distance, and the analytic error bounds.
cross_validate checks the independent solvers in oracles against the
closed form and the spectral evolver on the sweep's own setup.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__, oracles
from .closedform import (
    _grid_pdfs,
    classical_momentum_pdf,
    constants,
    duhamel_bound,
    quantum_momentum_pdf,
)
from .core import (
    GridSpec,
    MomentumDistribution,
    ObservableSpec,
    SemiclassicalParams,
    expect_observable,
    initial_coherent_field,
    l1_distance,
    momentum_marginal,
    resample_distribution,
    standard_schedule,
)
from .errors import InvalidParameterError
from .evolver import EvolverConfig, evolve
from .io import write_csv
from .svg import bar_plot, line_plot

__all__ = [
    "RunConfig",
    "SweepRecord",
    "point_setup",
    "run_point",
    "run_experiment",
    "bound_passed",
    "cross_validate",
    "emit_figures",
    "CSV_COLUMNS",
]

CSV_COLUMNS = ["h", "D", "exponent", "discrepancy_g0", "l1",
               "quantum_bound", "classical_bound", "grid", "substeps",
               "wall_time"]

#: D / h^(4/3) ratio above which the momentum grid is widened; strong
#: diffusion broadens the state enough that kicked far columns would
#: otherwise wrap around the momentum boundary.
_WIDE_D_RATIO = 1.5

#: h of the closed-form densities in fig2 and fig3.
_H_REF = 1e-3

#: Kick-window duration of fig2's inset, where the quantum fringes are
#: denser than at the run's own tau2.
_INSET_TAU2 = 10.0

#: Allowance added to an analytic bound before a measured L1 distance is
#: said to exceed it; it absorbs the solver's own discretization error.
BOUND_SLACK = 5e-3


def bound_passed(measured: float, bound: float) -> bool:
    """Whether a measured L1 distance lies within an analytic bound."""
    return measured <= bound + BOUND_SLACK


@dataclass(frozen=True)
class SweepRecord:
    h: float
    D: float
    exponent: float  # nan when D was given absolutely
    discrepancy_g0: float
    l1: float
    quantum_bound: float
    classical_bound: float
    grid: str
    substeps: int
    wall_time: float
    # solver-vs-closed-form distances; carried for bounds.csv, not part of
    # the v1 records.csv schema
    measured_quantum_l1: float
    measured_classical_l1: float


@dataclass(frozen=True)
class RunConfig:
    h_list: tuple = (0.2, 0.1, 0.05)
    d_rule: tuple = ("exponent", (1.0, 4.0 / 3.0, 5.0 / 3.0, 2.0))
    tau2: float = 1.0
    n_u: int = 512
    n_v: int = 1024
    substeps: int = 200
    out_dir: str = ""
    seed: int = 0
    oracle: bool = False
    figures: bool = False

    def __post_init__(self):
        if not self.h_list:
            raise InvalidParameterError("h list must be nonempty")
        if self.n_u < 2 or self.n_v < 2:
            raise InvalidParameterError(
                f"grid {self.n_u}x{self.n_v} needs at least 2 points per axis")
        if not (math.isfinite(self.tau2) and self.tau2 > 0):
            raise InvalidParameterError("tau2 must be positive and finite")
        if self.d_rule[0] not in ("exponent", "absolute"):
            raise InvalidParameterError("d_rule must be exponent or absolute")
        if self.seed < 0:
            raise InvalidParameterError(f"seed {self.seed} must be >= 0")
        if self.substeps < 1:
            raise InvalidParameterError(
                f"substeps {self.substeps} must be >= 1")
        if self.figures and not self.out_dir:
            raise InvalidParameterError("--figures needs --out")
        for h in self.h_list:
            if not 0.0 < h < 1.0:
                raise InvalidParameterError(f"h {h!r} must lie in (0, 1)")
        try:
            pts = [pt[:2] for pt in self.points()]
        except OverflowError:
            raise InvalidParameterError(
                f"D = h^p overflows for p in {self.d_rule[1]!r}") from None
        for i, (h, D) in enumerate(pts):
            if not (math.isfinite(D) and D >= 0):
                raise InvalidParameterError(
                    f"D {D!r} at h={h!r} must be finite and >= 0")
            if (h, D) in pts[:i]:
                raise InvalidParameterError(
                    f"sweep point h={h!r}, D={D!r} repeats: each h, and "
                    "each D at one h (D = 0 included), must be distinct")

    def points(self):
        """All (h, D, exponent) sweep points, exponent nan for absolute D;
        each h starts with its D = 0 point."""
        pts = []
        for h in self.h_list:
            pts.append((h, 0.0, math.nan))
            kind, values = self.d_rule
            for v in values:
                if kind == "exponent":
                    pts.append((h, h ** v, v))
                else:
                    pts.append((h, v, math.nan))
        return pts


def _grid_for(h: float, D: float, config: RunConfig) -> GridSpec:
    if D > _WIDE_D_RATIO * h ** (4.0 / 3.0):
        return GridSpec.for_h(h, n_u=config.n_u, n_v=2 * config.n_v,
                              widths_v=128.0)
    return GridSpec.for_h(h, n_u=config.n_u, n_v=config.n_v)


def _schedule_for(h: float, tau2: float):
    return replace(standard_schedule(h), tau2=tau2)


def point_setup(h: float, D: float, config: RunConfig):
    """(schedule, grid, params, evolver config) of the sweep point (h, D)."""
    return (_schedule_for(h, config.tau2), _grid_for(h, D, config),
            SemiclassicalParams(hbar=2.0 * h, D=D),
            EvolverConfig(substeps_per_unit=config.substeps))


def run_point(h: float, D: float, exponent: float,
              config: RunConfig) -> SweepRecord:
    """Evolve the classical density at one (h, D), which also derives and
    guards the Wigner one at t2 and t3, and measure the comparison metrics
    on their final momentum marginals."""
    t0 = time.perf_counter()
    sch, grid, params, evc = point_setup(h, D, config)
    res = evolve(initial_coherent_field(params, grid, "classical"), sch,
                 params, evc)
    mq = momentum_marginal(res.wigner)
    mc = momentum_marginal(res.final)
    g0 = ObservableSpec(0)
    disc = abs(expect_observable(mq, g0) - expect_observable(mc, g0))
    l1 = l1_distance(mq, mc)
    qb = duhamel_bound("quantum", h, D, sch)
    cb = duhamel_bound("classical", h, D, sch)
    # one p grid (the final frame's); past the edge guards it holds the mass
    q, c = _grid_pdfs(mc.p, sch.tau1, sch.tau2, sch.tau3, h)
    meas_q = float(np.abs(mq.q - q).sum() * mq.dp)
    meas_c = float(np.abs(mc.q - c).sum() * mc.dp)
    return SweepRecord(
        h=h, D=D, exponent=exponent, discrepancy_g0=disc, l1=l1,
        quantum_bound=qb, classical_bound=cb,
        grid=f"{grid.n_u}x{grid.n_v}", substeps=config.substeps,
        wall_time=time.perf_counter() - t0,
        measured_quantum_l1=meas_q, measured_classical_l1=meas_c)


def _run_point_args(args):
    return run_point(*args)


def run_experiment(config: RunConfig, max_workers: int = None):
    """Run every sweep point, write artifacts if an output directory is set,
    and return the records sorted by (h, D)."""
    # a handful of complex working copies of the largest grid
    if 16 * config.n_u * (2 * config.n_v) * 8 > 4 << 30:
        raise InvalidParameterError("grid too large; per-run memory estimate "
                                    "exceeds 4 GiB")
    points = [(h, D, e, config) for h, D, e in config.points()]
    if max_workers is None:
        max_workers = min(4, os.cpu_count() or 1, len(points))
    if max_workers > 1 and len(points) > 1:
        constants(config.tau2)  # cached here, the forked workers inherit it
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            records = list(pool.map(_run_point_args, points))
    else:
        records = [run_point(*p) for p in points]
    records = sorted(records, key=lambda r: (r.h, r.D))
    if config.out_dir:
        write_artifacts(config, records)
    return records


def write_records_csv(path, records) -> None:
    write_csv(path, CSV_COLUMNS,
              ([getattr(r, c) for c in CSV_COLUMNS] for r in records))


def _json_value(v):
    """v, or None (JSON null) for a NaN float, which JSON cannot hold."""
    return None if isinstance(v, float) and math.isnan(v) else v


def write_summary_json(path, config: RunConfig, records) -> None:
    """The run's config and records, without wall_time, plus the per-h
    crossing estimates when any record has D > 0."""
    payload = {
        "schema": "v1",
        "code_version": __version__,
        "config": {
            "h_list": list(config.h_list),
            "d_rule": [config.d_rule[0], list(config.d_rule[1])],
            "include_zero": True,  # every sweep runs D = 0; schema v1 key
            "tau2": config.tau2,
            "grid": f"{config.n_u}x{config.n_v}",
            "substeps": config.substeps,
            "seed": config.seed,
        },
        "records": [
            {c: _json_value(d[c]) for c in CSV_COLUMNS if c != "wall_time"}
            for d in map(asdict, records)
        ],
    }
    crossings = crossing_estimates(records, config.tau2)
    if crossings:
        payload["crossings"] = {repr(h): _json_value(v)
                                for h, v in sorted(crossings.items())}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_artifacts(config: RunConfig, records) -> None:
    os.makedirs(config.out_dir, exist_ok=True)
    write_records_csv(os.path.join(config.out_dir, "records.csv"), records)
    write_summary_json(os.path.join(config.out_dir, "summary.json"),
                       config, records)
    if config.figures:
        emit_figures(config.out_dir, tau2=config.tau2)
    write_bounds_csv(os.path.join(config.out_dir, "bounds.csv"), records)


def crossing_estimates(records, tau2: float) -> dict:
    """Per-h estimate of the D where discrepancy falls through c0(tau2)/2,
    by log-linear interpolation across the first pair of consecutive D > 0
    points that brackets it (the first at or above c0/2, the next below);
    nan when no pair does."""
    half = constants(tau2).c0 / 2.0
    by_h = {}
    for r in sorted(records, key=lambda r: r.D):
        if r.D > 0:
            by_h.setdefault(r.h, []).append(r)
    out = {}
    for h, rows in by_h.items():
        out[h] = math.nan
        for prev, r in zip(rows, rows[1:]):
            if prev.discrepancy_g0 >= half > r.discrepancy_g0:
                f = (math.log(prev.discrepancy_g0 / half)
                     / math.log(prev.discrepancy_g0 / max(r.discrepancy_g0, 1e-12)))
                out[h] = math.exp(math.log(prev.D)
                                  + f * math.log(r.D / prev.D))
                break
    return out


def write_bounds_csv(path, records) -> None:
    """One bound report row per record and side, quantum first."""
    write_csv(path, ["h", "D", "side", "measured", "bound", "passed"], [
        (r.h, r.D, side, meas, bound,
         "PASS" if bound_passed(meas, bound) else "FAIL")
        for r in records
        for side, meas, bound in (
            ("quantum", r.measured_quantum_l1, r.quantum_bound),
            ("classical", r.measured_classical_l1, r.classical_bound))])


def observable_table(tau2: float = 1.0):
    """<g_n> under the two closed-form densities for n = 0 .. 8, with
    g_n = p^n exp(-p^2) (ObservableSpec) taken as a running product."""
    sigma = math.sqrt(1.0 + 2.0 * tau2 * tau2)
    p = np.linspace(-10.0 - 2 * sigma, 40.0 * tau2 + 12.0 * sigma, 1 << 14)
    sch = _schedule_for(_H_REF, tau2)
    q, c = _grid_pdfs(p, sch.tau1, sch.tau2, sch.tau3, _H_REF)
    g, dp = np.exp(-p * p), float(p[1] - p[0])
    rows = []
    for n in range(9):
        rows.append((n, float((g * q).sum() * dp), float((g * c).sum() * dp)))
        g *= p
    return rows


def emit_figures(out_dir, tau2: float = 1.0) -> dict:
    """Write fig2.svg (density overlay with a tau2 = 10 inset) and fig3.svg
    plus fig3.csv (observable table); returns the plotted data."""
    os.makedirs(out_dir, exist_ok=True)

    def curves(t2, lo, hi, n=900):
        sch = _schedule_for(_H_REF, t2)
        p = np.linspace(lo, hi, n)
        q = quantum_momentum_pdf(p, sch.tau1, sch.tau2, sch.tau3, _H_REF)
        c = classical_momentum_pdf(p, sch.tau1, sch.tau2, sch.tau3, _H_REF)
        return p, q, c

    p, q, c = curves(tau2, -4.0, 8.0 * max(tau2, 1.0))
    sig = math.sqrt(1.0 + 2.0 * _INSET_TAU2 ** 2)
    pi_, qi, ci = curves(_INSET_TAU2, -2.0 * sig, _INSET_TAU2 + 2.5 * sig)
    line_plot(os.path.join(out_dir, "fig2.svg"),
              [(p, q, "red", "quantum"), (p, c, "blue", "classical")],
              [(pi_, qi, "red"), (pi_, ci, "blue")],
              "Final momentum distributions", "p", "density")

    table = observable_table(tau2)
    bar_plot(os.path.join(out_dir, "fig3.svg"), table,
             ("quantum", "classical"), "Observable averages p^n exp(-p^2)",
             "n", "expectation")
    write_csv(os.path.join(out_dir, "fig3.csv"),
              ["n", "quantum", "classical", "difference"],
              [(n, qv, cv, abs(qv - cv)) for n, qv, cv in table])
    return {"fig2": (p, q, c), "fig2_inset": (pi_, qi, ci), "fig3": table}


def _histogram_window(sp: MomentumDistribution):
    """(bins, lo, hi) of the Langevin histogram: [-8, 16) in 0.25-wide
    bins, its upper edge extended bin by bin until at most 1e-4 of the
    mass of sp lies outside."""
    lo, hi, width = -8.0, 16.0, 0.25
    cell = sp.q * sp.dp
    left = cell[sp.p < lo].sum()
    while left + cell[sp.p >= hi].sum() > 1e-4 and hi < sp.p[-1]:
        hi += width
    return round((hi - lo) / width), lo, hi


def cross_validate(h: float, config: RunConfig) -> list:
    """Cross-check the oracles at h on the schedule, grid and stretch
    panels the sweep runs under config; returns one line per failed check,
    none when both pass.

    The Schrodinger oracle's final momentum density must lie within 1e-3
    (L1) of the Airy closed form, and at D = h^(4/3) a 200 000-sample
    Langevin histogram (seeded with config.seed) within 3e-2 of the
    spectral evolver's classical marginal, on a window that leaves at most
    1e-4 of that marginal's mass outside.
    """
    fails = []
    sch, grid, params, evc = point_setup(h, h ** (4.0 / 3.0), config)
    psi = oracles.schrodinger_closed(oracles.coherent_wavefunction(h), sch,
                                     h)[3]
    md = oracles.momentum_distribution(psi, h)
    mask = (md.p > -14.0) & (md.p < 46.0)
    ref = quantum_momentum_pdf(md.p[mask], sch.tau1, sch.tau2, sch.tau3, h)
    l1 = float(np.abs(md.q[mask] - ref).sum() * md.dp)
    if not l1 < 1e-3:
        fails.append(f"Schrodinger vs closed form: L1 {l1:.4g} >= 1e-3")

    f0 = initial_coherent_field(params, grid, "classical")
    sp = momentum_marginal(evolve(f0, sch, params, evc).final)
    ens = oracles.langevin_sample(200_000, sch, params, seed=config.seed)
    hist = oracles.histogram_distribution(ens[3].p, *_histogram_window(sp))
    refc = resample_distribution(sp, hist.p)
    l1 = float(np.abs(hist.q - refc.q).sum() * hist.dp)
    if not l1 < 3e-2:
        fails.append(f"Langevin vs spectral evolver: L1 {l1:.4g} >= 3e-2")
    return fails
