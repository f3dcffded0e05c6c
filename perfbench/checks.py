"""Correctness checks on every output the benchmark times.

Each check returns a list of failure messages; an empty list is a pass.
Every tolerance names where it comes from.
"""

from __future__ import annotations

import csv
import math

import numpy as np

#: Roundoff at D = 0: the kick multipliers commute and every operator is
#: exact, so the solver reproduces the closed form up to floating-point
#: error (about 1e-13 at the seed commit).
ROUNDOFF_L1 = 1e-10
#: Acceptance criteria 7 and 9: the D = 0 discrepancy of <exp(-p^2)>.
DISCREPANCY_G0 = 0.06412
DISCREPANCY_TOL = 2e-3
#: ROADMAP Direction 2 gate: records.csv against a refined run.
RECORD_TOL = 1e-6
#: Mass of a closed-form density on the benchmark grid (the densities are
#: exact; the grid quadrature error is below 1e-13 at the seed commit).
MASS_TOL = 1e-9
#: Mean of a closed-form density against predicted_moments, same source.
MEAN_TOL = 1e-9
#: mpmath pcfd at 30 digits, where closedform evaluates D_-1/2 (|z| <= 36).
PCFD_REL = 1e-12
#: Past |z| = 36 closedform integrates each point with absolute tolerance
#: 1e-14 (closedform._classical_unit_pdf_point), so only that is promised.
FALLBACK_ABS = 1e-14
#: Values stored by make_refs.py from the seed commit (bound constants,
#: Duhamel bounds, predicted moments); relative to max(1, |value|).
STORED_REL = 1e-9
#: Acceptance criterion 8: Schrodinger against the Airy form and Lindblad
#: against the spectral Wigner marginal.
ORACLE_L1 = 1e-3
#: Acceptance criterion 8: a 96-bin Langevin histogram against the spectral
#: classical marginal.
LANGEVIN_L1 = 3e-2

#: records.csv columns the refined run need not reproduce
UNCHECKED_COLUMNS = ("wall_time", "substeps")


def _close(got: float, want: float, tol: float, scale: float = 1.0) -> bool:
    """|got - want| <= tol * scale, with nan equal only to nan."""
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= tol * scale


def closed_record(record) -> list:
    """A D = 0 sweep point: both kinds match the closed form to roundoff
    and the discrepancy is the closed-form value."""
    fails = []
    for side in ("quantum", "classical"):
        l1 = getattr(record, f"measured_{side}_l1")
        if not l1 <= ROUNDOFF_L1:
            fails.append(f"{side} L1 to closed form {l1:.3g} > {ROUNDOFF_L1}")
    if not abs(record.discrepancy_g0 - DISCREPANCY_G0) <= DISCREPANCY_TOL:
        fails.append(f"discrepancy_g0 {record.discrepancy_g0:.6g} not within "
                     f"{DISCREPANCY_TOL} of {DISCREPANCY_G0}")
    return fails


def read_records_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def record_row(row: dict, ref: dict) -> list:
    """One records.csv row against the refined-run row for the same point."""
    fails = []
    for col, want in ref.items():
        if col in UNCHECKED_COLUMNS:
            continue
        got = row.get(col)
        if got is None:
            fails.append(f"column {col} missing")
            continue
        try:
            ok = _close(float(got), float(want), RECORD_TOL)  # absolute
        except ValueError:
            ok = got == want
        if not ok:
            fails.append(f"{col} = {got}, refined run {want}")
    return fails


def density_mass(p, q) -> list:
    mass = float(np.sum(q) * (p[1] - p[0]))
    if not abs(mass - 1.0) <= MASS_TOL:
        return [f"mass {mass!r} not within {MASS_TOL} of 1"]
    return []


def density_mean(p, q, want: float) -> list:
    mean = float(np.sum(p * q) * (p[1] - p[0]))
    if not abs(mean - want) <= MEAN_TOL:
        return [f"mean {mean!r}, predicted {want!r}"]
    return []


def pcfd_points(q, points) -> list:
    """Density values at stored grid indices against mpmath values."""
    fails = []
    for pt in points:
        got, want = float(q[pt["index"]]), pt["value"]
        err = abs(got - want)
        if pt["fallback"]:
            ok = err <= FALLBACK_ABS
        else:
            ok = err <= PCFD_REL * abs(want)
        if not ok:
            fails.append(f"p = {pt['p']!r}: {got!r} vs mpmath {want!r}")
    return fails


def stored_values(got: dict, want: dict) -> list:
    return [f"{key} = {got.get(key)!r}, stored {value!r}"
            for key, value in want.items()
            if not (isinstance(got.get(key), float)
                    and _close(got[key], value, STORED_REL,
                               max(1.0, abs(value))))]


def _l1_on(p, q, ref_p, ref_q) -> float:
    """L1 distance on the points p, with the reference interpolated there."""
    ref = np.interp(p, ref_p, ref_q, left=0.0, right=0.0)
    return float(np.abs(q - ref).sum() * (p[1] - p[0]))


def masked_l1(dist, ref_p, ref_q, tol: float, lo=-14.0, hi=46.0) -> list:
    """L1 over lo < p < hi (the window acceptance criterion 8 uses)."""
    mask = (dist.p > lo) & (dist.p < hi)
    l1 = _l1_on(dist.p[mask], dist.q[mask], ref_p, ref_q)
    if not l1 < tol:
        return [f"L1 {l1:.3g} >= {tol}"]
    return []


def histogram_l1(hist, ref_p, ref_q) -> list:
    l1 = _l1_on(hist.p, hist.q, ref_p, ref_q)
    if not l1 < LANGEVIN_L1:
        return [f"histogram L1 {l1:.3g} >= {LANGEVIN_L1}"]
    return []
