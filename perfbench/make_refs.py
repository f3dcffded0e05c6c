"""Regenerate the benchmark's reference data in perfbench/data.

    python3 perfbench/make_refs.py

Writes:

- ``diffusive_records_4x.csv``: records.csv of the diffusive sweep at four
  times its substeps (the refined run of the ROADMAP Direction 2 gate);
- ``oracles_wigner_4x.csv`` and ``oracles_classical_4x.csv``: final momentum
  marginals at (h = 0.05, D = h^(4/3)) from the spectral evolver at four
  times its default 200 substeps per unit, written with
  ``qcthreshold.io.write_marginal_csv``;
- ``references.json``: the bound constants, Duhamel bounds and predicted
  moments the analytic workload recomputes, and mpmath ``pcfd`` values of
  the classical density at fixed points of its two grids.

Takes about one minute on two cores.
"""

import dataclasses
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import env  # noqa: E402

env.pin_environment()
qc = env.import_package()

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

from perfbench import workloads as wl  # noqa: E402

#: mpmath working precision for the pcfd reference values
DPS = 30
#: points per grid at which the classical density is checked
PCFD_POINTS = 36


def classical_pdf_mp(p: float, tau1, tau2, tau3, h) -> float:
    """The classical density through mpmath's D_-1/2 (closedform's formula,
    evaluated independently of scipy)."""
    tau1, tau2, tau3, h = (mpmath.mpf(v) for v in (tau1, tau2, tau3, h))
    S = mpmath.sqrt(h) * mpmath.exp(tau3 - tau1)
    g = tau2 * mpmath.sqrt(h) * mpmath.exp(3 * tau1)
    P = mpmath.mpf(p) / S
    z = 1 / (2 * g) - P
    return float(mpmath.exp(-P * P / 2 + z * z / 4) * mpmath.pcfd(-0.5, z)
                 / (2 * mpmath.sqrt(mpmath.pi * g)) / S)


def pcfd_points(grid, args):
    tau1, tau2, tau3, h = args
    S = math.sqrt(h) * math.exp(tau3 - tau1)
    g = tau2 * math.sqrt(h) * math.exp(3.0 * tau1)
    p = np.linspace(*grid)
    out = []
    for i in np.linspace(0, len(p) - 1, PCFD_POINTS).round().astype(int):
        z = 1.0 / (2.0 * g) - p[i] / S
        out.append({"index": int(i), "p": float(p[i]),
                    "value": classical_pdf_mp(float(p[i]), *args),
                    "fallback": bool(abs(z) > qc.specialfn.PCF_MAX_ARG)})
    return out


def analytic_references() -> dict:
    cf = qc.closedform
    std = qc.core.standard_schedule(wl.H)
    general = wl.general_schedule(qc)
    D = wl.H ** (4.0 / 3.0)
    mpmath.mp.dps = DPS
    return {
        "constants": {repr(t2): dataclasses.asdict(cf.constants(t2))
                      for t2 in wl.TAU2_VALUES},
        "predicted_moments": {
            str(cp): {kind: dataclasses.asdict(cf.predicted_moments(
                cp, *wl.GENERAL_TAUS, wl.H, kind=kind))
                for kind in ("classical", "quantum")}
            for cp in range(4)},
        "duhamel_bound": {
            f"duhamel_bound/{side}/{branch}": cf.duhamel_bound(side, wl.H, D, sch)
            for branch, sch in (("standard", std), ("general", general))
            for side in ("quantum", "classical")},
        "pcfd_points": {
            "standard": pcfd_points(wl.STD_GRID, (std.tau1, std.tau2,
                                                  std.tau3, wl.H)),
            "general": pcfd_points(wl.GENERAL_GRID, wl.GENERAL_TAUS + (wl.H,))},
    }


def diffusive_records(dest: Path) -> None:
    tmp = tempfile.mkdtemp()
    try:
        argv = wl.DIFFUSIVE_ARGV + [
            "--substeps", str(wl.REFINE * wl.DIFFUSIVE_SUBSTEPS), "--out", tmp]
        qc.sweep.run_experiment(qc.cli.build_config(argv))
        shutil.copyfile(Path(tmp) / "records.csv", dest)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def oracle_marginals() -> None:
    core = qc.core
    h = wl.H
    params = core.SemiclassicalParams(hbar=2.0 * h, D=h ** (4.0 / 3.0))
    config = qc.evolver.EvolverConfig(
        substeps_per_unit=wl.REFINE * qc.evolver.EvolverConfig().substeps_per_unit)
    for kind in ("wigner", "classical"):
        field = core.initial_coherent_field(params, core.GridSpec.for_h(h), kind)
        final = qc.evolver.evolve(field, core.standard_schedule(h), params,
                                  config).final
        qc.io.write_marginal_csv(env.DATA / f"oracles_{kind}_4x.csv",
                                 core.momentum_marginal(final))


def main() -> None:
    env.DATA.mkdir(exist_ok=True)
    refs = {
        "generated_by": "python3 perfbench/make_refs.py",
        "src_sha256": env.source_digest(),
        "mpmath": mpmath.__version__,
        "mpmath_dps": DPS,
        "analytic": analytic_references(),
    }
    with open(env.DATA / "references.json", "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    diffusive_records(env.DATA / "diffusive_records_4x.csv")
    oracle_marginals()


if __name__ == "__main__":
    main()
