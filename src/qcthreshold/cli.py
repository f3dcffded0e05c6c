"""Command-line interface for sweep experiments.

Usage:
    qcthreshold --h-list 0.2,0.1,0.05 --d-rule exp:1.0,1.3333,1.6667,2.0 \
                --out results/ --figures

Options may also come from a flat key = value config file (--config);
command-line flags override file entries.
"""

from __future__ import annotations

import argparse
import sys

from .errors import InvalidParameterError
from .sweep import RunConfig, bound_passed, run_experiment

__all__ = ["main", "parse_d_rule", "load_config_file", "build_config"]


def parse_d_rule(text: str):
    """'exp:1.0,2.0' -> exponent rule; 'abs:0.01,0.1' -> absolute D list."""
    if ":" not in text:
        raise InvalidParameterError("d-rule must look like exp:... or abs:...")
    kind, _, values = text.partition(":")
    kind = {"exp": "exponent", "abs": "absolute"}.get(kind.strip())
    if kind is None:
        raise InvalidParameterError("d-rule kind must be exp or abs")
    return (kind, tuple(float(v) for v in values.split(",") if v.strip()))


def load_config_file(path) -> dict:
    """Flat key = value lines; '#' starts a comment; blank lines ignored."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidParameterError(
                    f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _parser():
    p = argparse.ArgumentParser(
        prog="qcthreshold",
        description="Sweep the quantum-classical discrepancy over (h, D) "
                    "and verify the analytic error bounds.")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--h-list", help="comma-separated h values")
    p.add_argument("--d-rule",
                   help="exp:p1,p2,... for D = h^p or abs:D1,D2,...")
    p.add_argument("--tau2", type=float, help="kick window duration")
    p.add_argument("--grid", help="grid as N_UxN_V, e.g. 512x1024")
    p.add_argument("--substeps", type=int, help="substeps per unit time")
    p.add_argument("--out", help="output directory for artifacts")
    p.add_argument("--seed", type=int, help="seed recorded in outputs")
    p.add_argument("--oracle", action="store_true", default=None,
                   help="also run the oracle cross-checks")
    p.add_argument("--figures", action="store_true", default=None,
                   help="emit fig2.svg / fig3.svg")
    return p


def build_config(argv=None) -> RunConfig:
    args = _parser().parse_args(argv)
    merged = {}
    if args.config:
        merged.update(load_config_file(args.config))
    for key in ("h_list", "d_rule", "tau2", "grid", "substeps", "out",
                "seed", "oracle", "figures"):
        val = getattr(args, key)
        if val is not None:
            merged[key] = val

    kwargs = {}
    if "h_list" in merged:
        kwargs["h_list"] = tuple(
            float(v) for v in str(merged["h_list"]).split(",") if v.strip())
    if "d_rule" in merged:
        kwargs["d_rule"] = (merged["d_rule"]
                            if isinstance(merged["d_rule"], tuple)
                            else parse_d_rule(str(merged["d_rule"])))
    if "tau2" in merged:
        kwargs["tau2"] = float(merged["tau2"])
    if "grid" in merged:
        n_u, _, n_v = str(merged["grid"]).partition("x")
        kwargs["n_u"] = int(n_u)
        kwargs["n_v"] = int(n_v)
    if "substeps" in merged:
        kwargs["substeps"] = int(merged["substeps"])
    if "out" in merged:
        kwargs["out_dir"] = str(merged["out"])
    if "seed" in merged:
        kwargs["seed"] = int(merged["seed"])
    for flag in ("oracle", "figures"):
        if flag in merged:
            v = merged[flag]
            kwargs[flag] = v if isinstance(v, bool) else \
                str(v).lower() in ("1", "true", "yes", "on")
    return RunConfig(**kwargs)


def _run_oracles(config: RunConfig) -> bool:
    """Cross-validate the three oracles at the largest h; returns pass/fail."""
    import numpy as np
    from .closedform import quantum_momentum_pdf
    from .core import (GridSpec, SemiclassicalParams, initial_coherent_field,
                       momentum_marginal, resample_distribution,
                       standard_schedule)
    from .evolver import evolve
    from .oracles import (coherent_wavefunction, histogram_distribution,
                          langevin_sample, momentum_distribution,
                          schrodinger_closed)
    h = max(config.h_list)
    sch = standard_schedule(h)
    psi = schrodinger_closed(coherent_wavefunction(h), sch, h)[3]
    md = momentum_distribution(psi, h)
    mask = (md.p > -14.0) & (md.p < 46.0)
    ref = quantum_momentum_pdf(md.p[mask], sch.tau1, sch.tau2, sch.tau3, h)
    ok = float(np.abs(md.q[mask] - ref).sum() * md.dp) < 1e-3

    params = SemiclassicalParams(hbar=2.0 * h, D=h ** (4.0 / 3.0))
    f0 = initial_coherent_field(params, GridSpec.for_h(h), "classical")
    sp = momentum_marginal(evolve(f0, sch, params).final)
    ens = langevin_sample(200_000, sch, params, seed=config.seed)
    hist = histogram_distribution(ens[3].p, 96, -8.0, 16.0)
    refc = resample_distribution(sp, hist.p)
    ok = ok and float(np.abs(hist.q - refc.q).sum() * hist.dp) < 3e-2
    return ok


def main(argv=None) -> int:
    try:
        config = build_config(argv)
        records = run_experiment(config)
    except (InvalidParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failures = [
        r for r in records
        if not (bound_passed(r.measured_quantum_l1, r.quantum_bound)
                and bound_passed(r.measured_classical_l1, r.classical_bound))]
    for r in failures:
        print(f"BOUND FAIL h={r.h} D={r.D}: measured "
              f"({r.measured_quantum_l1:.4g}, {r.measured_classical_l1:.4g}) "
              f"vs bounds ({r.quantum_bound:.4g}, {r.classical_bound:.4g})",
              file=sys.stderr)
    oracle_ok = True
    if config.oracle:
        oracle_ok = _run_oracles(config)
        if not oracle_ok:
            print("ORACLE FAIL: cross-validation outside tolerance",
                  file=sys.stderr)
    n = len(records)
    print(f"{n} sweep points, {n - len(failures)} bound-check passes")
    return 0 if not failures and oracle_ok else 1


if __name__ == "__main__":
    sys.exit(main())
