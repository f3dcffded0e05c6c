"""Command-line interface for sweep experiments.

Usage:
    qcthreshold --h-list 0.2,0.1,0.05 --d-rule exp:1.0,1.3333,1.6667,2.0 \
                --out results/ --figures

Options may also come from a flat key = value config file (--config);
command-line flags override file entries. An unknown config key, a value
that cannot be read, or a grid too coarse to hold the initial state ends
the run with "error: ..." and exit code 2; a sweep point or oracle run
that the solver cannot resolve, or that fails a solver diagnostic, ends it
with "error: <class>: ..." and exit code 3. Exit code 1 means a bound or
oracle check failed; each failure is printed as a BOUND FAIL or ORACLE FAIL
line.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (CoverageError, InvalidParameterError, ResolutionError,
                     SolverFailureError)
from .oracles import cross_validate
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
    return (kind, _floats(values))


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _grid(text: str) -> tuple:
    n_u, sep, n_v = text.partition("x")
    if not sep:
        raise ValueError("expected N_UxN_V")
    return int(n_u), int(n_v)


def _switch(text: str) -> bool:
    word = text.lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError("expected true/false, yes/no, on/off or 1/0")
    return word in ("1", "true", "yes", "on")


#: Every option a config file may set, with the reader of its value.
_READERS = {
    "h_list": _floats,
    "d_rule": parse_d_rule,
    "tau2": float,
    "grid": _grid,
    "substeps": int,
    "out": str,
    "seed": int,
    "oracle": _switch,
    "figures": _switch,
}


def load_config_file(path) -> dict:
    """Flat key = value lines; '#' starts a comment; blank lines ignored.
    Keys are option names, with '-' or '_'; any other key is an error."""
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
            key = key.strip().replace("-", "_")
            if key not in _READERS:
                raise InvalidParameterError(
                    f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value.strip()
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
    p.add_argument("--tau2", help="kick window duration")
    p.add_argument("--grid", help="grid as N_UxN_V, e.g. 512x1024")
    p.add_argument("--substeps",
                   help="quadrature panels per unit time for the stretch-"
                        "window diffusion integrals (the kick window is "
                        "exact)")
    p.add_argument("--out", help="output directory for artifacts")
    p.add_argument("--seed", help="seed recorded in outputs")
    p.add_argument("--oracle", action="store_const", const="true",
                   help="also run the oracle cross-checks")
    p.add_argument("--figures", action="store_const", const="true",
                   help="emit fig2.svg / fig3.svg")
    return p


def build_config(argv=None) -> RunConfig:
    """RunConfig from the command line over the --config file's entries;
    a value that cannot be read raises InvalidParameterError naming it."""
    args = _parser().parse_args(argv)
    merged = {}
    if args.config:
        merged.update(load_config_file(args.config))
    for key in _READERS:
        val = getattr(args, key)
        if val is not None:
            merged[key] = val

    kwargs = {}
    for key, value in merged.items():
        try:
            read = _READERS[key](value)
        except ValueError as exc:
            raise InvalidParameterError(
                f"--{key.replace('_', '-')} {value!r}: {exc}") from None
        if key == "grid":
            kwargs["n_u"], kwargs["n_v"] = read
        else:
            kwargs["out_dir" if key == "out" else key] = read
    return RunConfig(**kwargs)


def main(argv=None) -> int:
    try:
        config = build_config(argv)
        records = run_experiment(config)
        h = max(config.h_list)
        oracle_fails = cross_validate(h, config) if config.oracle else []
    except (InvalidParameterError, CoverageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResolutionError, SolverFailureError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    failures = [
        r for r in records
        if not (bound_passed(r.measured_quantum_l1, r.quantum_bound)
                and bound_passed(r.measured_classical_l1, r.classical_bound))]
    for r in failures:
        print(f"BOUND FAIL h={r.h} D={r.D}: measured "
              f"({r.measured_quantum_l1:.4g}, {r.measured_classical_l1:.4g}) "
              f"vs bounds ({r.quantum_bound:.4g}, {r.classical_bound:.4g})",
              file=sys.stderr)
    for line in oracle_fails:
        print(f"ORACLE FAIL h={h}: {line}", file=sys.stderr)
    n = len(records)
    print(f"{n} sweep points, {n - len(failures)} bound-check passes")
    return 0 if not failures and not oracle_fails else 1


if __name__ == "__main__":
    sys.exit(main())
