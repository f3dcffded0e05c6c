"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload closed --seed 1 --seconds 25 --trace 0

A pass runs the workload's batch once, step by step. Passes repeat while
another one would still end within ``--seconds`` (at least one pass). The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The full record, with provenance and (traced)
the spans, goes to ``perfbench/out/<workload>-seed<n>-trace<t>.json``.

Exits 2, printing no result, where the checkout holds no package to run.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import env  # noqa: E402

env.pin_environment()  # before numpy starts its thread pools
from perfbench.hostspeed import SpeedLog, pin_to_one_cpu, slowdown  # noqa: E402
from perfbench.tracer import Tracer, summarize  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload, run_steps  # noqa: E402

#: set-up is timed in this process and in this many fresh ones
SETUP_PROBES = 2

#: (name, unit, better) of the metrics printed with --trace 0
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ok_frac", "ratio", "higher"),
]

LAYERS = ("evolver", "closedform", "specialfn", "oracles", "core", "sweep",
          "cli", "io")

#: (name, unit, better) of the metrics printed with --trace 1
PER_LAYER = [
    ("evolver.cubic_kick_substep.calls", "count", "lower"),
    ("evolver.cubic_kick_substep.busy_s", "s", "lower"),
    ("evolver.cubic_kick_substep.cells", "count", "lower"),
    ("evolver.cubic_kick_substep.cells_per_s", "1/s", "higher"),
    ("evolver.diffusion_substep.calls", "count", "lower"),
    ("evolver.diffusion_substep.busy_s", "s", "lower"),
    ("evolver.diffusion_substep.cells", "count", "lower"),
    ("evolver.diffusion_substep.cells_per_s", "1/s", "higher"),
    ("evolver.evolve.calls", "count", "lower"),
    ("evolver.evolve.busy_s", "s", "lower"),
    ("evolver.evolve.self_s", "s", "lower"),
    ("evolver.evolve.minflt", "count", "lower"),
    ("closedform.classical_momentum_pdf.calls", "count", "lower"),
    ("closedform.classical_momentum_pdf.points", "count", "lower"),
    ("closedform.classical_momentum_pdf.busy_s", "s", "lower"),
    ("closedform.classical_momentum_pdf.points_per_s", "1/s", "higher"),
    ("closedform.quantum_momentum_pdf.points", "count", "lower"),
    ("closedform.quantum_momentum_pdf.busy_s", "s", "lower"),
    ("closedform.constants.misses", "count", "lower"),
    ("closedform.constants.busy_s", "s", "lower"),
    ("closedform.duhamel_bound.calls", "count", "lower"),
    ("closedform.duhamel_bound.busy_s", "s", "lower"),
    ("specialfn.parabolic_cylinder_D.points", "count", "lower"),
    ("specialfn.parabolic_cylinder_D.busy_s", "s", "lower"),
    ("specialfn.adaptive_integral.calls", "count", "lower"),
    ("oracles.langevin_sample.busy_s", "s", "lower"),
    ("oracles.langevin_sample.sample_steps", "count", "lower"),
    ("oracles.langevin_sample.sample_steps_per_s", "1/s", "higher"),
    ("oracles.lindblad_dm_evolve.busy_s", "s", "lower"),
    ("oracles.schrodinger_closed.busy_s", "s", "lower"),
    ("oracles.dm_momentum_marginal.busy_s", "s", "lower"),
    ("core.initial_coherent_field.busy_s", "s", "lower"),
    ("core.momentum_marginal.busy_s", "s", "lower"),
    ("core.l1_distance.busy_s", "s", "lower"),
    ("core.expect_observable.busy_s", "s", "lower"),
    ("sweep.run_point.calls", "count", "lower"),
    ("sweep.run_point.busy_s", "s", "lower"),
    ("sweep.write_artifacts.busy_s", "s", "lower"),
    ("sweep.emit_figures.busy_s", "s", "lower"),
    ("sweep.artifact_bytes", "bytes", "lower"),
    ("sweep.pool_efficiency", "ratio", "higher"),
    ("cli.main.busy_s", "s", "lower"),
    ("cli.main.exit_code", "code", "lower"),
    ("io.read_marginal_csv.busy_s", "s", "lower"),
] + [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS] + [
    ("layer.unattributed_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

#: per-layer quantities that are a count divided by the span's busy time
RATES = {"cells_per_s": "cells", "points_per_s": "points",
         "sample_steps_per_s": "sample_steps"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _dir_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


class Runner:
    """Times passes of one workload inside a scratch directory."""

    def __init__(self, workload, run_dir):
        self.workload = workload
        self.run_dir = run_dir
        self.count = 0
        self.speed = SpeedLog()

    def one_pass(self, steps_fn, tracer=None, kind="timed") -> dict:
        self.count += 1
        pass_dir = os.path.join(self.run_dir, f"pass{self.count}")
        os.makedirs(pass_dir)
        wl = self.workload
        # every pass starts cold, as a fresh CLI process would
        getattr(wl.qc.closedform.constants, "cache_clear", lambda: None)()
        wl.record_seconds = 0.0
        steps = steps_fn(pass_dir)
        if tracer:
            tracer.install()
        try:
            records = run_steps(steps, self.speed)
        finally:
            if tracer:
                tracer.uninstall()
        out = {"kind": kind,
               "start": records[0]["start"], "end": records[-1]["end"],
               "steps": records,
               "ops": sum(len(r["ops"]) for r in records),
               "failures": {op: msg for r in records
                            for op, msg in r["failures"].items()},
               "artifact_bytes": _dir_bytes(pass_dir),
               "record_seconds": wl.record_seconds}
        for key in ("wall_s", "cpu_s"):
            out[key] = sum(r[key] for r in records)
            out["ref_" + key] = sum(r[key] / r["slowdown"] for r in records)
        shutil.rmtree(pass_dir, ignore_errors=True)
        return out

    def repeat(self, run_once, seconds) -> None:
        """Call ``run_once`` until another call would likely end after
        ``seconds``; at least once."""
        start = time.perf_counter()
        calls = 0
        while True:
            run_once()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed * (calls + 1) / calls > seconds:
                return


def _setup_probe(workload_name) -> float:
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    out = subprocess.run([sys.executable, str(probe), workload_name],
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


def end_to_end(runner, passes, setup_main) -> dict:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # only pool workers have been children so far; ru_maxrss is in KiB
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setups = [setup_main] + [_setup_probe(runner.workload.name)
                             for _ in range(SETUP_PROBES)]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    return {
        "wall_s": statistics.median(p["ref_wall_s"] for p in passes),
        "cpu_s": statistics.median(p["ref_cpu_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": (own + kids) / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
    }, {"setup_samples_s": setups,
        "measured_wall_s": statistics.median(p["wall_s"] for p in passes),
        "measured_cpu_s": statistics.median(p["cpu_s"] for p in passes)}


def per_layer(runner, tracer, seconds) -> tuple:
    """Untraced and traced passes in turn; per-layer metrics per traced
    pass, and the tracing overhead between the two."""
    wl = runner.workload
    passes = []
    cli_tracer = Tracer(wl.qc, names=["cli.main"])
    if type(wl).traced_steps is not Workload.traced_steps:
        # the timed form differs (a process pool): time it once untraced
        passes.append(runner.one_pass(wl.steps, cli_tracer, "pool"))

    pairs = []

    def pair():
        # alternate which of the two runs first
        order = ("timed", "traced")[::1 if len(pairs) % 2 == 0 else -1]
        pairs.append(order)
        for kind in order:
            passes.append(runner.one_pass(
                wl.traced_steps, tracer if kind == "traced" else None, kind))

    runner.repeat(pair, seconds)
    traced = [p for p in passes if p["kind"] == "traced"]
    untraced = [p for p in passes if p["kind"] == "timed"]
    pool = next(p for p in passes if p["kind"] in ("pool", "timed"))
    n = len(traced)
    totals = summarize(tracer.spans, [(p["start"], p["end"]) for p in traced])
    setup = summarize(tracer.spans, [(float("-inf"), traced[0]["start"])])
    cli_main = summarize(cli_tracer.spans,
                         [(float("-inf"), float("inf"))]).get("cli.main", {})

    metrics = {}
    for name, _unit, _better in PER_LAYER:
        fn_name, _, quantity = name.rpartition(".")
        entry = totals.get(fn_name, {})
        if quantity in RATES:
            busy = entry.get("busy_s", 0.0)
            metrics[name] = entry.get(RATES[quantity], 0) / busy if busy else 0.0
        elif fn_name.count(".") == 1:
            metrics[name] = entry.get(quantity, 0) / n
    wall = sum(p["wall_s"] for p in traced) / n
    plain_wall = sum(p["wall_s"] for p in untraced) / len(untraced)
    layer_self = {layer: sum(e["self_s"] for key, e in totals.items()
                             if key.split(".")[0] == layer) / n
                  for layer in LAYERS}
    metrics.update({
        "sweep.artifact_bytes": sum(p["artifact_bytes"] for p in traced) / n,
        "sweep.pool_efficiency": (pool["record_seconds"]
                                  / (pool["wall_s"] * wl.workers)),
        "cli.main.busy_s": (cli_main.get("busy_s", 0.0)
                            / max(cli_main.get("calls", 0), 1)),
        "cli.main.exit_code": (cli_main.get("exit_code", 0)
                               / max(cli_main.get("calls", 0), 1)),
        "io.read_marginal_csv.busy_s": setup.get(
            "io.read_marginal_csv", {}).get("busy_s", 0.0),
        **{f"layer.{layer}.self_s": v for layer, v in layer_self.items()},
        "layer.unattributed_s": wall - sum(layer_self.values()),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": wall - plain_wall,
        "trace.spans": sum(e["calls"] for e in totals.values()) / n,
    })
    return metrics, passes


def main(argv=None) -> int:
    args = parse_args(argv)
    steal0 = env.read_steal()
    try:
        qc = env.import_package()
    except env.PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](qc, args.seed)
    if workload.workers == 1:
        pin_to_one_cpu()
    tracer = Tracer(qc) if args.trace else None
    if tracer:
        tracer.install()
    try:
        workload.load_references()
    finally:
        if tracer:
            tracer.uninstall()
    setup_main = (time.perf_counter() - _T0) / slowdown()

    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=env.OUT / "tmp")
    runner = Runner(workload, run_dir)
    extra = {}
    try:
        if tracer:
            metrics, passes = per_layer(runner, tracer, args.seconds)
        else:
            passes = []
            runner.repeat(lambda: passes.append(runner.one_pass(workload.steps)),
                          args.seconds)
            metrics, extra = end_to_end(runner, passes, setup_main)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(p["ops"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    units = dict((n, u) for n, u, _ in (PER_LAYER if tracer else END_TO_END))
    record = {
        "workload": args.workload, "trace": args.trace,
        "seconds": args.seconds,
        "provenance": env.provenance(args.seed, steal0),
        "attempted": attempted, "failed": failed,
        "metrics": metrics, **extra,
        "passes": [{k: v for k, v in p.items() if k not in ("start", "end")}
                   for p in passes],
    }
    if tracer:
        record["spans"] = tracer.spans
    out_path = env.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w") as fh:
        json.dump(record, fh)

    prov = record["provenance"]
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"commit={prov['git_commit']} src={prov['src_sha256'][:12]} "
          f"nproc={prov['nproc']} steal={prov['host_steal_s']:.2f}s "
          f"cpu='{prov['cpu_model']}'")
    for p in passes:
        for op, msg in p["failures"].items():
            print(f"# FAIL {op}: {msg}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:>16.6g} {units[name]}")
    if not tracer:
        print(f"{'fail_frac':48s} {failed / attempted:>16.6g} ratio")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
