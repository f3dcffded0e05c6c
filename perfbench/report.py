"""Run every workload untraced and traced, and print one table of each.

    python3 perfbench/report.py [--seed N] [--seconds S] [--json PATH]

Each run is its own process (``perfbench/run.py``), so peak memory and
set-up time belong to one workload. The first table holds the five
end-to-end metrics; ``fail_frac`` is ``failed / attempted``, the complement
of ``ok_frac``. The second holds the per-layer metrics of the traced run,
with the tracing overhead (``trace.overhead_s``) and the self-time
accounting: the layers' self times plus ``layer.unattributed_s`` add up to
``trace.wall_s``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import env  # noqa: E402

BENCH = json.loads((env.ROOT / "BENCHMARK.json").read_text())


def run_one(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(env.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True, cwd=env.ROOT)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (env.OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["provenance"] = record["provenance"]
    result["passes"] = len(record["passes"])
    return result


def _table(title, names, units, results):
    workloads = list(results)
    print(f"\n{title}")
    print(f"{'metric':46s} {'unit':6s}" + "".join(f"{w:>14s}" for w in workloads))
    for name in names:
        cells = "".join(f"{results[w][name]:>14.6g}" for w in workloads)
        print(f"{name:46s} {units[name]:6s}{cells}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    p.add_argument("--json", help="also write every result to this file")
    args = p.parse_args(argv)

    names = [w["name"] for w in BENCH["workloads"]]
    raw = {w: {t: run_one(w, args.seed, args.seconds, t) for t in (0, 1)}
           for w in names}
    e2e = {}
    layer = {}
    for w in names:
        plain, traced = raw[w][0], raw[w][1]
        e2e[w] = {k: v["value"] for k, v in plain["metrics"].items()}
        e2e[w]["fail_frac"] = plain["failed"] / plain["attempted"]
        layer[w] = {k: v["value"] for k, v in traced["metrics"].items()}

    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    units["fail_frac"] = "ratio"
    _table("End to end (untraced)", [m["name"] for m in BENCH["end_to_end"]]
           + ["fail_frac"], units, e2e)
    _table("Per layer (traced; per traced pass)",
           [m["name"] for m in BENCH["per_layer"]], units, layer)
    for w in names:
        prov = raw[w][0]["provenance"]
        print(f"{w}: commit={prov['git_commit']} src={prov['src_sha256'][:12]} "
              f"seed={prov['seed']} nproc={prov['nproc']} "
              f"cpu='{prov['cpu_model']}' python={prov['python']} "
              f"numpy={prov['numpy']} scipy={prov['scipy']} "
              f"steal={prov['host_steal_s']:.2f}s "
              f"passes={raw[w][0]['passes']}/{raw[w][1]['passes']}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"seconds": args.seconds, "end_to_end": e2e,
                       "per_layer": layer, "runs": raw}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
