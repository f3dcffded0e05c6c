"""The four workloads and the operations each one times and checks.

All four are closed-loop batch jobs from one client: each call starts when
the previous one returns. A *pass* is one batch, from its first call to its
last checked output. An *operation* is one sweep point, one closed-form
call or one oracle run; a call that raises fails every operation it covers.

Sizes are scaled down from the default sweep so that several passes fit in
one run; perfbench/README.md lists each choice and what it keeps.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import resource
import time
from typing import Callable

import numpy as np

from perfbench import checks
from perfbench.env import DATA

#: closed: D = 0 only. At D = 0 the kick multipliers commute, so 25
#: substeps per unit (the default is 200) give the same answer to roundoff.
CLOSED_ARGV = ["--d-rule", "abs:", "--substeps", "25"]
CLOSED_H = (0.2, 0.1, 0.05)
#: diffusive: the CLI adds D = 0; D = h is the wide 512x2048 grid. 25
#: substeps per unit keep every records.csv value within 2e-7 of the 4x
#: refined run, inside the 1e-6 gate.
DIFFUSIVE_SUBSTEPS = 25
DIFFUSIVE_ARGV = ["--h-list", "0.1", "--d-rule", "exp:1.0,1.3333,2.0",
                  "--substeps", str(DIFFUSIVE_SUBSTEPS)]
#: the refined reference runs at this multiple of the timed substep count
REFINE = 4

#: h of the analytic and oracle workloads
H = 0.05
#: standard-schedule momentum grid; about 31 % of it lies past |z| = 36,
#: where closedform falls back to one quadrature per point
STD_GRID = (-16.0, 60.0, 1 << 12)
#: a non-standard schedule (S != 1) and its grid
GENERAL_TAUS = (0.4, 0.5, 1.2)
GENERAL_GRID = (-6.0, 20.0, 1 << 12)
#: tau2 values whose bound constants are recomputed every pass
TAU2_VALUES = (0.5, 2.0, 4.0)
#: oracles: the CLI --oracle Langevin case at half its 200 000 samples,
#: drawn in LANGEVIN_CALLS runs with seeds derived from the workload seed
LANGEVIN_SAMPLES = 100_000
LANGEVIN_CALLS = 4
HISTOGRAM = (96, -8.0, 16.0)
DM_POINTS = 512
DM_STEPS = 60


@dataclasses.dataclass
class Step:
    """One timed call, the operations it covers, and its output check.

    ``check`` maps the call's output to {operation: [failure messages]}.
    """

    ops: list
    call: Callable[[], object]
    check: Callable[[object], dict]


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its reaped children (the
    pool workers of a finished ``cli.main``)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _call_and_check(step) -> dict:
    try:
        out = step.call()
    except Exception as exc:  # a failing call fails its operations
        return {op: f"raised {type(exc).__name__}: {exc}" for op in step.ops}
    try:
        found = step.check(out)
    except Exception as exc:  # so does output the check cannot read
        return {op: f"check raised {type(exc).__name__}: {exc}"
                for op in step.ops}
    return {op: "; ".join(found[op]) for op in step.ops if found.get(op)}


def run_steps(steps, speed=None) -> list:
    """Run each step and check its output. Returns one record per step:
    its operations, {operation: failure} for those that failed, and the
    wall and CPU seconds of call plus check. With a ``hostspeed.SpeedLog``
    the host's speed is sampled between steps (outside their timing) and
    each record gets the ``slowdown`` around its step."""
    records = []
    for step in steps:
        if speed:
            speed.sample_if_stale()
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        failures = _call_and_check(step)
        end = time.perf_counter()
        records.append({"ops": list(step.ops), "failures": failures,
                        "start": start, "end": end, "wall_s": end - start,
                        "cpu_s": cpu_seconds() - cpu0})
    if speed:
        speed.sample()
        for r in records:
            r["slowdown"] = speed.around(r["start"], r["end"])
    return records


def point_label(h: float, D: float) -> str:
    return f"h={h!r} D={D!r}"


def _sweep_check(rows, ref_rows, labels) -> dict:
    """records.csv rows against refined-run rows, one operation per point."""
    got = {point_label(float(r["h"]), float(r["D"])): r for r in rows}
    failures = {}
    for label in labels:
        if label not in got:
            failures[label] = ["point missing from records.csv"]
        elif label not in ref_rows:
            failures[label] = ["no refined reference for this point"]
        else:
            failures[label] = checks.record_row(got[label], ref_rows[label])
    return failures


class Workload:
    name = ""
    why = ""
    #: processes that run sweep points (for sweep.pool_efficiency)
    workers = 1

    def __init__(self, qc, seed: int):
        self.qc = qc
        self.seed = seed
        #: summed SweepRecord.wall_time of the last pass, if it made records
        self.record_seconds = 0.0

    def load_references(self) -> None:
        """Read the stored reference data; runs before the first timed call."""

    def steps(self, out_dir: str) -> list:
        raise NotImplementedError

    def traced_steps(self, out_dir: str) -> list:
        """The pass the traced run times; all of it must run in this process."""
        return self.steps(out_dir)


class Closed(Workload):
    name = "closed"
    why = ("D = 0 sweep, one process: the window-2 kick loop is ~90 % of it "
           "and no diffusion runs (exercises ROADMAP 2(a))")

    def steps(self, out_dir):
        # one sweep point per call, so that each point is timed on its own
        return [self._point(h, os.path.join(out_dir, f"h{h!r}"))
                for h in CLOSED_H]

    def _point(self, h, out_dir) -> Step:
        cli, sweep = self.qc.cli, self.qc.sweep
        argv = CLOSED_ARGV + ["--h-list", repr(h), "--out", out_dir,
                              "--seed", str(self.seed)]
        label = point_label(h, 0.0)

        def check(records):
            self.record_seconds += sum(r.wall_time for r in records)
            got = [point_label(r.h, r.D) for r in records]
            if got != [label]:
                return {label: [f"records for {got}"]}
            fails = checks.closed_record(records[0])
            rows = checks.read_records_csv(os.path.join(out_dir, "records.csv"))
            if len(rows) != 1:
                fails.append(f"records.csv has {len(rows)} rows")
            return {label: fails}

        return Step([label],
                    lambda: sweep.run_experiment(cli.build_config(argv),
                                                 max_workers=1),
                    check)


def cli_sweep_step(workload: Workload, argv, ref_rows, serial=False) -> Step:
    """``cli.main(argv)`` (or, with ``serial``, the same sweep in this
    process) checked point by point against refined-run rows."""
    cli, sweep = workload.qc.cli, workload.qc.sweep
    config = cli.build_config(argv)
    labels = [point_label(h, D) for h, D, _ in config.points()]
    records = os.path.join(config.out_dir, "records.csv")

    def call():
        if serial:
            sweep.run_experiment(cli.build_config(argv), max_workers=1)
            return 0
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)

    def check(code):
        if code != 0:
            return {label: [f"exit code {code}"] for label in labels}
        rows = checks.read_records_csv(records)
        workload.record_seconds += sum(float(r["wall_time"]) for r in rows)
        return _sweep_check(rows, ref_rows, labels)

    return Step(labels, call, check)


class Diffusive(Workload):
    name = "diffusive"
    why = ("cli.main with its process pool, D > 0 including the wide grid: "
           "Strang kick plus diffusion (exercises ROADMAP 2(b-d))")

    def __init__(self, qc, seed):
        super().__init__(qc, seed)
        # the pool size sweep.run_experiment picks by default
        n_points = len(qc.cli.build_config(DIFFUSIVE_ARGV).points())
        self.workers = min(4, os.cpu_count() or 1, n_points)

    def load_references(self):
        rows = checks.read_records_csv(DATA / "diffusive_records_4x.csv")
        self.ref_rows = {point_label(float(r["h"]), float(r["D"])): r
                         for r in rows}

    def _argv(self, out_dir):
        return DIFFUSIVE_ARGV + ["--out", out_dir, "--seed", str(self.seed)]

    def steps(self, out_dir):
        return [cli_sweep_step(self, self._argv(out_dir), self.ref_rows)]

    def traced_steps(self, out_dir):
        return [cli_sweep_step(self, self._argv(out_dir), self.ref_rows,
                               serial=True)]


def general_schedule(qc):
    tau1, tau2, tau3 = GENERAL_TAUS
    return qc.core.Schedule(tau1=tau1, tau2=tau2, tau3=tau3)


def _as_dict(record) -> dict:
    return {k: float(v) for k, v in dataclasses.asdict(record).items()}


class Analytic(Workload):
    name = "analytic"
    why = ("closed forms only, no evolver: the per-point quadrature of the "
           "classical density is ~75 % of it (exercises ROADMAP 3)")

    def load_references(self):
        with open(DATA / "references.json") as fh:
            self.refs = json.load(fh)["analytic"]

    def steps(self, out_dir):
        cf, sweep, core = self.qc.closedform, self.qc.sweep, self.qc.core
        refs = self.refs
        std = core.standard_schedule(H)
        general = general_schedule(self.qc)
        schedules = {"standard": std, "general": general}
        grids = {"standard": np.linspace(*STD_GRID),
                 "general": np.linspace(*GENERAL_GRID)}
        D = H ** (4.0 / 3.0)

        def figures(result):
            fails = [f"{name} missing or empty" for name in
                     ("fig2.svg", "fig3.svg", "fig3.csv")
                     if not os.path.getsize(os.path.join(out_dir, name))]
            _, qv, cv = result["fig3"][0]
            if not abs(abs(qv - cv) - checks.DISCREPANCY_G0) \
                    <= checks.DISCREPANCY_TOL:
                fails.append(f"fig3 n=0 difference {abs(qv - cv):.6g}")
            return {"emit_figures": fails}

        steps = [Step(["emit_figures"], lambda: sweep.emit_figures(out_dir),
                      figures)]
        for branch, sch in schedules.items():
            args = (sch.tau1, sch.tau2, sch.tau3, H)
            p = grids[branch]
            for kind in ("classical", "quantum"):
                op = f"{kind}_momentum_pdf/{branch}"

                def check(q, op=op, p=p, kind=kind, branch=branch, args=args):
                    fails = checks.density_mass(p, q)
                    if kind == "classical":
                        fails += checks.pcfd_points(
                            q, refs["pcfd_points"][branch])
                    if branch == "general":
                        fails += checks.density_mean(
                            p, q, refs["predicted_moments"]["3"][kind]["mean_p"])
                    return {op: fails}

                # looked up at call time, where the tracer wraps it
                steps.append(Step([op], lambda kind=kind, p=p, args=args:
                                  getattr(cf, f"{kind}_momentum_pdf")(p, *args),
                                  check))

        for cp in range(4):
            op = f"predicted_moments/{cp}"
            args = GENERAL_TAUS + (H,)
            steps.append(Step(
                [op],
                lambda cp=cp, args=args: {
                    kind: _as_dict(cf.predicted_moments(cp, *args, kind=kind))
                    for kind in ("classical", "quantum")},
                lambda got, op=op, cp=cp: {op: sum(
                    (checks.stored_values(got[kind],
                                          refs["predicted_moments"][str(cp)][kind])
                     for kind in ("classical", "quantum")), [])}))

        for tau2 in TAU2_VALUES:
            op = f"constants/{tau2!r}"
            steps.append(Step(
                [op], lambda tau2=tau2: _as_dict(cf.constants(tau2)),
                lambda got, op=op, tau2=tau2: {op: checks.stored_values(
                    got, refs["constants"][repr(tau2)])}))

        for branch, sch in schedules.items():
            for side in ("quantum", "classical"):
                op = f"duhamel_bound/{side}/{branch}"
                steps.append(Step(
                    [op], lambda side=side, sch=sch: cf.duhamel_bound(
                        side, H, D, sch),
                    lambda got, op=op: {op: checks.stored_values(
                        {"bound": float(got)},
                        {"bound": refs["duhamel_bound"][op]})}))
        return steps


class Oracles(Workload):
    name = "oracles"
    why = ("the three oracles at h = 0.05, no evolver: Langevin sampling is "
           "~80 % of it; bypasses every evolver and closed-form change")

    def load_references(self):
        io_ = self.qc.io
        self.wigner = io_.read_marginal_csv(DATA / "oracles_wigner_4x.csv")
        self.classical = io_.read_marginal_csv(
            DATA / "oracles_classical_4x.csv")

    def steps(self, out_dir):
        o, core = self.qc.oracles, self.qc.core
        sch = core.standard_schedule(H)
        args = (sch.tau1, sch.tau2, sch.tau3, H)
        params = core.SemiclassicalParams(hbar=2.0 * H, D=H ** (4.0 / 3.0))
        # held now, before any tracing, so the reference stays untraced
        airy = self.qc.closedform.quantum_momentum_pdf

        def schrodinger_check(md):
            p = md.p[(md.p > -14.0) & (md.p < 46.0)]
            return {"schrodinger": checks.masked_l1(
                md, p, airy(p, *args), checks.ORACLE_L1)}

        return [
            Step(["schrodinger"],
                 lambda: o.momentum_distribution(o.schrodinger_closed(
                     o.coherent_wavefunction(H), sch, H)[3], H),
                 schrodinger_check),
            Step(["lindblad"],
                 lambda: o.dm_momentum_marginal(o.lindblad_dm_evolve(
                     o.coherent_density_matrix(H, n=DM_POINTS), sch, params,
                     steps=DM_STEPS)[3], params),
                 lambda md: {"lindblad": checks.masked_l1(
                     md, self.wigner.p, self.wigner.q, checks.ORACLE_L1)}),
        ] + self._langevin_steps(sch, params)

    def _langevin_steps(self, sch, params) -> list:
        """LANGEVIN_CALLS independent runs whose final momenta are pooled
        into one histogram: the sample count the tolerance needs, in calls
        short enough to be timed between host-speed samples."""
        o = self.qc.oracles
        labels = [f"langevin/{k}" for k in range(LANGEVIN_CALLS)]
        final_p = []

        def call(k):
            if k == 0:
                final_p.clear()
            final_p.append(o.langevin_sample(
                LANGEVIN_SAMPLES // LANGEVIN_CALLS, sch, params,
                seed=LANGEVIN_CALLS * self.seed + k)[3].p)
            if k < LANGEVIN_CALLS - 1:
                return None
            return o.histogram_distribution(np.concatenate(final_p),
                                            *HISTOGRAM)

        def check(hist):
            if len(final_p) != LANGEVIN_CALLS:
                fails = [f"only {len(final_p)} of {LANGEVIN_CALLS} runs"]
            else:
                fails = checks.histogram_l1(hist, self.classical.p,
                                            self.classical.q)
            return {label: fails for label in labels}

        # the operations are counted, and fail, with the pooled check
        return [Step([] if k < LANGEVIN_CALLS - 1 else labels,
                     lambda k=k: call(k),
                     (lambda _: {}) if k < LANGEVIN_CALLS - 1 else check)
                for k in range(LANGEVIN_CALLS)]


WORKLOADS = {w.name: w for w in (Closed, Diffusive, Analytic, Oracles)}
