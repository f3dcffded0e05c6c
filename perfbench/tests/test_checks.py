"""Every check the benchmark applies can fail, and a failure is counted.

Run with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import checks, env, run, workloads
from perfbench.hostspeed import SpeedLog
from perfbench.tracer import Tracer, summarize

H = workloads.H


def _ok(records):
    return [op for r in records for op in r["ops"] if op not in r["failures"]]


def _failed(records):
    return [op for r in records for op in r["failures"]]


@pytest.fixture(scope="module")
def diffusive(qc):
    wl = workloads.Diffusive(qc, seed=0)
    wl.load_references()
    return wl


@pytest.fixture(scope="module")
def oracles(qc):
    wl = workloads.Oracles(qc, seed=0)
    wl.load_references()
    return wl


@pytest.fixture(scope="module")
def analytic(qc):
    wl = workloads.Analytic(qc, seed=0)
    wl.load_references()
    return wl.refs


def _closed_record(qc, **changes):
    record = qc.sweep.SweepRecord(
        h=0.1, D=0.0, exponent=math.nan, discrepancy_g0=0.064122564,
        l1=0.2722794, quantum_bound=0.0, classical_bound=0.0,
        grid="512x1024", substeps=50, wall_time=1.0,
        measured_quantum_l1=6e-14, measured_classical_l1=8e-14)
    return dataclasses.replace(record, **changes)


def test_closed_record_check_can_fail(qc):
    assert checks.closed_record(_closed_record(qc)) == []
    assert checks.closed_record(_closed_record(qc, measured_quantum_l1=1e-9))
    assert checks.closed_record(_closed_record(qc, measured_classical_l1=1e-9))
    assert checks.closed_record(_closed_record(qc, discrepancy_g0=0.0672))


def test_record_off_by_1e5_fails(diffusive):
    for label, ref in diffusive.ref_rows.items():
        assert checks.record_row(dict(ref), ref) == [], label
        timing = dict(ref, wall_time="99.0", substeps="25")
        assert checks.record_row(timing, ref) == [], label
        for col in ("discrepancy_g0", "l1", "quantum_bound"):
            bad = dict(ref, **{col: repr(float(ref[col]) + 1e-5)})
            assert checks.record_row(bad, ref), (label, col)
        assert checks.record_row(dict(ref, grid="64x128"), ref), label


def test_marginal_shifted_by_one_cell_fails(qc, oracles):
    ref = oracles.wigner
    same = qc.core.MomentumDistribution(p=ref.p, q=ref.q.copy())
    assert checks.masked_l1(same, ref.p, ref.q, checks.ORACLE_L1) == []
    shifted = qc.core.MomentumDistribution(p=ref.p, q=np.roll(ref.q, 1))
    assert checks.masked_l1(shifted, ref.p, ref.q, checks.ORACLE_L1)


def test_2000_sample_langevin_histogram_fails(qc, oracles):
    sch = qc.core.standard_schedule(H)
    params = qc.core.SemiclassicalParams(hbar=2 * H, D=H ** (4.0 / 3.0))
    ens = qc.oracles.langevin_sample(2000, sch, params, seed=0)
    hist = qc.oracles.histogram_distribution(ens[3].p, *workloads.HISTOGRAM)
    assert checks.histogram_l1(hist, oracles.classical.p, oracles.classical.q)


def test_analytic_checks_can_fail(qc, analytic):
    sch = qc.core.standard_schedule(H)
    args = (sch.tau1, sch.tau2, sch.tau3, H)
    p = np.linspace(*workloads.STD_GRID)
    q = qc.closedform.classical_momentum_pdf(p, *args)
    points = analytic["pcfd_points"]["standard"]
    assert checks.density_mass(p, q) == []
    assert checks.density_mass(p, q * (1 + 2e-9))
    assert checks.pcfd_points(q, points) == []
    inside = next(pt for pt in points if not pt["fallback"] and pt["value"] > 1e-3)
    bad = q.copy()
    bad[inside["index"]] *= 1 + 1e-11
    assert checks.pcfd_points(bad, points)
    outside = next(pt for pt in points if pt["fallback"])
    bad = q.copy()
    bad[outside["index"]] += 1e-13
    assert checks.pcfd_points(bad, points)
    # the standard-schedule classical mean is S * g = tau2 = 1
    assert checks.density_mean(p, q, 1.0) == []
    assert checks.density_mean(p, q, 1.0 + 1e-8)
    stored = analytic["constants"]["2.0"]
    assert checks.stored_values(dict(stored), stored) == []
    assert checks.stored_values(dict(stored, c0=stored["c0"] + 2e-9),
                                stored)


def test_raising_sweep_fails_all_its_points_and_the_run_goes_on(
        diffusive, tmp_path):
    # ROADMAP Direction 4: this grid makes a worker raise ResolutionError
    # out of cli.main's process pool
    argv = ["--h-list", "0.2", "--d-rule", "abs:1.0", "--grid", "64x128",
            "--out", str(tmp_path)]
    after = workloads.Step(["next"], lambda: 1, lambda out: {})
    results = workloads.run_steps(
        [workloads.cli_sweep_step(diffusive, argv, diffusive.ref_rows), after])
    assert _failed(results) == ["h=0.2 D=0.0", "h=0.2 D=1.0"]
    assert "ResolutionError" in results[0]["failures"]["h=0.2 D=0.0"]
    assert _ok(results) == ["next"]


class _FakeWorkload(workloads.Workload):
    name = "fake"

    def steps(self, out_dir):
        return [workloads.Step(["a", "b"], lambda: 2.0,
                               lambda out: {"b": ["off by one"]}),
                workloads.Step(["c"], lambda: 1 / 0, lambda out: {})]


def test_failures_are_counted_per_operation(qc, tmp_path):
    runner = run.Runner(_FakeWorkload(qc, seed=0), str(tmp_path))
    result = runner.one_pass(runner.workload.steps)
    assert result["ops"] == 3
    assert sorted(result["failures"]) == ["b", "c"]
    assert "ZeroDivisionError" in result["failures"]["c"]


def test_tracer_spans_counts_and_self_time(qc):
    tracer = Tracer(qc)
    original = qc.closedform.classical_momentum_pdf
    sch = qc.core.standard_schedule(H)
    p = np.array([-1.0, 0.5, 40.0])  # the last point takes the fallback
    tracer.install()
    try:
        assert qc.sweep.classical_momentum_pdf is qc.closedform.classical_momentum_pdf
        qc.closedform.classical_momentum_pdf(p, sch.tau1, sch.tau2, sch.tau3, H)
        qc.closedform.constants.__wrapped__.cache_clear()
        qc.closedform.constants(3.0)
        qc.closedform.constants(3.0)
    finally:
        tracer.uninstall()
    assert qc.closedform.classical_momentum_pdf is original
    totals = summarize(tracer.spans, [(-math.inf, math.inf)])
    pdf = totals["closedform.classical_momentum_pdf"]
    assert pdf["calls"] == 1 and pdf["points"] == 3
    assert totals["specialfn.parabolic_cylinder_D"]["points"] == 2
    assert totals["specialfn.adaptive_integral"]["calls"] == 1
    children = (totals["specialfn.parabolic_cylinder_D"]["busy_s"]
                + totals["specialfn.adaptive_integral"]["busy_s"])
    assert pdf["self_s"] == pytest.approx(pdf["busy_s"] - children)
    assert totals["closedform.constants"] == pytest.approx(
        {**totals["closedform.constants"], "calls": 2, "misses": 1})


def test_benchmark_json_matches_the_runner():
    with open(env.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, wl.why) for name, wl in workloads.WORKLOADS.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.PER_LAYER


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(env.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_log_uses_the_samples_around_a_step():
    log = SpeedLog()
    log.times, log.values = [1.0, 2.0, 5.0], [1.0, 3.0, 2.0]
    assert log.around(2.5, 4.0) == pytest.approx(2.5)  # samples at 2 and 5
    assert log.around(1.5, 1.8) == pytest.approx(2.0)  # samples at 1 and 2
    assert log.around(6.0, 7.0) == pytest.approx(2.0)  # only the last
