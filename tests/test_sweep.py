"""Sweep harness tests on small, fast configurations."""

import csv
import json
import math
import sys
import threading

import numpy as np
import pytest

from qcthreshold import closedform, core, evolver, sweep
from qcthreshold.closedform import (
    classical_momentum_pdf,
    constants,
    quantum_momentum_pdf,
)
from qcthreshold.core import initial_coherent_field, l1_distance, \
    momentum_marginal
from qcthreshold.errors import InvalidParameterError, SolverFailureError
from qcthreshold.sweep import (
    CSV_COLUMNS,
    RunConfig,
    SweepRecord,
    crossing_estimates,
    emit_figures,
    observable_table,
    point_setup,
    run_experiment,
    run_point,
    write_artifacts,
    write_records_csv,
)

FAST = dict(n_u=256, n_v=512, substeps=60)


@pytest.fixture(scope="module")
def small_records():
    cfg = RunConfig(h_list=(0.2,), d_rule=("exponent", (1.0, 4.0 / 3.0, 2.0)),
                    **FAST)
    return cfg, run_experiment(cfg, max_workers=1)


def _synthetic_records(h, points):
    """SweepRecords at h with the given (D, discrepancy) pairs."""
    return [SweepRecord(h=h, D=D, exponent=math.nan, discrepancy_g0=g,
                        l1=0.1, quantum_bound=1.0, classical_bound=1.0,
                        grid="64x128", substeps=25, wall_time=0.0,
                        measured_quantum_l1=0.0, measured_classical_l1=0.0)
            for D, g in points]


def _point_pdfs(p, *args):
    """What sweep._grid_pdfs returns, from the arbitrary-point evaluators."""
    return quantum_momentum_pdf(p, *args), classical_momentum_pdf(p, *args)


class TestRunConfig:
    def test_points_enumeration(self):
        cfg = RunConfig(h_list=(0.1,), d_rule=("exponent", (1.0, 2.0)))
        pts = cfg.points()
        assert (0.1, 0.0, pts[0][2]) == pts[0] and math.isnan(pts[0][2])
        assert pts[1] == (0.1, pytest.approx(0.1), 1.0)
        assert pts[2] == (0.1, pytest.approx(0.01), 2.0)

    def test_absolute_rule(self):
        cfg = RunConfig(h_list=(0.1,), d_rule=("absolute", (0.005,)))
        pts = cfg.points()
        assert len(pts) == 2
        assert pts[0][:2] == (0.1, 0.0)
        assert pts[1][:2] == (0.1, 0.005) and math.isnan(pts[1][2])

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            RunConfig(h_list=())
        with pytest.raises(InvalidParameterError):
            RunConfig(d_rule=("scaled", (1.0,)))
        for tau2 in (0.0, math.nan, math.inf):
            with pytest.raises(InvalidParameterError):
                RunConfig(tau2=tau2)
        with pytest.raises(InvalidParameterError, match="seed"):
            RunConfig(seed=-1)
        with pytest.raises(InvalidParameterError, match="substeps"):
            RunConfig(substeps=0)
        with pytest.raises(InvalidParameterError, match="--figures"):
            RunConfig(figures=True)
        for h in (0.0, 1.0, 1.5, -0.1, math.nan):
            with pytest.raises(InvalidParameterError, match=f"h {h!r} "):
                RunConfig(h_list=(0.2, h))
        for d_rule in (("absolute", (-1.0,)), ("absolute", (math.inf,)),
                       ("exponent", (math.nan,))):
            with pytest.raises(InvalidParameterError, match="finite and >= 0"):
                RunConfig(d_rule=d_rule)
        with pytest.raises(InvalidParameterError, match="overflows"):
            RunConfig(d_rule=("exponent", (-1000.0,)))

    @pytest.mark.parametrize("field, value, message", [
        ("n_u", 256.5, "grid 256.5x1024 needs at least 2 points"),
        ("n_v", True, "grid 512xTrue needs at least 2 points"),
        ("n_u", math.nan, "at least 2 points"),
        ("substeps", 2.5, "substeps 2.5 must be >= 1"),
        ("substeps", True, "substeps True must be >= 1"),
        ("substeps", math.inf, "substeps inf must be >= 1"),
        ("seed", True, "seed True must be >= 0"),
        ("seed", 2.5, "seed 2.5 must be >= 0"),
        ("seed", math.nan, "seed nan must be >= 0")])
    def test_whole_number_fields(self, field, value, message):
        # a bool or a fraction would reach the evolver's array shapes or
        # the artifacts
        with pytest.raises(InvalidParameterError, match=message):
            RunConfig(**{field: value})

    def test_whole_number_fields_kept_as_int(self):
        cfg = RunConfig(n_u=256.0, n_v=np.int64(512), substeps=200.0,
                        seed=3.0)
        for name, want in (("n_u", 256), ("n_v", 512), ("substeps", 200),
                           ("seed", 3)):
            value = getattr(cfg, name)
            assert type(value) is int and value == want

    @pytest.mark.parametrize("h_list, d_rule", [
        ((0.2,), ("absolute", (0.0, 0.01))),  # D = 0 runs anyway
        ((0.2,), ("absolute", (0.01, 0.01))),
        ((0.2,), ("exponent", (1.0, 1.0))),
        ((0.2, 0.1, 0.2), ("exponent", (1.0,))),
    ])
    def test_repeated_point_rejected(self, h_list, d_rule):
        with pytest.raises(InvalidParameterError, match="repeats"):
            RunConfig(h_list=h_list, d_rule=d_rule)

    def test_memory_gate(self):
        cfg = RunConfig(n_u=1 << 14, n_v=1 << 15)
        with pytest.raises(InvalidParameterError):
            run_experiment(cfg)

    @pytest.mark.parametrize("substeps, runs", [
        (10 ** 6, True), (1.025e6, True), (2 * 10 ** 6, False),
        (10 ** 8, False), (10 ** 400, False)],
        ids=["1e6", "1.025e6", "2e6", "1e8", "1e400"])
    def test_memory_gate_counts_stretch_tables(self, monkeypatch, substeps,
                                               runs):
        # Schedule.stretch builds float64 tables of ceil(substeps tau3) x 16
        # entries, tau3 = 2.0 at h = 0.05: 25.6 GB each at 10^8. Past the
        # 4 GiB estimate (about 1.034e6 here, beside the 512x1024 grid) the
        # run stops before any point or table, and a value beyond the
        # float range is rejected the same way
        class Ran(Exception):
            pass

        def no_table(*args):
            raise AssertionError("a stretch table was built")

        def ran(*args):
            raise Ran

        monkeypatch.setattr(core.Schedule, "stretch", no_table)
        monkeypatch.setattr(sweep, "run_point", ran)
        cfg = RunConfig(h_list=(0.05,), d_rule=("absolute", ()),
                        substeps=substeps)
        if runs:
            with pytest.raises(Ran):
                run_experiment(cfg)
        else:
            with pytest.raises(InvalidParameterError,
                               match="memory estimate exceeds 4 GiB"):
                run_experiment(cfg)

    def test_constants_computed_once_before_the_threads_start(
            self, monkeypatch):
        # each entry of the log is one sweep point or one constants() cache
        # miss, with the thread that ran it
        log = []

        def spy(kind, fn):
            def wrapped(*args, **kwargs):
                log.append((kind, threading.get_ident()))
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(sweep, "run_point", spy("point", run_point))
        monkeypatch.setattr(closedform, "_standard_grid",
                            spy("miss", closedform._standard_grid))
        constants.cache_clear()
        cfg = RunConfig(h_list=(0.2,), d_rule=("absolute", (0.01, 0.02)),
                        **FAST)
        run_experiment(cfg, max_workers=2)
        me = threading.get_ident()
        points = {tid for kind, tid in log if kind == "point"}
        misses = [tid for kind, tid in log if kind == "miss"]
        assert points and me not in points
        assert misses == [me]

    def test_pool_takes_largest_grid_first(self, monkeypatch, tmp_path):
        # the diffusive-shaped sweep on one thread: the wide 512x2048 D = h
        # point runs first, then D falls, so D = 0 runs last; the records
        # and records.csv stay sorted by (h, D)
        calls = []

        def recorded(h, D, exponent, config):
            calls.append((h, D))
            return run_point(h, D, exponent, config)

        monkeypatch.setattr(sweep, "run_point", recorded)
        h = 0.1
        cfg = RunConfig(h_list=(h,), d_rule=("exponent", (1.0, 1.3333, 2.0)),
                        out_dir=str(tmp_path))
        records = run_experiment(cfg, max_workers=1)
        assert calls == [(h, h), (h, h ** 1.3333), (h, h ** 2.0), (h, 0.0)]
        assert records[-1].grid == "512x2048"
        assert [(r.h, r.D) for r in records] == sorted(calls)
        with open(tmp_path / "records.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(float(r["h"]), float(r["D"])) for r in rows] == sorted(calls)

    def test_threads_match_serial_run(self, small_records):
        # concurrent points share no mutable state: four threads, switched
        # often, give the serial records bit for bit, the wide-grid D = h
        # point included
        cfg, serial = small_records
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = run_experiment(cfg, max_workers=4)
        finally:
            sys.setswitchinterval(interval)

        def fields(r):
            return [np.float64(v).tobytes() if isinstance(v, float) else v
                    for k, v in vars(r).items() if k != "wall_time"]
        assert [fields(r) for r in threaded] == [fields(r) for r in serial]

    def test_closed_sweep_runs_without_constants(self, monkeypatch,
                                                 tmp_path):
        # every D = 0 bound is 0.0 and no crossing can be estimated, so a
        # D = 0-only sweep writes the same artifacts when constants()
        # cannot run
        def artifacts(out):
            cfg = RunConfig(h_list=(0.2, 0.1), d_rule=("absolute", ()),
                            out_dir=str(out), **FAST)
            run_experiment(cfg, max_workers=1)
            with open(out / "records.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            wall = rows[0].index("wall_time")
            return ([row[:wall] + row[wall + 1:] for row in rows],
                    (out / "summary.json").read_bytes(),
                    (out / "bounds.csv").read_bytes())

        want = artifacts(tmp_path / "plain")

        def refuse(*args):
            raise AssertionError("constants() ran")

        monkeypatch.setattr(sweep, "constants", refuse)
        monkeypatch.setattr(closedform, "constants", refuse)
        assert artifacts(tmp_path / "patched") == want


class TestHistogramWindow:
    @pytest.mark.parametrize("tau2, n_v, bins, hi", [
        (1.0, 1024, 111, 19.75), (2.0, 512, 203, 42.75)])
    def test_window_holds_all_but_1e4(self, tau2, n_v, bins, hi):
        # the --oracle Langevin histogram's window at h = 0.2 on the sweep's
        # grid: its upper edge grows past 16 until at most 1e-4 of the
        # evolver's classical marginal lies outside, and not a bin further
        cfg = RunConfig(h_list=(0.2,), tau2=tau2, n_u=512, n_v=n_v)
        sch, grid, params, evc = point_setup(0.2, 0.2 ** (4.0 / 3.0), cfg)
        sp = momentum_marginal(evolver.evolve(
            initial_coherent_field(params, grid, "classical"), sch, params,
            evc).final)
        assert sweep._histogram_window(sp) == (bins, -8.0, hi)
        cell = sp.q * sp.dp

        def outside(top):
            return cell[sp.p < -8.0].sum() + cell[sp.p >= top].sum()

        assert outside(hi) <= 1e-4 < outside(hi - 0.25)


class TestRunPoint:
    def test_closed_point_is_tight(self):
        cfg = RunConfig(h_list=(0.2,), **FAST)
        r = run_point(0.2, 0.0, math.nan, cfg)
        assert r.measured_quantum_l1 < 1e-8
        assert r.measured_classical_l1 < 1e-8
        assert r.quantum_bound == 0.0
        assert r.classical_bound == 0.0
        # at D = 0 the quantum-classical gap equals the universal profile gap
        assert r.l1 == pytest.approx(constants(1.0).c_bar, abs=1e-3)
        assert r.discrepancy_g0 == pytest.approx(constants(1.0).c0, abs=1e-4)

    def test_one_evolve_per_point(self, monkeypatch):
        calls = []

        def counted(field, *args):
            calls.append(field.kind)
            return evolver.evolve(field, *args)

        monkeypatch.setattr(sweep, "evolve", counted)
        cfg = RunConfig(h_list=(0.2,), d_rule=("exponent", (1.0,)), **FAST)
        run_experiment(cfg, max_workers=1)
        assert calls == ["classical", "classical"]

    @pytest.mark.parametrize("h, exponent, tau2", [
        (0.2, math.nan, 1.0),  # D = 0
        (0.2, 1.0, 1.0),  # D > 0 on the widened momentum grid
        (0.1, 4.0 / 3.0, 2.0)])  # two window-2 pieces
    def test_quantum_marginal_is_evolved_wigner(self, monkeypatch, h,
                                                exponent, tau2):
        # the derived Wigner field against evolving the Wigner field, and
        # to roundoff against the Moyal phase of the classical t3 field: it
        # phases the spectrum the evolve carried, not the rfft of the field
        # (at D = 0 evolve moves the t2 Wigner field to t3's frame)
        D = 0.0 if math.isnan(exponent) else h ** exponent
        cfg = RunConfig(h_list=(h,), tau2=tau2, **FAST)
        quantum = []

        def marginal(field):
            md = momentum_marginal(field)
            if field.kind == "wigner":
                quantum.append(md)
            return md

        monkeypatch.setattr(sweep, "momentum_marginal", marginal)
        run_point(h, D, exponent, cfg)
        sch, grid, params, evc = point_setup(h, D, cfg)
        f0 = initial_coherent_field(params, grid, "wigner")
        want = momentum_marginal(evolver.evolve(f0, sch, params, evc).final)
        assert len(quantum) == 1
        assert l1_distance(quantum[0], want) <= 1e-13
        f0 = initial_coherent_field(params, grid, "classical")
        res = evolver.evolve(f0, sch, params, evc)
        derived = momentum_marginal(evolver._moyal(
            res.final, np.fft.rfft(res.final.values, axis=1), sch, params,
            res.checkpoints[2].a))
        np.testing.assert_array_equal(quantum[0].p, derived.p)
        assert np.abs(quantum[0].q - derived.q).max() \
            <= 1e-13 * np.abs(derived.q).max()

    def test_derived_wigner_guard_fires(self, monkeypatch):
        # a momentum-edge limit between the classical and the Wigner
        # readings must stop the point at the derived Wigner field
        cfg = RunConfig(h_list=(0.2,), **FAST)
        sch, grid, params, evc = point_setup(0.2, 0.0, cfg)

        def v_edge(kind):
            f0 = initial_coherent_field(params, grid, kind)
            diag = evolver.evolve(f0, sch, params, evc).diagnostics
            return max(d["v_edge"] for d in diag.values())

        classical, wigner = v_edge("classical"), v_edge("wigner")
        assert classical < wigner
        monkeypatch.setattr(evolver, "_V_EDGE_TOL",
                            math.sqrt(classical * wigner))
        with pytest.raises(SolverFailureError,
                           match="momentum-edge mass .* at t2"):
            run_point(0.2, 0.0, math.nan, cfg)

    def test_corner_wraparound_guard_fires(self):
        # lambda = 20 at h = 0.2 outgrows the default grid's corners
        # (Direction 3 sizes the grid from the state instead)
        with pytest.raises(SolverFailureError,
                           match="corner mass .* at t2 indicates wraparound"):
            run_point(0.2, 20 * 0.2 ** (4.0 / 3.0), math.nan,
                      RunConfig(h_list=(0.2,)))

    @pytest.mark.parametrize("D, guards, phases",
                             [(0.0, 3, 1), (0.2 ** (4.0 / 3.0), 6, 2)],
                             ids=["closed", "diffusive"])
    def test_guard_and_moyal_passes(self, monkeypatch, D, guards, phases):
        # at D = 0 windows 1 and 3 keep the values array: t1 and t3 reuse
        # the readings, and the t3 Wigner field is the t2 one
        counts = {"guards": 0, "phases": 0}
        check_field, moyal = evolver._check_field, evolver._moyal

        def counted_guard(*args):
            counts["guards"] += 1
            return check_field(*args)

        def counted_phase(*args):
            counts["phases"] += 1
            return moyal(*args)

        monkeypatch.setattr(evolver, "_check_field", counted_guard)
        monkeypatch.setattr(evolver, "_moyal", counted_phase)
        run_point(0.2, D, math.nan, RunConfig(h_list=(0.2,), **FAST))
        assert counts == {"guards": guards, "phases": phases}

    @pytest.mark.parametrize("D, want", [
        (0.0, [("wigner", "t2")]),
        (0.2 ** (4.0 / 3.0), [("wigner", "t2"), ("wigner", "t3")])],
        ids=["closed", "diffusive"])
    def test_derived_wigner_guard_labels(self, monkeypatch, D, want):
        # the derived guards run after every classical one
        seen, check_field = [], evolver._check_field

        def recorded(field, mass0, label, u_tail):
            seen.append((field.kind, label))
            return check_field(field, mass0, label, u_tail)

        monkeypatch.setattr(evolver, "_check_field", recorded)
        run_point(0.2, D, math.nan, RunConfig(h_list=(0.2,), **FAST))
        assert seen[-len(want):] == want
        assert all(kind == "classical" for kind, _ in seen[:-len(want)])

    def test_derived_wigner_t3_guard_fires(self, monkeypatch):
        # no global limit isolates this check: at D = h^(4/3) its readings
        # lie below the classical field's own, so the guard itself is made
        # to fail there
        check_field = evolver._check_field

        def failing(field, mass0, label, u_tail):
            if (field.kind, label) == ("wigner", "t3"):
                raise SolverFailureError(f"derived guard at {label}")
            return check_field(field, mass0, label, u_tail)

        monkeypatch.setattr(evolver, "_check_field", failing)
        with pytest.raises(SolverFailureError, match="derived guard at t3"):
            run_point(0.2, 0.2 ** (4.0 / 3.0), 4.0 / 3.0,
                      RunConfig(h_list=(0.2,), **FAST))

    @pytest.mark.parametrize("D, want", [(0.0, 5), (0.2 ** (4.0 / 3.0), 12)],
                             ids=["closed", "diffusive"])
    def test_numpy_transforms_per_point(self, monkeypatch, D, want):
        # each spectrum is transformed once, and the guards read the ones
        # windows 1 and 3 form; a 2-D transform counts as two 1-D ones, and
        # closedform's scipy.fft calls are not counted
        calls = []
        for name, size in (("fft", 1), ("ifft", 1), ("rfft", 1), ("irfft", 1),
                           ("fft2", 2), ("ifft2", 2), ("rfft2", 2),
                           ("irfft2", 2)):
            def counted(*args, _fn=getattr(np.fft, name), _size=size,
                        **kwargs):
                calls.append(_size)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        run_point(0.2, D, math.nan, RunConfig(h_list=(0.2,), **FAST))
        assert sum(calls) == want

    @pytest.mark.parametrize("D", [0.0, 0.2 ** (4.0 / 3.0)])
    def test_measured_l1_matches_point_evaluators(self, monkeypatch, D):
        cfg = RunConfig(h_list=(0.2,), **FAST)
        grid = run_point(0.2, D, math.nan, cfg)
        monkeypatch.setattr(sweep, "_grid_pdfs", _point_pdfs)
        point = run_point(0.2, D, math.nan, cfg)
        for name in ("measured_quantum_l1", "measured_classical_l1"):
            assert getattr(grid, name) == pytest.approx(
                getattr(point, name), rel=1e-12, abs=1e-14), name

    def test_record_metadata(self, small_records):
        _, records = small_records
        # the strongest-diffusion point gets the widened momentum grid
        assert all(r.grid in ("256x512", "256x1024") for r in records)
        assert records[-1].grid == "256x1024"
        assert all(r.substeps == 60 for r in records)
        assert all(r.wall_time > 0 for r in records)
        # sorted by (h, D)
        ds = [r.D for r in records]
        assert ds == sorted(ds)

    def test_discrepancy_shrinks_with_d(self, small_records):
        _, records = small_records
        by_d = {r.D: r.discrepancy_g0 for r in records}
        ds = sorted(by_d)
        assert by_d[ds[-1]] < by_d[ds[0]]


class TestArtifacts:
    def test_files_and_schema(self, tmp_path, small_records):
        cfg, records = small_records
        cfg = RunConfig(h_list=cfg.h_list, d_rule=cfg.d_rule,
                        out_dir=str(tmp_path), **FAST)
        run_experiment(cfg, max_workers=1)
        assert (tmp_path / "records.csv").exists()
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "bounds.csv").exists()

        with open(tmp_path / "records.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 1 + len(records)

        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["schema"] == "v1"
        assert payload["config"]["grid"] == "256x512"
        assert "wall_time" not in payload["records"][0]
        assert payload["records"][0]["exponent"] is None  # D = 0 row

        with open(tmp_path / "bounds.csv", newline="") as fh:
            brows = list(csv.reader(fh))
        assert brows[0] == ["h", "D", "side", "measured", "bound", "passed"]
        assert all(row[5] == "PASS" for row in brows[1:])

    def test_empty_records_csv_is_header_only(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(path, [])
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_summary_deterministic(self, tmp_path, small_records):
        from qcthreshold.sweep import write_summary_json
        cfg, records = small_records
        write_summary_json(tmp_path / "a.json", cfg, records)
        write_summary_json(tmp_path / "b.json", cfg, records)
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()


class TestCrossing:
    def test_interpolates_between_points(self, small_records):
        cfg, records = small_records
        est = crossing_estimates(records, cfg.tau2)
        assert set(est) == {0.2}
        d_star = est[0.2]
        # the crossing must sit inside the swept D range
        ds = sorted(r.D for r in records if r.D > 0)
        assert ds[0] < d_star < ds[-1]

    @pytest.mark.parametrize("tau2, bracket", [(1.0, (0.02, 0.04)),
                                               (2.0, (0.01, 0.02))])
    def test_threshold_follows_tau2(self, tmp_path, tau2, bracket):
        # c0/2 is 0.0321 at tau2 = 1 and 0.0405 at tau2 = 2, so the
        # synthetic discrepancies cross them in different D intervals
        records = _synthetic_records(0.1, ((0.01, 0.06), (0.02, 0.038),
                                           (0.04, 0.025), (0.08, 0.01)))
        assert bracket[0] < crossing_estimates(records, tau2)[0.1] \
            < bracket[1]
        cfg = RunConfig(h_list=(0.1,), tau2=tau2, out_dir=str(tmp_path))
        write_artifacts(cfg, records)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert bracket[0] < summary["crossings"]["0.1"] < bracket[1]

    def test_no_estimate_without_a_bracketing_pair(self):
        # c0/2 is 0.0321 at tau2 = 1: both points of the first h lie below
        # it, both of the second above, so neither pair brackets it and
        # nothing may be extrapolated past the swept D; the third h's first
        # pair brackets it and its estimate is unchanged by the points below
        records = (_synthetic_records(0.2, ((0.117, 0.0154), (0.2, 0.008)))
                   + _synthetic_records(0.1, ((0.01, 0.06), (0.02, 0.04)))
                   + _synthetic_records(0.05, ((0.01, 0.06), (0.02, 0.02),
                                               (0.04, 0.01))))
        est = crossing_estimates(records, 1.0)
        assert math.isnan(est[0.2]) and math.isnan(est[0.1])
        assert est[0.05] == crossing_estimates(records[4:6], 1.0)[0.05]
        assert 0.01 < est[0.05] < 0.02

    def test_missing_crossing_is_json_null(self, tmp_path):
        # both discrepancies lie above c0/2 = 0.0321: no crossing at h = 0.2
        records = _synthetic_records(0.2, ((0.117, 0.06), (0.2, 0.04)))
        write_artifacts(RunConfig(h_list=(0.2,), out_dir=str(tmp_path)),
                        records)

        def reject(name):
            raise ValueError(f"summary.json holds {name}")

        summary = json.loads((tmp_path / "summary.json").read_text(),
                             parse_constant=reject)
        assert summary["crossings"] == {"0.2": None}


class TestFiguresAndTables:
    def test_observable_table_values(self):
        table = observable_table()
        assert table[0][0] == 0
        assert abs(table[0][1] - table[0][2]) == \
            pytest.approx(constants(1.0).c0, abs=1e-4)
        # odd-n entries stay finite and ordered by index
        assert [row[0] for row in table] == list(range(9))

    @pytest.mark.parametrize("tau2", [0.5, 1.0, 2.0, 4.0])
    def test_observable_table_matches_point_evaluators(self, monkeypatch,
                                                       tau2):
        table = observable_table(tau2)
        monkeypatch.setattr(sweep, "_grid_pdfs", _point_pdfs)
        for row, ref in zip(table, observable_table(tau2)):
            assert row[0] == ref[0]
            for got, want in zip(row[1:], ref[1:]):
                assert got == pytest.approx(want, rel=1e-13, abs=0.0), row[0]

    def test_emit_figures(self, tmp_path):
        data = emit_figures(str(tmp_path))
        for name in ("fig2.svg", "fig3.svg", "fig3.csv"):
            assert (tmp_path / name).exists()
        p, q, c = data["fig2"]
        assert len(p) == len(q) == len(c)
        assert float(np.max(q)) > 0.2 and float(np.max(c)) > 0.2
        text = (tmp_path / "fig2.svg").read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    def test_figures_deterministic(self, tmp_path):
        emit_figures(str(tmp_path / "a"))
        emit_figures(str(tmp_path / "b"))
        assert (tmp_path / "a" / "fig2.svg").read_bytes() == \
            (tmp_path / "b" / "fig2.svg").read_bytes()
        assert (tmp_path / "a" / "fig3.csv").read_bytes() == \
            (tmp_path / "b" / "fig3.csv").read_bytes()
