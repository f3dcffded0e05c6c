"""Sweep harness tests on small, fast configurations."""

import csv
import json
import math
import os

import numpy as np
import pytest

from qcthreshold import closedform, evolver, sweep
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

    def test_constants_computed_once_before_the_workers_fork(
            self, monkeypatch, tmp_path):
        # each line of the log is one sweep point or one constants() cache
        # miss, with the process that ran it
        log = tmp_path / "log"

        def spy(kind, fn):
            def wrapped(*args, **kwargs):
                with open(log, "a") as fh:
                    fh.write(f"{kind} {os.getpid()}\n")
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(sweep, "run_point", spy("point", run_point))
        monkeypatch.setattr(closedform, "_standard_grid",
                            spy("miss", closedform._standard_grid))
        constants.cache_clear()
        cfg = RunConfig(h_list=(0.2,), d_rule=("absolute", (0.01, 0.02)),
                        **FAST)
        run_experiment(cfg, max_workers=2)
        lines = [line.split() for line in log.read_text().splitlines()]
        points = {pid for kind, pid in lines if kind == "point"}
        misses = [pid for kind, pid in lines if kind == "miss"]
        assert points and str(os.getpid()) not in points
        assert misses == [str(os.getpid())]


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
            res.checkpoints[2].frame.a))
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

    @pytest.mark.parametrize("D, guards, phases",
                             [(0.0, 3, 1), (0.2 ** (4.0 / 3.0), 6, 2)],
                             ids=["closed", "diffusive"])
    def test_guard_and_moyal_passes(self, monkeypatch, D, guards, phases):
        # at D = 0 windows 1 and 3 keep the values array: t1 and t3 reuse
        # the readings, and the t3 Wigner field is the t2 one
        counts = {"guards": 0, "phases": 0}
        edge_metrics, moyal = evolver._edge_metrics, evolver._moyal

        def counted_guard(field):
            counts["guards"] += 1
            return edge_metrics(field)

        def counted_phase(*args):
            counts["phases"] += 1
            return moyal(*args)

        monkeypatch.setattr(evolver, "_edge_metrics", counted_guard)
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

        def recorded(field, mass0, label):
            seen.append((field.kind, label))
            return check_field(field, mass0, label)

        monkeypatch.setattr(evolver, "_check_field", recorded)
        run_point(0.2, D, math.nan, RunConfig(h_list=(0.2,), **FAST))
        assert seen[-len(want):] == want
        assert all(kind == "classical" for kind, _ in seen[:-len(want)])

    def test_derived_wigner_t3_guard_fires(self, monkeypatch):
        # no global limit isolates this check: at D = h^(4/3) its readings
        # lie below the classical field's own, so the guard itself is made
        # to fail there
        check_field = evolver._check_field

        def failing(field, mass0, label):
            if (field.kind, label) == ("wigner", "t3"):
                raise SolverFailureError(f"derived guard at {label}")
            return check_field(field, mass0, label)

        monkeypatch.setattr(evolver, "_check_field", failing)
        with pytest.raises(SolverFailureError, match="derived guard at t3"):
            run_point(0.2, 0.2 ** (4.0 / 3.0), 4.0 / 3.0,
                      RunConfig(h_list=(0.2,), **FAST))

    @pytest.mark.parametrize("D, want", [(0.0, 6), (0.2 ** (4.0 / 3.0), 18)],
                             ids=["closed", "diffusive"])
    def test_numpy_transforms_per_point(self, monkeypatch, D, want):
        # each spectrum is transformed once; a 2-D transform counts as two
        # 1-D ones, and closedform's scipy.fft calls are not counted
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
