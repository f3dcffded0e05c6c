"""Spectral evolver tests.

The solver should be essentially exact at D = 0 (every operation is an
exact multiplier there), so the main checks compare checkpoint moments
and final marginals against the analytic predictions, then exercise the
diffusive and diagnostic paths.
"""

import math

import numpy as np
import pytest

from qcthreshold.closedform import (
    classical_momentum_pdf,
    predicted_moments,
    quantum_momentum_pdf,
)
from qcthreshold.core import (
    GridSpec,
    SemiclassicalParams,
    initial_coherent_field,
    l1_distance,
    measure_central_moments,
    momentum_marginal,
    position_marginal,
    standard_schedule,
)
from qcthreshold.errors import (
    InvalidParameterError,
    ResolutionError,
    SolverFailureError,
)
from qcthreshold.evolver import (
    _U_TAIL_TOL,
    ConvergenceReport,
    EvolverConfig,
    _integrated_diffusion,
    _kick_window,
    _stretch_window,
    convergence_check,
    cubic_kick_substep,
    diffusion_substep,
    evolve,
)

H = 0.05
SCH = standard_schedule(H)
# 5-point Gauss-Legendre nodes and weights on [0, 1]
_GL_X = (np.polynomial.legendre.leggauss(5)[0] + 1.0) / 2.0
_GL_W = np.polynomial.legendre.leggauss(5)[1] / 2.0


def _initial(kind, D=0.0, grid=None):
    params = SemiclassicalParams(hbar=2 * H, D=D)
    return initial_coherent_field(params, grid or GridSpec.for_h(H), kind), \
        params


def _composed_kick_window(field, params, n, order, kappa):
    """Window 2 as a loop of the public substeps: n kicks, Lie- or
    Strang-split against diffusion when D > 0."""
    start, tau = SCH.window(2)
    edges = [start + tau * j / n for j in range(n + 1)]
    deltas = [SCH.bump_integral(2, edges[j], edges[j + 1]) for j in range(n)]
    dt = tau / n
    if params.D > 0.0 and order == 2:
        field = diffusion_substep(field, params, dt / 2.0)
    for j, d in enumerate(deltas):
        field = cubic_kick_substep(field, d, params, kappa)
        if params.D > 0.0:
            last_half = order == 2 and j == n - 1
            field = diffusion_substep(field, params,
                                      dt / 2.0 if last_half else dt)
    return field


def _rel_max_abs(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.fixture(scope="module")
def closed_runs():
    out = {}
    for kind in ("wigner", "classical"):
        field, params = _initial(kind)
        out[kind] = evolve(field, SCH, params)
    return out


class TestClosedEvolution:
    @pytest.mark.parametrize("kind", ["wigner", "classical"])
    def test_final_marginal_matches_closed_form(self, closed_runs, kind):
        md = momentum_marginal(closed_runs[kind].final)
        if kind == "wigner":
            ref = quantum_momentum_pdf(md.p, SCH.tau1, SCH.tau2, SCH.tau3, H)
        else:
            ref = classical_momentum_pdf(md.p, SCH.tau1, SCH.tau2, SCH.tau3, H)
        assert float(np.abs(md.q - ref).sum() * md.dp) < 1e-9

    @pytest.mark.parametrize("kind", ["wigner", "classical"])
    @pytest.mark.parametrize("cp", [0, 1, 2, 3])
    def test_checkpoint_moments(self, closed_runs, kind, cp):
        m = measure_central_moments(closed_runs[kind].checkpoints[cp])
        ref = predicted_moments(cp, SCH.tau1, SCH.tau2, SCH.tau3, H, kind=kind)
        for name in ("mean_x", "mean_p", "var_x", "var_p", "m3_p",
                     "m4_x", "m4_p"):
            got, want = getattr(m, name), getattr(ref, name)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-9), (name, cp)

    def test_third_moment_separates_kinds(self, closed_runs):
        mq = measure_central_moments(closed_runs["wigner"].checkpoints[2])
        mc = measure_central_moments(closed_runs["classical"].checkpoints[2])
        assert mc.m3_p - mq.m3_p == pytest.approx(2 * SCH.tau2 * H * H,
                                                  rel=1e-5)

    def test_mass_conserved(self, closed_runs):
        for kind in ("wigner", "classical"):
            diag = closed_runs[kind].diagnostics
            for label in ("t0", "t1", "t2", "t3"):
                assert diag[label]["mass"] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("kind", ["wigner", "classical"])
    def test_one_kick_matches_substep_loop(self, closed_runs, kind):
        # at D = 0 the window's kick multipliers commute, so one kick by the
        # whole bump integral replaces the 200-substep loop
        t1 = closed_runs[kind].checkpoints[1]
        params = SemiclassicalParams(hbar=2 * H)
        kappa = 1 if kind == "wigner" else 0
        got, substeps = _kick_window(t1, SCH, params, EvolverConfig(), kappa)
        ref = _composed_kick_window(t1, params, 200, 2, kappa)
        assert substeps == 1
        assert closed_runs[kind].diagnostics["t2"]["kick_substeps"] == 1
        assert _rel_max_abs(got.values, ref.values) <= 1e-12

    def test_x_marginals_agree_across_kinds(self, closed_runs):
        # the quantum correction only acts on the momentum direction
        xq = position_marginal(closed_runs["wigner"].final)
        xc = position_marginal(closed_runs["classical"].final)
        assert float(np.abs(xq.q - xc.q).sum() * xq.dp) < 1e-6


class TestSubsteps:
    def test_kick_translates_columns(self):
        # kappa = 0: each x-column shifts in p by delta * x^2
        field, params = _initial("classical")
        delta = 0.05
        kicked = cubic_kick_substep(field, delta, params, kappa=0)
        x2 = (field.frame.s_x * field.u) ** 2
        mass = field.values.sum(axis=1) * field.dv
        keep = mass > 1e-6  # columns with enough mass for a stable mean
        mean0 = (field.values * field.v).sum(axis=1) * field.dv / mass
        mean1 = (kicked.values * field.v).sum(axis=1) * field.dv / mass
        shift = delta * x2 / field.frame.s_p  # frame momentum units
        assert np.abs((mean1 - mean0 - shift)[keep]).max() < 1e-9

    def test_kick_linearity(self):
        field, params = _initial("wigner")
        a = cubic_kick_substep(field, 0.03, params, 1)
        b = cubic_kick_substep(field.with_values(2.0 * field.values),
                               0.03, params, 1)
        assert np.abs(b.values - 2.0 * a.values).max() < 1e-12

    def test_kick_zero_delta_is_identity(self):
        field, params = _initial("classical")
        assert cubic_kick_substep(field, 0.0, params, 0) is field

    def test_diffusion_is_heat_kernel(self):
        # after time t a Gaussian stays Gaussian with variance + D t
        D, t = 0.01, 0.3
        field, params = _initial("classical", D=D)
        m0 = measure_central_moments(field)
        out = diffusion_substep(field, params, t)
        m1 = measure_central_moments(out)
        assert m1.var_x == pytest.approx(m0.var_x + D * t, rel=1e-9)
        assert m1.var_p == pytest.approx(m0.var_p + D * t, rel=1e-9)
        assert out.mass() == pytest.approx(1.0, abs=1e-10)

    def test_stretch_window_matches_node_loop(self):
        # the Gauss-Legendre frame integrals, one bump_integral per node
        D = 0.1 * H ** (4.0 / 3.0)
        field, params = _initial("classical", D=D)
        cfg = EvolverConfig(substeps_per_unit=200)
        start, tau = SCH.window(1)
        n = int(math.ceil(cfg.substeps_per_unit * tau))
        dt = tau / n
        I_u = I_v = 0.0
        for j in range(n):
            t_nodes = start + tau * j / n + dt * _GL_X
            a_nodes = np.array([SCH.bump_integral(1, start, t)
                                for t in t_nodes])
            I_u += dt * float((_GL_W * np.exp(-2.0 * a_nodes)).sum())
            I_v += dt * float((_GL_W * np.exp(2.0 * a_nodes)).sum())
        moved = field.with_frame(field.frame.shifted(
            SCH.bump_integral(1, start, start + tau)))
        ref = _integrated_diffusion(moved, params, I_u, I_v)
        got = _stretch_window(field, SCH, 1, +1.0, params, cfg)
        assert got.frame == ref.frame
        assert _rel_max_abs(got.values, ref.values) <= 1e-13

    def test_x_parity_preserved(self):
        # the full dynamics commutes with p -> p reflection of x: initial
        # state is even in x, and every generator is even in x
        field, params = _initial("classical")
        result = evolve(field, SCH, params)
        vals = result.final.values
        # the endpoint=False axis pairs u_j with u_{-j mod n}, hence the roll
        mirrored = np.roll(vals[::-1], 1, axis=0)
        assert np.abs(vals - mirrored).max() < 1e-10 * np.abs(vals).max()


class TestDiffusiveEvolution:
    def test_small_d_stays_near_closed(self, closed_runs):
        D = 0.01 * H ** (4.0 / 3.0)
        field, params = _initial("classical", D=D)
        result = evolve(field, SCH, params)
        assert result.diagnostics["t2"]["kick_substeps"] == 200
        md = momentum_marginal(result.final)
        md0 = momentum_marginal(closed_runs["classical"].final)
        dist = l1_distance(md, md0)
        assert 0.0 < dist < 0.02

    @pytest.mark.parametrize("order", [1, 2])
    def test_window_matches_substep_composition(self, order):
        # the (u, k_v) window against the public substeps it replaces
        D = 0.1 * H ** (4.0 / 3.0)
        field, params = _initial("wigner", D=D)
        cfg = EvolverConfig(substeps_per_unit=25, splitting_order=order)
        t1 = _stretch_window(field, SCH, 1, +1.0, params, cfg)
        got, substeps = _kick_window(t1, SCH, params, cfg, kappa=1)
        ref = _composed_kick_window(t1, params, 25, order, kappa=1)
        assert substeps == 25
        assert _rel_max_abs(got.values, ref.values) <= 1e-12

    def test_strang_beats_lie(self):
        D = 0.1 * H ** (4.0 / 3.0)
        field, params = _initial("wigner", D=D)
        fine = evolve(field, SCH, params,
                      EvolverConfig(substeps_per_unit=400)).final
        ref = momentum_marginal(fine)
        err = {}
        for order in (1, 2):
            cfg = EvolverConfig(substeps_per_unit=25, splitting_order=order)
            got = momentum_marginal(evolve(field, SCH, params, cfg).final)
            err[order] = l1_distance(got, ref)
        assert err[2] < err[1]

    def test_convergence_check(self):
        D = 0.1 * H ** (4.0 / 3.0)
        field, params = _initial("classical", D=D)
        report = convergence_check(field, SCH, params,
                                   EvolverConfig(substeps_per_unit=50))
        assert isinstance(report, ConvergenceReport)
        assert report.passed
        assert report.refined_substeps == 100


class TestGuards:
    def test_invalid_config(self):
        with pytest.raises(InvalidParameterError):
            EvolverConfig(substeps_per_unit=0)
        with pytest.raises(InvalidParameterError):
            EvolverConfig(splitting_order=3)

    def test_unnormalized_input_rejected(self):
        field, params = _initial("classical")
        bad = field.with_values(1.5 * field.values)
        with pytest.raises(InvalidParameterError):
            evolve(bad, SCH, params)

    def test_coarse_grid_raises_resolution_error(self):
        grid = GridSpec.for_h(H, n_u=256, n_v=256, widths_u=16.0,
                              widths_v=64.0)
        # both window-2 paths check the momentum tail before each kick
        for D in (0.0, 0.01 * H ** (4.0 / 3.0)):
            field, params = _initial("classical", D=D, grid=grid)
            with pytest.raises(ResolutionError, match="momentum spectral tail"):
                evolve(field, SCH, params)

    def test_coarse_position_axis_raises_resolution_error(self):
        # the kick folds each momentum row, sharpening the state along u
        grid = GridSpec.for_h(H, n_u=128)
        field, params = _initial("classical", grid=grid)
        with pytest.raises(ResolutionError, match="position spectral tail"):
            evolve(field, SCH, params)

    def test_position_guard_silent_on_fast_grid(self):
        # the 256x512 grid of the fast sweep and CLI tests
        h = 0.2
        params = SemiclassicalParams(hbar=2 * h)
        grid = GridSpec.for_h(h, n_u=256, n_v=512)
        field = initial_coherent_field(params, grid, "classical")
        diag = evolve(field, standard_schedule(h), params,
                      EvolverConfig(substeps_per_unit=60)).diagnostics
        tails = [diag[label]["u_tail"] for label in ("t0", "t1", "t2", "t3")]
        assert max(tails) == diag["t2"]["u_tail"]
        assert 0.0 < diag["t2"]["u_tail"] < _U_TAIL_TOL

    def test_undersized_momentum_extent_raises(self):
        # the kicked density needs lab momenta far beyond 16 sqrt(h); a
        # narrow box wraps around and trips the momentum-edge diagnostic
        grid = GridSpec.for_h(H, n_v=256, widths_v=16.0)
        field, params = _initial("classical", grid=grid)
        with pytest.raises(SolverFailureError):
            evolve(field, SCH, params)
