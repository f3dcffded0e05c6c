"""Spectral evolver tests.

The solver should be essentially exact at D = 0 (every operation is an
exact multiplier there), so the main checks compare checkpoint moments
and final marginals against the analytic predictions, then exercise the
diffusive and diagnostic paths.
"""

import math
from dataclasses import replace

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
from qcthreshold import evolver
from qcthreshold.evolver import (
    _U_TAIL_TOL,
    EvolverConfig,
    _integrated_diffusion,
    _kick_window,
    _stretch_window,
    _window_matrices,
    cubic_kick_substep,
    diffusion_substep,
    evolve,
    moyal_phase,
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


def _quantum_substep(field, delta, h):
    """The Moyal term over bump weight delta: the momentum multiplier
    exp(-i (h^2/3) k^3 delta) at the field's own frame."""
    k = 2.0 * math.pi * np.fft.rfftfreq(len(field.v), d=field.dv) \
        / field.frame.s_p
    spec = np.fft.rfft(field.values, axis=1)
    spec *= np.exp(-1j * (h ** 2 / 3.0) * k ** 3 * delta)
    return field.with_values(np.fft.irfft(spec, n=len(field.v), axis=1))


def _composed_kick_window(field, params, n, schedule=SCH):
    """Window 2 as a loop of substeps: n kicks, each followed by its
    quantum phase on a Wigner field, Strang-split against diffusion when
    D > 0."""
    start, tau = schedule.window(2)
    edges = [start + tau * j / n for j in range(n + 1)]
    deltas = [schedule.bump_integral(2, edges[j], edges[j + 1])
              for j in range(n)]
    dt = tau / n
    if params.D > 0.0:
        field = diffusion_substep(field, params, dt / 2.0)
    for j, d in enumerate(deltas):
        field = cubic_kick_substep(field, d)
        if field.kind == "wigner":
            field = _quantum_substep(field, d, params.h)
        if params.D > 0.0:
            field = diffusion_substep(field, params,
                                      dt / 2.0 if j == n - 1 else dt)
    return field


def _exact_kick_window(t1, schedule, params):
    """The evolver's window 2: the classical kick, then on a Wigner field
    its Moyal phase in one shot."""
    got, info = _kick_window(t1, schedule, params)
    if got.kind == "wigner":
        got = moyal_phase(got, schedule, params, t1.frame.a)
    return got, info


def _strang_errors(h, D, schedule, kind):
    """L1 distance at t2 between the momentum marginals of the exact
    window and of 200 and 400 Strang substeps per unit time, on the
    256x512 grid; also returns the window's diagnostics."""
    params = SemiclassicalParams(hbar=2 * h, D=D)
    grid = GridSpec.for_h(h, n_u=256, n_v=512)
    field = initial_coherent_field(params, grid, kind)
    t1 = _stretch_window(field, schedule, 1, +1.0, params, EvolverConfig())
    got, info = _exact_kick_window(t1, schedule, params)
    md = momentum_marginal(got)
    errs = [l1_distance(md, momentum_marginal(_composed_kick_window(
        t1, params, round(per_unit * schedule.tau2), schedule)))
        for per_unit in (200, 400)]
    return errs, info


def _window_inputs(D):
    """The kept columns kx and the diffusion rate d that _window_factors
    hands to _window_matrices at t1 on the 256x512 grid."""
    field, params = _initial("classical", D=D,
                             grid=GridSpec.for_h(H, n_u=256, n_v=512))
    t1 = _stretch_window(field, SCH, 1, +1.0, params, EvolverConfig())
    kv = 2.0 * math.pi * np.fft.rfftfreq(len(t1.v), d=t1.dv)
    a, frame = t1.frame.a, t1.frame
    keep = (D / 2.0) * math.exp(2.0 * a) * SCH.tau2 * kv ** 2 \
        < evolver._DAMP_CUT
    return kv[keep] / frame.s_p * frame.s_x ** 2, \
        (D / 2.0) * math.exp(-2.0 * a)


def _tau2_two_window_input():
    """(t1 field, schedule, params) at h = 0.1, D = h^(4/3), tau2 = 2, on
    the 256x512 grid: a window that needs two pieces."""
    h = 0.1
    sch = replace(standard_schedule(h), tau2=2.0)
    params = SemiclassicalParams(hbar=2 * h, D=h ** (4.0 / 3.0))
    field = initial_coherent_field(
        params, GridSpec.for_h(h, n_u=256, n_v=512), "classical")
    return _stretch_window(field, sch, 1, +1.0, params, EvolverConfig()), \
        sch, params


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
        got, info = _exact_kick_window(t1, SCH, params)
        ref = _composed_kick_window(t1, params, 200)
        assert info["kick_substeps"] == 1
        assert closed_runs[kind].diagnostics["t2"]["kick_substeps"] == 1
        assert _rel_max_abs(got.values, ref.values) <= 1e-12

    def test_x_marginals_agree_across_kinds(self, closed_runs):
        # the quantum correction only acts on the momentum direction
        xq = position_marginal(closed_runs["wigner"].final)
        xc = position_marginal(closed_runs["classical"].final)
        assert float(np.abs(xq.q - xc.q).sum() * xq.dp) < 1e-6


class TestSubsteps:
    def test_kick_translates_columns(self):
        # each x-column shifts in p by delta * x^2
        field, _ = _initial("classical")
        delta = 0.05
        kicked = cubic_kick_substep(field, delta)
        x2 = (field.frame.s_x * field.u) ** 2
        mass = field.values.sum(axis=1) * field.dv
        keep = mass > 1e-6  # columns with enough mass for a stable mean
        mean0 = (field.values * field.v).sum(axis=1) * field.dv / mass
        mean1 = (kicked.values * field.v).sum(axis=1) * field.dv / mass
        shift = delta * x2 / field.frame.s_p  # frame momentum units
        assert np.abs((mean1 - mean0 - shift)[keep]).max() < 1e-9

    def test_kick_linearity(self):
        field, params = _initial("wigner")

        def kick(f):
            return moyal_phase(cubic_kick_substep(f, 0.03), SCH, params, 0.0)

        a = kick(field)
        b = kick(field.with_values(2.0 * field.values))
        assert np.abs(b.values - 2.0 * a.values).max() < 1e-12

    def test_kick_zero_delta_is_identity(self):
        field, _ = _initial("classical")
        assert cubic_kick_substep(field, 0.0) is field

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
        assert result.diagnostics["t2"]["kick_substeps"] == 1
        md = momentum_marginal(result.final)
        md0 = momentum_marginal(closed_runs["classical"].final)
        dist = l1_distance(md, md0)
        assert 0.0 < dist < 0.02

    @pytest.mark.parametrize("pieces", [1, 2])
    def test_window_matches_substep_composition(self, pieces):
        # the exact window against the public substeps it replaces: Strang's
        # error is second order, so it must fall about fourfold when the
        # substeps double. At tau2 = 2 one piece would have a growing heat
        # factor, so the window is cut into two exact pieces.
        if pieces == 1:
            (e200, e400), info = _strang_errors(H, H ** (4.0 / 3.0), SCH,
                                                "wigner")
            assert info["window_det_defect"] <= 1e-10
            assert info["window_rhs_evals"] > 0
        else:
            h = 0.1
            sch = replace(standard_schedule(h), tau2=2.0)
            (e200, e400), info = _strang_errors(h, h ** (4.0 / 3.0), sch,
                                                "classical")
        assert info["kick_substeps"] == pieces
        assert 3.0 <= e200 / e400 <= 5.0
        assert e400 <= 1e-8

    @pytest.mark.parametrize("D", [1e-8, H ** (4.0 / 3.0), H])
    def test_window_matrices_unimodular(self, D):
        # M' = A(t) M with A traceless, so det M = 1 for every column
        kx, d = _window_inputs(D)
        E, _ = _window_matrices(SCH, kx, d, 1)
        det = (1.0 + E[:, 0]) * (1.0 + E[:, 3]) - E[:, 1] * E[:, 2]
        assert np.abs(det - 1.0).max() <= 1e-10

    @pytest.mark.parametrize("D", [1e-8, H ** (4.0 / 3.0), H])
    def test_window_matrices_converged(self, monkeypatch, D):
        # against a solve with a 100x tighter relative tolerance
        kx, d = _window_inputs(D)
        got, _ = _window_matrices(SCH, kx, d, 1)
        monkeypatch.setattr(evolver, "_WINDOW_RTOL",
                            evolver._WINDOW_RTOL / 100.0)
        ref, _ = _window_matrices(SCH, kx, d, 1)
        scale = np.abs(ref + np.array([1.0, 0.0, 0.0, 1.0])[:, None])
        err = np.abs(got - ref).max(axis=1) / scale.max(axis=1)
        assert err.max() <= 1e-10

    def test_window_matrices_without_diffusion_are_the_kick(self):
        # at d = 0 the window is the exact kick p -> p + delta x^2, whose
        # matrix for the column kx is [[1, 0], [-2 kx delta, 1]]
        kx, _ = _window_inputs(H ** (4.0 / 3.0))
        E, _ = _window_matrices(SCH, kx, 0.0, 1)
        start, tau = SCH.window(2)
        kick = -2.0 * kx * SCH.bump_integral(2, start, start + tau)
        assert np.abs(E[0, 2] - kick).max() <= 1e-10 * np.abs(kick).max()
        assert not E[0, [0, 1, 3]].any()

    def test_zeroed_columns_below_roundoff(self):
        # a dropped k_v column's output is at most its input times its
        # damping, since the rest of its propagator is a contraction
        D = H
        grid = GridSpec.for_h(H, n_u=256, n_v=512)
        field, params = _initial("classical", D=D, grid=grid)
        t1 = _stretch_window(field, SCH, 1, +1.0, params, EvolverConfig())
        _, info = _kick_window(t1, SCH, params)
        spec = np.abs(np.fft.rfft(t1.values, axis=1))
        kv = 2.0 * math.pi * np.fft.rfftfreq(len(t1.v), d=t1.dv)
        damp = np.exp(-(D / 2.0) * math.exp(2.0 * t1.frame.a) * SCH.tau2
                      * kv ** 2)
        kept = info["kept_columns"]
        assert 0 < kept < len(kv)
        dropped = (spec[:, kept:] * damp[kept:]).sum() / spec.sum()
        assert dropped < 1e-20

    def test_convergence_check(self):
        # doubling the stretch-window panels moves the final marginal by
        # less than 1e-4
        D = 0.1 * H ** (4.0 / 3.0)
        field, params = _initial("classical", D=D)
        coarse, fine = (
            momentum_marginal(evolve(field, SCH, params, EvolverConfig(
                substeps_per_unit=n)).final) for n in (50, 100))
        assert l1_distance(coarse, fine) < 1e-4


class TestGuards:
    def test_invalid_config(self):
        with pytest.raises(InvalidParameterError):
            EvolverConfig(substeps_per_unit=0)

    @pytest.mark.parametrize("cap, match", [("_MAX_PIECES", "still grows")])
    def test_window_caps_raise(self, monkeypatch, cap, match):
        # tau2 = 2 needs two pieces
        t1, sch, params = _tau2_two_window_input()
        monkeypatch.setattr(evolver, cap, 1)
        with pytest.raises(SolverFailureError, match=match):
            _kick_window(t1, sch, params)

    @pytest.mark.filterwarnings("ignore:dop853")
    def test_failed_integration_raises(self):
        # a NaN rate makes every error estimate NaN, so DOP853 rejects
        # every step and stops with a negative return code
        kx, _ = _window_inputs(H ** (4.0 / 3.0))
        with pytest.raises(SolverFailureError, match=r"return code -\d"):
            _window_matrices(SCH, kx, math.nan, 1)

    def test_unnormalized_input_rejected(self):
        field, params = _initial("classical")
        bad = field.with_values(1.5 * field.values)
        with pytest.raises(InvalidParameterError):
            evolve(bad, SCH, params)

    def test_coarse_grid_raises_resolution_error(self):
        grid = GridSpec.for_h(H, n_u=256, n_v=256, widths_u=16.0,
                              widths_v=64.0)
        # both window-2 paths check the momentum tail on the window's input
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
