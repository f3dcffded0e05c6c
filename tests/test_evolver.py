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
from scipy import integrate

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
    resample_distribution,
    standard_schedule,
)
from qcthreshold.errors import (
    InvalidParameterError,
    ResolutionError,
    SolverFailureError,
)
from qcthreshold import core, evolver
from qcthreshold.evolver import (
    _DAMP_CUT,
    _EDGE_TOL,
    _GROWTH_TOL,
    _U_TAIL_TOL,
    _V_EDGE_TOL,
    EvolverConfig,
    _integrated_diffusion,
    _kick_window,
    _moyal,
    _stretch_window,
    _window_matrices,
    evolve,
)
from qcthreshold.oracles import (
    DensityMatrixField,
    _coherent_state,
    coherent_wavefunction,
    dm_momentum_marginal,
    lindblad_dm_evolve,
    momentum_distribution,
    schrodinger_closed,
)
from qcthreshold.sweep import RunConfig, point_setup

from bump_reference import GL_W, GL_X, bump_integral

H = 0.05
SCH = standard_schedule(H)


def _initial(kind, D=0.0, grid=None):
    params = SemiclassicalParams(hbar=2 * H, D=D)
    return initial_coherent_field(params, grid or GridSpec.for_h(H), kind), \
        params


def _kv(field):
    return 2.0 * math.pi * np.fft.rfftfreq(len(field.v), d=field.dv)


def _moyal_multiplier(field, delta, h, a):
    """exp(-i (h^2/3) delta k^3) along k_v, k = k_v e^a the lab wavenumber
    at frame log-scale a."""
    k = _kv(field) * math.exp(a)
    return np.exp(-1j * (h ** 2 / 3.0) * delta * k ** 3)


def _composed_kick_window(field, params, n, schedule=SCH):
    """Window 2 as a loop of n substeps built from plain full-grid np.exp
    multipliers, none of them the evolver's: each kick
    exp(-i k_v/s_p (s_x u)^2 delta) on the (u, k_v) spectrum, followed on a
    Wigner field by its Moyal phase, and Strang-split against the heat
    kernel exp(-(D/2)(k_u^2 e^(-2a) + k_v^2 e^(2a)) dt) on the (k_u, k_v)
    spectrum when D > 0. The frame is static in window 2, so the spectrum
    stays in k_v throughout."""
    start, tau = schedule.window(2)
    edges = [start + tau * j / n for j in range(n + 1)]
    deltas = [bump_integral(schedule, 2, edges[j], edges[j + 1])
              for j in range(n)]
    dt, a = tau / n, field.a
    x = field.s_x * field.u
    kick = np.multiply.outer(x * x, _kv(field) / field.s_p)
    ku = 2.0 * math.pi * np.fft.fftfreq(len(field.u), d=field.du)
    rate = -(params.D / 2.0) * np.add.outer(
        ku ** 2 * math.exp(-2.0 * a), _kv(field) ** 2 * math.exp(2.0 * a))
    half, full = np.exp(rate * dt / 2.0), np.exp(rate * dt)

    def diffuse(spec, heat):
        return np.fft.ifft(np.fft.fft(spec, axis=0) * heat, axis=0)

    spec = np.fft.rfft(field.values, axis=1)
    if params.D > 0.0:
        spec = diffuse(spec, half)
    for j, d in enumerate(deltas):
        spec = spec * np.exp(-1j * kick * d)
        if field.kind == "wigner":
            spec = spec * _moyal_multiplier(field, d, params.h, a)
        if params.D > 0.0:
            spec = diffuse(spec, half if j == n - 1 else full)
    return replace(field, values=np.fft.irfft(spec, n=len(field.v), axis=1))


def _exact_kick_window(t1, schedule, params):
    """The evolver's window 2: the classical kick, then on a Wigner field
    its Moyal phase in one shot."""
    got, spec, info = _kick_window(t1, schedule, params)
    if got.kind == "wigner":
        got = evolver._moyal(got, spec, schedule, params, t1.a)
    return got, info


def _strang_errors(h, D, schedule, kind):
    """L1 distance at t2 between the momentum marginals of the exact
    window and of 200 and 400 Strang substeps per unit time, on the
    256x512 grid; also returns the window's diagnostics."""
    params = SemiclassicalParams(hbar=2 * h, D=D)
    grid = GridSpec.for_h(h, n_u=256, n_v=512)
    field = initial_coherent_field(params, grid, kind)
    t1 = _stretch_window(field, schedule, 1, params, EvolverConfig())[0]
    got, info = _exact_kick_window(t1, schedule, params)
    md = momentum_marginal(got)
    errs = [l1_distance(md, momentum_marginal(_composed_kick_window(
        t1, params, round(per_unit * schedule.tau2), schedule)))
        for per_unit in (200, 400)]
    return errs, info


def _window_inputs(D, schedule=SCH):
    """The kept columns kx and the diffusion rate d that _kick_window
    hands to _window_matrices at t1 on the 256x512 grid."""
    field, params = _initial("classical", D=D,
                             grid=GridSpec.for_h(H, n_u=256, n_v=512))
    t1 = _stretch_window(field, schedule, 1, params, EvolverConfig())[0]
    kv = 2.0 * math.pi * np.fft.rfftfreq(len(t1.v), d=t1.dv)
    a = t1.a
    keep = (D / 2.0) * math.exp(2.0 * a) * schedule.tau2 * kv ** 2 \
        < _DAMP_CUT
    return kv[keep] / t1.s_p * t1.s_x ** 2, (D / 2.0) * math.exp(-2.0 * a)


def _dop853_window_matrices(schedule, kx, d, m):
    """Reference for _window_matrices: M - I per piece and column from an
    adaptive solve of E' = A(t)(E + I) from E = 0, all columns at once,
    by scipy's Fortran DOP853 (integrate.ode) at relative tolerance 1e-13,
    with
    A = [[0, -2i d], [-2 chi_2(t) kx, 0]]."""
    start, tau = schedule.window(2)
    b = -2j * d

    def rhs(t, y):
        e = y.view(complex).reshape(4, -1)
        c = -2.0 * schedule.chi(2, t) * kx
        return np.concatenate([b * e[2], b * (e[3] + 1.0),
                               c * (e[0] + 1.0), c * e[1]]).view(float)

    solver = integrate.ode(rhs).set_integrator(
        "dop853", rtol=1e-13, atol=1e-16, nsteps=100_000)
    out = np.empty((m, 4, len(kx)), dtype=complex)
    for j in range(m):
        solver.set_initial_value(np.zeros(8 * len(kx)), start + tau * j / m)
        y = solver.integrate(start + tau * (j + 1) / m)
        assert solver.successful(), solver.get_return_code()
        out[j] = y.view(complex).reshape(4, -1)
    return out


def _window_error(got, ref):
    """Largest entry error of got against ref, per column relative to the
    largest entry of ref's M = ref + I, over all pieces and columns."""
    scale = np.abs(ref + np.array([1.0, 0.0, 0.0, 1.0])[:, None])
    return float((np.abs(got - ref).max(axis=1) / scale.max(axis=1)).max())


# the diffusion rates of the window-2 matrix tests, from far below the
# threshold h^(4/3) to far above it
_WINDOW_DS = [1e-8, H ** (4.0 / 3.0), H, 1.0, 100.0]


def _tau2_two_window_input():
    """(t1 field, schedule, params) at h = 0.1, D = h^(4/3), tau2 = 2, on
    the 256x512 grid: a window that needs two pieces."""
    h = 0.1
    sch = replace(standard_schedule(h), tau2=2.0)
    params = SemiclassicalParams(hbar=2 * h, D=h ** (4.0 / 3.0))
    field = initial_coherent_field(
        params, GridSpec.for_h(h, n_u=256, n_v=512), "classical")
    return _stretch_window(field, sch, 1, params, EvolverConfig())[0], \
        sch, params


def _folded_u_tail(values):
    """The position-tail reading of values from their 2-D (k_u, k_v)
    half-spectrum: magnitudes summed over k_v and binned at |k_u|, and the
    share of the top tenth of the n_u // 2 + 1 bins."""
    n = values.shape[0]
    mags = np.abs(np.fft.rfft2(values)).sum(axis=1)
    bins = np.zeros(n // 2 + 1)
    np.add.at(bins, np.minimum(np.arange(n), n - np.arange(n)), mags)
    tail = math.ceil(0.1 * len(bins))
    return float(bins[-tail:].sum() / bins.sum())


def _ku_v_u_tail(values):
    """The position-tail reading from the 1-D rfft of values along u, the
    (k_u, v) spectrum. _U_TAIL_TOL on the 2-D reading rejects the grids
    that a limit of 1e-4 on this one rejects."""
    mags = np.abs(np.fft.rfft(values, axis=0)).sum(axis=1)
    tail = math.ceil(0.1 * len(mags))
    return float(mags[-tail:].sum() / mags.sum())


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
        # each x-column shifts in p by delta * x^2, delta the window's bump
        # integral
        field, params = _initial("classical")
        start, tau = SCH.window(2)
        delta = bump_integral(SCH, 2, start, start + tau)
        kicked = _kick_window(field, SCH, params)[0]
        x2 = (field.s_x * field.u) ** 2
        mass = field.values.sum(axis=1) * field.dv
        keep = mass > 1e-6  # columns with enough mass for a stable mean
        mean0 = (field.values * field.v).sum(axis=1) * field.dv / mass
        mean1 = (kicked.values * field.v).sum(axis=1) * field.dv / mass
        shift = delta * x2 / field.s_p  # frame momentum units
        assert np.abs((mean1 - mean0 - shift)[keep]).max() < 1e-9

    def test_kick_linearity(self):
        field, params = _initial("wigner")

        def kick(f):
            got, spec, _ = _kick_window(f, SCH, params)
            return evolver._moyal(got, spec, SCH, params, f.a)

        a = kick(field)
        b = kick(replace(field, values=2.0 * field.values))
        assert np.abs(b.values - 2.0 * a.values).max() < 1e-12

    def test_diffusion_is_heat_kernel(self):
        # after time t a Gaussian stays Gaussian with variance + D t
        D, t = 0.01, 0.3
        field, params = _initial("classical", D=D)
        m0 = measure_central_moments(field)
        out = _integrated_diffusion(field, params, t, t)[0]
        m1 = measure_central_moments(out)
        assert m1.var_x == pytest.approx(m0.var_x + D * t, rel=1e-9)
        assert m1.var_p == pytest.approx(m0.var_p + D * t, rel=1e-9)
        assert out.mass() == pytest.approx(1.0, abs=1e-10)

    def test_stretch_window_matches_node_loop(self):
        # Gauss-Legendre frame integrals, one quad bump integral per node
        D = 0.1 * H ** (4.0 / 3.0)
        field, params = _initial("classical", D=D)
        cfg = EvolverConfig(substeps_per_unit=200)
        start, tau = SCH.window(1)
        n = int(math.ceil(cfg.substeps_per_unit * tau))
        dt = tau / n
        I_u = I_v = 0.0
        for j in range(n):
            t_nodes = start + tau * j / n + dt * GL_X
            a_nodes = np.array([bump_integral(SCH, 1, start, t)
                                for t in t_nodes])
            I_u += dt * float((GL_W * np.exp(-2.0 * a_nodes)).sum())
            I_v += dt * float((GL_W * np.exp(2.0 * a_nodes)).sum())
        # the end log-scale is exact: chi_1 integrates to tau1
        moved = replace(field, a=field.a + tau)
        ref = _integrated_diffusion(moved, params, I_u, I_v)[0]
        got = _stretch_window(field, SCH, 1, params, cfg)[0]
        assert got.a == ref.a
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
        # the exact window against an independent Strang composition: its
        # error is second order, so it must fall about fourfold when the
        # substeps double. At tau2 = 2 one piece would have a growing heat
        # factor, so the window is cut into two exact pieces.
        if pieces == 1:
            (e200, e400), info = _strang_errors(H, H ** (4.0 / 3.0), SCH,
                                                "wigner")
            assert info["window_det_defect"] <= 1e-10
            assert info["window_terms"] > 0
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
        assert np.abs(det - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("D", _WINDOW_DS)
    def test_window_matrices_converged(self, D):
        # the series against an independent adaptive solve at relative
        # tolerance 1e-13, at tau2 = 1 and 2, for the window cut into 1, 2
        # and 4 pieces
        for tau2 in (1.0, 2.0):
            sch = replace(SCH, tau2=tau2)
            kx, d = _window_inputs(D, sch)
            for m in (1, 2, 4):
                got, terms = _window_matrices(sch, kx, d, m)
                assert terms > 0
                ref = _dop853_window_matrices(sch, kx, d, m)
                assert _window_error(got, ref) <= 1e-12

    @pytest.mark.parametrize("D", _WINDOW_DS)
    def test_window_matrices_panel_converged(self, monkeypatch, D):
        # twice the quadrature panels per piece move no matrix entry
        cases = []
        for tau2 in (1.0, 2.0):
            sch = replace(SCH, tau2=tau2)
            kx, d = _window_inputs(D, sch)
            cases += [(sch, kx, d, m, _window_matrices(sch, kx, d, m)[0])
                      for m in (1, 2, 4)]
        monkeypatch.setattr(core, "_PANELS", 2 * core._PANELS)
        for sch, kx, d, m, got in cases:
            assert _window_error(got, _window_matrices(sch, kx, d, m)[0]) \
                <= 1e-13

    def test_window_matrices_without_diffusion_are_the_kick(self):
        # at d = 0 the window is the exact kick p -> p + delta x^2, whose
        # matrix for the column kx is [[1, 0], [-2 kx delta, 1]]
        kx, _ = _window_inputs(H ** (4.0 / 3.0))
        E, _ = _window_matrices(SCH, kx, 0.0, 1)
        start, tau = SCH.window(2)
        kick = -2.0 * kx * bump_integral(SCH, 2, start, start + tau)
        assert np.abs(E[0, 2] - kick).max() <= 1e-10 * np.abs(kick).max()
        assert not E[0, [0, 1, 3]].any()

    def test_zeroed_columns_below_roundoff(self):
        # a dropped k_v column's output is at most its input times its
        # damping, since the rest of its propagator is a contraction
        D = H
        grid = GridSpec.for_h(H, n_u=256, n_v=512)
        field, params = _initial("classical", D=D, grid=grid)
        t1 = _stretch_window(field, SCH, 1, params, EvolverConfig())[0]
        _, _, info = _kick_window(t1, SCH, params)
        spec = np.abs(np.fft.rfft(t1.values, axis=1))
        kv = 2.0 * math.pi * np.fft.rfftfreq(len(t1.v), d=t1.dv)
        damp = np.exp(-(D / 2.0) * math.exp(2.0 * t1.a) * SCH.tau2
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


class TestCheckpointReadings:
    # windows 1 and 3 at D = 0 only move the frame, so t1 keeps t0's values
    # array and t3 keeps t2's; those checkpoints reuse the readings, and the
    # derived t3 Wigner field reuses the t2 one's

    @pytest.mark.parametrize("kind, D, passes", [
        ("classical", 0.0, 3), ("classical", H ** (4.0 / 3.0), 6),
        ("wigner", 0.0, 2), ("wigner", H ** (4.0 / 3.0), 4)],
        ids=["closed", "diffusive", "wigner-closed", "wigner-diffusive"])
    def test_guard_passes(self, monkeypatch, kind, D, passes):
        # each field evolve keeps is guarded once: t0 and t1, a classical
        # input's t2 and t3, and the derived Wigner t2 and t3 for both
        # kinds, but not a Wigner input's unphased t2 and t3
        seen = []
        check_field = evolver._check_field

        def counted(field, *args):
            seen.append(field)
            return check_field(field, *args)

        monkeypatch.setattr(evolver, "_check_field", counted)
        field, params = _initial(kind, D=D)
        res = evolve(field, SCH, params)
        assert len(seen) == passes
        assert res.final is res.checkpoints[3]

    @pytest.mark.parametrize("kind", ["wigner", "classical"])
    def test_unchanged_checkpoints_copy_readings(self, closed_runs, kind):
        run = closed_runs[kind]
        cps, diag = run.checkpoints, run.diagnostics
        assert cps[1].values is cps[0].values
        assert cps[3].values is cps[2].values
        assert diag["t1"] == diag["t0"]
        assert diag["t3"] == {k: diag["t2"][k] for k in diag["t0"]}

    @pytest.mark.parametrize("exponent", [None, 4.0 / 3.0, 1.0],
                             ids=["closed", "diffusive", "wide"])
    def test_carried_u_tail_is_own_reading(self, exponent):
        # each checkpoint's reading, taken from a spectrum a window formed,
        # against the one taken from the checkpoint's own values; a Wigner
        # input's t2 and t3 readings are the classical ones
        h = 0.2
        D = 0.0 if exponent is None else h ** exponent
        sch, grid, params, evc = point_setup(
            h, D, RunConfig(h_list=(h,), n_u=256, n_v=512, substeps=60))
        if exponent == 1.0:
            assert grid.n_v == 1024  # the widened momentum grid
        runs = {kind: evolve(initial_coherent_field(params, grid, kind), sch,
                             params, evc) for kind in ("classical", "wigner")}
        for res in runs.values():
            for label, cp in zip(("t0", "t1", "t2", "t3"), res.checkpoints):
                assert res.diagnostics[label]["u_tail"] == pytest.approx(
                    _folded_u_tail(cp.values), rel=1e-12, abs=1e-15), label
        for label in ("t2", "t3"):
            assert runs["wigner"].diagnostics[label]["u_tail"] \
                == runs["classical"].diagnostics[label]["u_tail"]


class TestFactoredMultipliers:
    # each multiplier built from 1-D factors against the direct 2-D np.exp

    @pytest.mark.parametrize("h", [0.2, 0.05])
    def test_factored_kick_matches_direct_exp(self, h):
        # on the default grid at t1 the phase k x^2 delta reaches 6.4e3, so
        # the two tables differ by its roundoff, but only where the
        # spectrum is below roundoff
        params = SemiclassicalParams(hbar=2 * h)
        sch = standard_schedule(h)
        f0 = initial_coherent_field(params, GridSpec.for_h(h), "classical")
        t1, _, _ = _stretch_window(f0, sch, 1, params, EvolverConfig())
        start, tau = sch.window(2)
        delta = bump_integral(sch, 2, start, start + tau)
        k = 2.0 * math.pi * np.fft.rfftfreq(len(t1.v), d=t1.dv) \
            / t1.s_p
        x = t1.s_x * t1.u
        want = np.fft.irfft(
            np.fft.rfft(t1.values, axis=1)
            * np.exp(-1j * np.multiply.outer(x * x * delta, k)),
            n=len(t1.v), axis=1)
        got = _kick_window(t1, sch, params)[0].values
        assert _rel_max_abs(got, want) <= 1e-15

    @pytest.mark.parametrize("n_u, D, kept, pieces", [
        pytest.param(256, 0.1 ** (4.0 / 3.0), 139, 2, id="256"),
        pytest.param(255, 0.1 ** (4.0 / 3.0), 139, 2, id="255"),
        pytest.param(256, 0.1 ** 2, 257, 1, id="256-all-kept"),
        pytest.param(255, 0.1 ** 2, 257, 1, id="255-all-kept"),
        pytest.param(256, 10.0, 10, 8, id="256-few-kept"),
        pytest.param(255, 10.0, 10, 8, id="255-few-kept"),
    ])
    def test_mirrored_chirp_and_heat_factors(self, n_u, D, kept, pieces):
        # the window's output spectrum, its K kept columns wide, against the
        # same pieces with each chirp and heat factor taken by np.exp on the
        # whole symmetric u axis ((i - n_u/2) du, the field's u to roundoff)
        # and k_u axis, from the matrices of _window_matrices, on the kept
        # columns gathered by a boolean mask; an odd n_u has no u = 0 point and
        # no Nyquist bin. h = 0.1, tau2 = 2 on 512 v-points: at D = h^2 every
        # one of the 257 k_v columns is kept, at D = 10 only 10 are. At
        # D = h^(4/3) one piece's heat factor grows on the k_u axis
        # (log-modulus +65.3 at its largest |k_u| on 256 u-points) and two
        # pieces' factors do not (-63.1 for the heat factors, 0 for the
        # chirps), so the window takes two pieces
        h = 0.1
        sch = replace(standard_schedule(h), tau2=2.0)
        params = SemiclassicalParams(hbar=2 * h, D=D)
        f0 = initial_coherent_field(
            params, GridSpec.for_h(h, n_u=n_u, n_v=512), "classical")
        t1, _, _ = _stretch_window(f0, sch, 1, params, EvolverConfig())
        kv = _kv(t1)
        log_damp = (D / 2.0) * math.exp(2.0 * t1.a) * sch.tau2 * kv ** 2
        keep = log_damp < _DAMP_CUT
        # the kept columns are a prefix of the k_v axis
        assert keep.sum() == kept and keep[:kept].all()
        kx = kv[keep] / t1.s_p * t1.s_x ** 2
        d = (D / 2.0) * math.exp(-2.0 * t1.a)
        u = (np.arange(n_u) - n_u / 2.0) * t1.du
        assert np.abs(u - t1.u).max() <= 1e-14 * np.abs(t1.u).max()
        u2 = u ** 2 / 2.0
        ku2 = (2.0 * math.pi * np.fft.fftfreq(n_u, d=t1.du)) ** 2 / 2.0

        def factors(m):
            # per piece: beta, g_in, g_out and the largest log-moduli of
            # the heat factor and of the chirps on the grid
            M = _window_matrices(sch, kx, d, m)[0]
            beta = M[:, 1]
            g_in, g_out = M[:, 0] / beta, M[:, 3] / beta
            chirp = -u2.max() * min(g_in.imag.min(), g_out.imag.min())
            return beta, g_in, g_out, ku2.max() * beta.imag.max(), chirp

        beta, g_in, g_out, heat, chirp = factors(pieces)
        assert heat <= _GROWTH_TOL and chirp <= _GROWTH_TOL
        if pieces > 1:  # the fewest pieces: half as many grow
            assert max(factors(pieces // 2)[3:]) > _GROWTH_TOL
        if pieces == 2:  # the figures quoted above
            assert factors(1)[3] > 60.0 and heat < -60.0
        want = np.fft.rfft(t1.values, axis=1)
        cols = want[:, keep]
        for b, gi, go in zip(beta, g_in, g_out):
            cols = cols * np.exp(1j * np.multiply.outer(u2, gi))
            cols = np.fft.ifft(np.fft.fft(cols, axis=0)
                               * np.exp(-1j * np.multiply.outer(ku2, b)),
                               axis=0)
            cols = cols * np.exp(1j * np.multiply.outer(u2, go))
        want[:, keep] = cols * np.exp(-log_damp[keep])
        _, got, info = _kick_window(t1, sch, params)
        assert (info["kept_columns"], info["kick_substeps"]) == (kept, pieces)
        assert got.shape == (n_u, kept)
        assert _rel_max_abs(got, want[:, :kept]) <= 1e-15

    @pytest.mark.parametrize("D", [0.0, H ** (4.0 / 3.0)],
                             ids=["closed", "diffusive"])
    def test_wigner_from_carried_spectra(self, D):
        # the t3 Wigner field evolve derives from the spectra its windows
        # carry, against the Moyal phase of the rfft of the classical t3
        # field
        field, params = _initial("classical", D=D)
        res = evolve(field, SCH, params)
        final, a2 = res.final, res.checkpoints[2].a
        start, tau = SCH.window(2)
        delta = bump_integral(SCH, 2, start, start + tau)
        want = np.fft.irfft(np.fft.rfft(final.values, axis=1)
                            * _moyal_multiplier(final, delta, params.h, a2),
                            n=len(final.v), axis=1)
        assert res.wigner.kind == "wigner"
        assert res.wigner.a == final.a
        assert _rel_max_abs(res.wigner.values, want) <= 1e-13

    @pytest.mark.parametrize("D", [0.0, H ** (4.0 / 3.0), H],
                             ids=["closed", "diffusive", "wide"])
    def test_wigner_input_returns_derived_field(self, D):
        # a Wigner input runs the classical density too, and its t2, t3 and
        # final fields are the derived Wigner ones, bit for bit
        grid = GridSpec.for_h(H, n_u=256, n_v=1024, widths_v=128.0) \
            if D == H else GridSpec.for_h(H, n_u=256, n_v=512)

        def run(kind):
            field, params = _initial(kind, D=D, grid=grid)
            return evolve(field, SCH, params)

        q, c = run("wigner"), run("classical")
        assert [cp.kind for cp in q.checkpoints] == ["wigner"] * 4
        assert q.final is q.wigner is q.checkpoints[3]
        assert q.final.a == c.wigner.a
        np.testing.assert_array_equal(q.final.values, c.wigner.values)
        for i in (0, 1):
            np.testing.assert_array_equal(q.checkpoints[i].values,
                                          c.checkpoints[i].values)
        assert q.diagnostics["t2"]["kick_substeps"] \
            == c.diagnostics["t2"]["kick_substeps"]


    @pytest.mark.parametrize("n_u, exponent", [
        (512, 1.0), (512, 4.0 / 3.0), (512, 2.0), (255, 4.0 / 3.0),
        (255, 2.0)])
    def test_window3_and_moyal_read_kept_columns(self, monkeypatch, n_u,
                                                  exponent):
        # _kick_window hands on only its K kept columns, and evolve passes
        # them to window 3 and the Moyal phase as they are: its t3, final
        # and t3 Wigner fields are theirs on the kicked spectrum zero-padded
        # to the full k_v axis, bit for bit, and window 3's output spectrum
        # is the first K columns of theirs, whose other columns are zero.
        # h = 0.1 on the sweep's grids, D = h on the wide 512x2048 one
        h = 0.1
        sch, grid, params, evc = point_setup(
            h, h ** exponent, RunConfig(h_list=(h,), n_u=n_u))
        field = initial_coherent_field(params, grid, "classical")
        t1, spec, _ = _stretch_window(field, sch, 1, params, evc)
        t2, spec, window = _kick_window(t1, sch, params, spec)
        K = window["kept_columns"]
        full = np.zeros((len(t1.u), len(t1.v) // 2 + 1), dtype=complex)
        assert spec.shape == (len(t1.u), K) and K < full.shape[1]
        full[:, :K] = spec
        t3, s3, _ = _stretch_window(t2, sch, 3, params, evc, full)
        assert s3.shape == full.shape and not s3[:, K:].any()
        want_s3 = s3.copy()  # _moyal phases s3 in place
        w3 = _moyal(t3, s3, sch, params, t2.a)

        spectra, widths = [], []

        def diffusion(*args):
            out = _integrated_diffusion(*args)
            spectra.append(out[1].copy())  # before _moyal phases it
            return out

        def moyal(field, spec, *args):
            widths.append(spec.shape[1])
            return _moyal(field, spec, *args)

        monkeypatch.setattr(evolver, "_integrated_diffusion", diffusion)
        monkeypatch.setattr(evolver, "_moyal", moyal)
        res = evolve(field, sch, params, evc)
        assert widths == [K, K]
        np.testing.assert_array_equal(spectra[1], want_s3[:, :K])
        for got, want in ((res.checkpoints[3], t3), (res.final, t3),
                          (res.wigner, w3)):
            np.testing.assert_array_equal(got.values, want.values)


class TestSpectrumOwnership:
    # the transforms along u run in place, so a spectrum that is still
    # read after a window must come through it unchanged

    @pytest.mark.parametrize("D", [0.0, H ** (4.0 / 3.0)],
                             ids=["closed", "diffusive"])
    def test_integrated_diffusion_leaves_spectra_unchanged(self, D):
        # a carried spectrum is left as it was, and at D = 0 the spectrum
        # passed on, carried or fresh, is the input's
        field, params = _initial("classical", D=D,
                                 grid=GridSpec.for_h(H, n_u=256, n_v=512))
        spec = np.fft.rfft(field.values, axis=1)
        before = spec.copy()
        _, carried, _ = _integrated_diffusion(field, params, 0.3, 0.2, spec)
        np.testing.assert_array_equal(spec, before)
        _, fresh, _ = _integrated_diffusion(field, params, 0.3, 0.2)
        if D == 0.0:
            assert carried is spec
            np.testing.assert_array_equal(fresh, before)
        else:
            assert not np.shares_memory(carried, spec)
            np.testing.assert_array_equal(fresh, carried)

    @pytest.mark.parametrize("D", [0.0, H ** (4.0 / 3.0), H],
                             ids=["closed", "diffusive", "wide"])
    def test_t2_wigner_from_untouched_kicked_spectrum(self, D):
        # window 3 reads the kicked spectrum before _moyal phases it into
        # the t2 Wigner field: evolve's t2 Wigner field is _moyal of a copy
        # of that spectrum taken before window 3 ran, bit for bit
        grid = GridSpec.for_h(H, n_u=256, n_v=1024, widths_v=128.0) \
            if D == H else GridSpec.for_h(H, n_u=256, n_v=512)
        field, params = _initial("wigner", D=D, grid=grid)
        t1, spec, _ = _stretch_window(field, SCH, 1, params, EvolverConfig())
        t2, spec, _ = _kick_window(t1, SCH, params, spec)
        want = _moyal(t2, spec.copy(), SCH, params, t2.a)
        got = evolve(field, SCH, params).checkpoints[2]
        assert got.kind == "wigner" and got.a == want.a
        np.testing.assert_array_equal(got.values, want.values)


def _fock1(h, D, kind):
    """The n = 1 Fock state's Wigner function
    (r^2/h - 1) exp(-r^2/2h) / (2 pi h), r^2 = x^2 + p^2, on the default
    grid at t0 as a field of the given kind, and its parameters. It is
    normalized, and negative for r^2 < h, down to -1/(2 pi h) at r = 0."""
    params = SemiclassicalParams(hbar=2 * h, D=D)
    f0 = initial_coherent_field(params, GridSpec.for_h(h), kind)
    r2 = np.add.outer(f0.u ** 2, f0.v ** 2)
    return replace(f0, values=f0.values * (r2 / h - 1.0)), params


def _oracle_l1(md, ref):
    """L1 distance over (-14, 46) between an oracle's momentum marginal ref
    and md resampled onto ref's points there."""
    mask = (ref.p > -14.0) & (ref.p < 46.0)
    got = resample_distribution(md, ref.p[mask])
    return float(np.abs(got.q - ref.q[mask]).sum() * ref.dp)


class TestFockInput:
    # any normalized Wigner input is accepted, negative values included:
    # the n = 1 Fock state's classically propagated field stays negative
    # (-1.59 at t2 for h = 0.1, D = 0), and only a classical density's
    # negative value is a fault

    @pytest.mark.parametrize("h", [0.1, 0.05])
    def test_closed_matches_schrodinger(self, h):
        # against the exact D = 0 evolution of psi_1 = x psi_0 / sqrt(h)
        sch = standard_schedule(h)
        field, params = _fock1(h, 0.0, "wigner")
        md = momentum_marginal(evolve(field, sch, params).final)
        psi0 = coherent_wavefunction(h)
        psi1 = replace(psi0, values=psi0.values * psi0.xi / math.sqrt(h))
        ref = momentum_distribution(schrodinger_closed(psi1, sch, h)[3], h)
        assert _oracle_l1(md, ref) < 1e-10

    def test_diffusive_matches_lindblad(self):
        # against the Lindblad oracle on psi_1 psi_1^*, whose diagonals
        # psi_1(xi_i) psi_1(xi_(i - r)) are rolled copies of psi_1
        h = 0.05
        sch = standard_schedule(h)
        field, params = _fock1(h, h ** (4.0 / 3.0), "wigner")
        md = momentum_marginal(evolve(field, sch, params).final)
        xi, psi0 = _coherent_state(h, 512, 14.0)
        psi1 = xi * psi0 / math.sqrt(h)
        rho0 = DensityMatrixField(xi=xi, diagonals=np.stack(
            [psi1 * np.roll(psi1, r) for r in range(len(xi) // 2 + 1)]
        ).astype(complex))
        cps = lindblad_dm_evolve(rho0, sch, params, steps=60)
        assert _oracle_l1(md, dm_momentum_marginal(cps[3], params)) < 1e-4

    def test_classical_input_rejected(self):
        field, params = _fock1(0.1, 0.0, "classical")
        with pytest.raises(SolverFailureError,
                           match="classical density reached .* at t0"):
            evolve(field, standard_schedule(0.1), params)


class TestGuards:
    def test_invalid_config(self):
        # a panel count must be a whole number >= 1 (a bool is not one)
        for n in (0, math.nan, math.inf, True, 2.5):
            with pytest.raises(InvalidParameterError,
                               match="substeps_per_unit"):
                EvolverConfig(substeps_per_unit=n)

    @pytest.mark.parametrize("cap, match", [("_MAX_PIECES", "still grows")])
    def test_window_caps_raise(self, monkeypatch, cap, match):
        # tau2 = 2 needs two pieces
        t1, sch, params = _tau2_two_window_input()
        monkeypatch.setattr(evolver, cap, 1)
        with pytest.raises(SolverFailureError, match=match):
            _kick_window(t1, sch, params)

    def test_failed_integration_raises(self):
        # a NaN rate makes every tail estimate NaN, so no term ever counts
        # as roundoff and the series stops at its term limit
        kx, _ = _window_inputs(H ** (4.0 / 3.0))
        with pytest.raises(SolverFailureError, match="did not converge"):
            _window_matrices(SCH, kx, math.nan, 1)

    def test_unnormalized_input_rejected(self):
        field, params = _initial("classical")
        bad = replace(field, values=1.5 * field.values)
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

    def test_kick_window_checks_input_tail_before_solving(self,
                                                          monkeypatch):
        # the D > 0 propagator's matrix solves must not run on a spectrum
        # that already fails the momentum tail check
        def no_solve(*args):
            raise AssertionError("_window_matrices ran")

        monkeypatch.setattr(evolver, "_window_matrices", no_solve)
        grid = GridSpec.for_h(H, n_u=256, n_v=256, widths_u=16.0,
                              widths_v=64.0)
        for D in (0.0, 0.01 * H ** (4.0 / 3.0)):
            field, params = _initial("classical", D=D, grid=grid)
            t1, spec, _ = _stretch_window(field, SCH, 1, params,
                                          EvolverConfig())
            with pytest.raises(ResolutionError, match="momentum spectral tail"):
                _kick_window(t1, SCH, params, spec)

    @pytest.mark.parametrize("source, K", [
        pytest.param((0.1, 4.0 / 3.0), 196, id="196"),
        pytest.param((0.05, 2.0), 513, id="513"),
        pytest.param(None, 470, id="planted")])
    def test_output_tail_reads_top_tenth_of_all_bins(self, source, K):
        # the output check reads the top tenth of all 513 k_v bins, bins
        # 461-512, those past the K kept columns counting as zero: mass
        # planted in a kept column raises from bin 461 on and not below
        # it, though at K = 196 and 470 the bin below is in the top tenth
        # of the kept columns. The others are window 2's output on the
        # sweep's 512x1024 grid; the planted spectrum is 470 columns wide,
        # its mass all in column 0
        n = 513
        if source is None:
            spec = np.zeros((4, K), dtype=complex)
            spec[:, 0] = 1.0
        else:
            h, exponent = source
            sch, grid, params, evc = point_setup(h, h ** exponent,
                                                 RunConfig(h_list=(h,)))
            field = initial_coherent_field(params, grid, "classical")
            t1, spec, _ = _stretch_window(field, sch, 1, params, evc)
            _, spec, window = _kick_window(t1, sch, params, spec)
            assert len(t1.v) // 2 + 1 == n and window["kept_columns"] == K
        assert spec.shape[1] == K and n - math.ceil(0.1 * n) == 461
        evolver._check_v_tail(spec, n)
        for col in (min(K, 461) - 1, 461):
            if col >= K:
                continue
            planted = spec.copy()
            planted[0, col] += 1e-6 * np.abs(spec).sum()
            if col < 461:
                evolver._check_v_tail(planted, n)
            else:
                with pytest.raises(ResolutionError,
                                   match="momentum spectral tail"):
                    evolver._check_v_tail(planted, n)

    def test_coarse_position_axis_raises_resolution_error(self):
        # the kick folds each momentum row, sharpening the state along u
        grid = GridSpec.for_h(H, n_u=128)
        field, params = _initial("classical", grid=grid)
        with pytest.raises(ResolutionError, match="position spectral tail"):
            evolve(field, SCH, params)

    @staticmethod
    def _boundary_run(n_u, tau2=1.0):
        h = 0.1
        sch = replace(standard_schedule(h), tau2=tau2)
        params = SemiclassicalParams(hbar=2 * h)
        field = initial_coherent_field(
            params, GridSpec.for_h(h, n_u=n_u, n_v=1024), "classical")
        return evolve(field, sch, params)

    def test_position_guard_boundary(self):
        # at D = 0 and tau2 = 1 the t2 reading is 1.05e-4 on 184 u-points
        # and 6.97e-5 on 192
        with pytest.raises(ResolutionError,
                           match="position spectral tail .* at t2"):
            self._boundary_run(184)
        diag = self._boundary_run(192).diagnostics
        assert 6e-5 < diag["t2"]["u_tail"] < _U_TAIL_TOL

    @pytest.mark.parametrize("tau2", [1.0, 2.0])
    def test_position_guard_keeps_ku_v_decisions(self, monkeypatch, tau2):
        # the guard rejects a grid exactly when the (k_u, v) reading of a
        # classical or Wigner checkpoint exceeds its limit of 1e-4
        for n_u in (128, 184, 188, 190, 192, 194, 256):
            with monkeypatch.context() as m:
                m.setattr(evolver, "_U_TAIL_TOL", math.inf)
                res = self._boundary_run(n_u, tau2)
            # at D = 0 the t2 Wigner field's values are the t3 one's
            fields = res.checkpoints + (res.wigner,)
            want = max(_ku_v_u_tail(f.values) for f in fields) > 1e-4
            try:
                self._boundary_run(n_u, tau2)
                fires = False
            except ResolutionError as err:
                assert "position spectral tail" in str(err)
                fires = True
            assert fires == want, n_u

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

    @pytest.fixture
    def coherent_128(self):
        h = 0.1
        return initial_coherent_field(SemiclassicalParams(hbar=2 * h),
                                      GridSpec.for_h(h, n_u=128, n_v=128),
                                      "classical")

    def test_mass_drift_guard_fires(self, coherent_128):
        u_tail = _folded_u_tail(coherent_128.values)
        evolver._check_field(coherent_128, 1.0, "t0", u_tail)
        bad = replace(coherent_128, values=1.001 * coherent_128.values)
        with pytest.raises(SolverFailureError, match="mass drifted to 1.001"):
            evolver._check_field(bad, 1.0, "t1", u_tail)

    def test_nan_readings_fire_guards(self, coherent_128):
        # a NaN reading passes no "reading > limit" test, so each guard
        # fires unless its reading is within its limit
        nan = replace(coherent_128,
                      values=np.full_like(coherent_128.values, np.nan))
        with pytest.raises(SolverFailureError, match="mass drifted to nan"):
            evolver._check_field(nan, 1.0, "t1", math.nan)
        with pytest.raises(ResolutionError, match="tail carries .* nan"):
            evolver._check_field(coherent_128, 1.0, "t1", math.nan)

    def test_classical_negativity_guard_fires(self, coherent_128):
        # one cell far out in v, where the density is below 1e-200: the
        # mass moves by 2.5e-5 and the u-tail stays at roundoff, so the
        # negativity check is the first to fire
        values = coherent_128.values.copy()
        values[64, 32] = -1e-3
        bad = replace(coherent_128, values=values)
        with pytest.raises(SolverFailureError,
                           match="classical density reached -0.001 at t1"):
            evolver._check_field(bad, 1.0, "t1", _folded_u_tail(values))

    @staticmethod
    def _planted_readings(field, block):
        # mass planted in one corner block, on both v edges (clear of the
        # corner blocks) and on one u edge, each share below its limit:
        # the planted values, _check_field's readings, and the formulas
        # below with mass, min and the |values| total added row block by
        # row block
        values = field.values.copy()
        values[:4, -4:] += 1e-10
        values[4:-4, 0] += 1e-7
        values[4:-4, -1] += 2e-7
        values[-1, 4:-4] += 1e-5
        field = replace(field, values=values)
        u_tail = _folded_u_tail(values)
        got = evolver._check_field(field, 1.0, "t1", u_tail)
        du, dv = field.du, field.dv
        cell = du * dv
        rows = block // values.shape[1]
        blocks = [values[i:i + rows] for i in range(0, len(values), rows)]
        total = sum(float(np.abs(b).sum()) for b in blocks) * cell

        def share(*parts):
            return float(sum(np.abs(p).sum() for p in parts) * cell / total)

        return values, got, {
            "mass": sum(float(b.sum()) for b in blocks) * du * dv,
            "min": min(float(b.min()) for b in blocks),
            "u_tail": u_tail,
            "v_edge": share(values[:, 0], values[:, -1]),
            "u_edge": share(values[0], values[-1]),
            "corner": share(values[:4, :4], values[:4, -4:],
                            values[-4:, :4], values[-4:, -4:]),
        }

    def test_readings_match_their_formulas(self, coherent_128):
        # the six readings are the formulas, bit for bit; the 128 rows are
        # one row block of _BLOCK entries
        _, got, want = self._planted_readings(coherent_128, evolver._BLOCK)
        assert got == want
        assert 1e-11 < got["corner"] < _EDGE_TOL
        assert 1e-7 < got["v_edge"] < _V_EDGE_TOL
        assert got["u_edge"] > 1e-5

    def test_readings_add_row_blocks_in_order(self, monkeypatch,
                                              coherent_128):
        # with blocks of 20 rows the 128 rows are six full blocks and a
        # last of 8. Under uniform noise below 1e-12 (seed 2) the blocked
        # mass differs in its last bits from the whole-array sum, and the
        # readings are the blocked ones
        monkeypatch.setattr(evolver, "_BLOCK", 20 * 128)
        noise = np.random.default_rng(2).uniform(0.0, 1e-12,
                                                 coherent_128.values.shape)
        field = replace(coherent_128, values=coherent_128.values + noise)
        values, got, want = self._planted_readings(field, 20 * 128)
        assert got == want
        assert got["mass"] != float(values.sum() * field.du * field.dv)

    def test_negativity_guard_spares_wigner(self, coherent_128):
        # a cell just below -1e-6 is a fault in a classical density and a
        # reading of a Wigner one
        values = coherent_128.values.copy()
        values[64, 32] = -2e-6
        u_tail = _folded_u_tail(values)
        with pytest.raises(SolverFailureError,
                           match="classical density reached -2e-06 at t2"):
            evolver._check_field(replace(coherent_128, values=values), 1.0,
                                 "t2", u_tail)
        wigner = replace(coherent_128, values=values, kind="wigner")
        assert evolver._check_field(wigner, 1.0, "t2", u_tail)["min"] == -2e-6

    @pytest.fixture
    def coherent_255(self):
        # 255 rows of 1024 entries: row blocks of 64 rows, the last of 63
        h = 0.1
        field = initial_coherent_field(SemiclassicalParams(hbar=2 * h),
                                       GridSpec.for_h(h, n_u=255, n_v=1024),
                                       "classical")
        rows = evolver._BLOCK // 1024
        assert (rows, len(field.values) % rows) == (64, 63)
        return field

    def test_nan_in_last_block_fires_mass_guard(self, coherent_255):
        values = coherent_255.values.copy()
        values[250, 512] = np.nan
        with pytest.raises(SolverFailureError, match="mass drifted to nan"):
            evolver._check_field(replace(coherent_255, values=values), 1.0,
                                 "t2", _folded_u_tail(coherent_255.values))

    def test_min_in_last_partial_block(self, coherent_255):
        # a cell far out in u and v, in the last block of 63 rows: its
        # value is the min reading, and below -1e-6 it fires the
        # negativity guard
        values = coherent_255.values.copy()
        values[250, 900] = -5e-7
        u_tail = _folded_u_tail(values)
        got = evolver._check_field(replace(coherent_255, values=values), 1.0,
                                   "t2", u_tail)
        assert got["min"] == -5e-7
        values[250, 900] = -2e-6
        with pytest.raises(SolverFailureError,
                           match="classical density reached -2e-06 at t2"):
            evolver._check_field(replace(coherent_255, values=values), 1.0,
                                 "t2", _folded_u_tail(values))

    @pytest.mark.parametrize("n_u", [255, 512])
    def test_blocked_readings_match_whole_array_formulas(self, n_u):
        # the blocked sums against the whole-array ones, to 1e-15 relative,
        # on a field with mass planted on its edges and in a corner
        h = 0.1
        field = initial_coherent_field(SemiclassicalParams(hbar=2 * h),
                                       GridSpec.for_h(h, n_u=n_u, n_v=1024),
                                       "classical")
        values = field.values.copy()
        values[:4, -4:] += 1e-10
        values[4:-4, 0] += 1e-7
        values[-1, 4:-4] += 1e-5
        field = replace(field, values=values)
        got = evolver._check_field(field, 1.0, "t1", 0.0)
        cell = field.du * field.dv
        a = np.abs(values)
        total = a.sum() * cell
        want = {
            "mass": float(values.sum() * field.du * field.dv),
            "min": float(values.min()),
            "v_edge": float((a[:, 0].sum() + a[:, -1].sum()) * cell / total),
            "u_edge": float((a[0, :].sum() + a[-1, :].sum()) * cell / total),
            "corner": float((a[:4, :4].sum() + a[:4, -4:].sum()
                             + a[-4:, :4].sum() + a[-4:, -4:].sum())
                            * cell / total),
        }
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-15 * abs(value), key

    def test_undersized_momentum_extent_raises(self):
        # the kicked density needs lab momenta far beyond 16 sqrt(h); a
        # narrow box wraps around and trips the momentum-edge diagnostic
        grid = GridSpec.for_h(H, n_v=256, widths_v=16.0)
        field, params = _initial("classical", grid=grid)
        with pytest.raises(SolverFailureError):
            evolve(field, SCH, params)
