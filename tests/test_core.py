"""Domain-type tests: schedules and their stretch integrals, bumps, frames,
fields, marginals, metrics, and moment measurement."""

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from qcthreshold.core import (
    _CUMINT,
    _LOBATTO,
    _PANELS,
    GridSpec,
    MomentumDistribution,
    PhaseSpaceField,
    Schedule,
    SemiclassicalParams,
    cumulative_integral,
    expect_observable,
    initial_coherent_field,
    l1_distance,
    lobatto_nodes,
    measure_central_moments,
    momentum_marginal,
    position_marginal,
    resample_distribution,
    standard_schedule,
)
from qcthreshold.errors import InvalidParameterError


def _quad(f, a, b):
    return quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]


# the raw bump's integral Z over (0, 1)
_Z = _quad(lambda s: math.exp(1.0 / (4.0 * s * (s - 1.0))), 0.0, 1.0)


def _bump_integral(sch, i, ta, tb):
    """int_ta^tb chi_i dt by quad, with chi_i built from math.exp and Z
    alone, none of the package's quadrature."""
    start, tau = sch.window(i)

    def chi(t):
        s = (t - start) / tau
        return math.exp(1.0 / (4.0 * s * (s - 1.0))) / _Z \
            if 0.0 < s < 1.0 else 0.0

    return _quad(chi, ta, tb)


@lru_cache(maxsize=None)
def _stretch_by_quad(h, i):
    """(int e^(-2a) dt, int e^(2a) dt) over window i of the standard
    schedule at h from the log-scale evolve starts it at, by nested quad."""
    sch = standard_schedule(h)
    start, tau = sch.window(i)
    a0, sign = (0.0, 1.0) if i == 1 else (sch.tau1, -1.0)
    return np.array([_quad(lambda t: math.exp(
        e * (a0 + sign * _bump_integral(sch, i, start, t))),
        start, start + tau) for e in (-2.0, 2.0)])


class TestParams:
    def test_h_is_half_hbar(self):
        p = SemiclassicalParams(hbar=0.1)
        assert p.h == 0.05

    def test_invalid(self):
        for hbar, D in ((0.0, 0.0), (1.0, -0.1), (math.inf, 0.0),
                        (math.nan, 0.0), (1.0, math.inf), (1.0, math.nan)):
            with pytest.raises(InvalidParameterError):
                SemiclassicalParams(hbar=hbar, D=D)


class TestBump:
    # the bump of a unit window, chi_1 of Schedule(1, 1, 1)
    UNIT = Schedule(1.0, 1.0, 1.0)

    def test_endpoints(self):
        for s in (0.0, 1.0, -0.5, 1.5):
            assert self.UNIT.chi(1, s) == 0.0

    def test_unit_integral(self):
        s = np.linspace(0.0, 1.0, 200_001)
        integral = np.trapezoid(self.UNIT.chi(1, s), s)
        assert integral == pytest.approx(1.0, abs=1e-10)

    def test_midpoint_value(self):
        # chi(1/2) = Z^-1 e^-1 with Z the raw-shape integral
        assert self.UNIT.chi(1, 0.5) == pytest.approx(math.exp(-1.0) / _Z,
                                                      rel=1e-14)

    @pytest.mark.parametrize("table", [_LOBATTO, _CUMINT])
    def test_shared_tables_read_only(self, table):
        # concurrent sweep points read them; a stray write must raise
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            table *= 2.0

    def test_cumulative_endpoints(self):
        # from 0 at each piece's start to the whole window at the end
        for pieces in (1, 3):
            t, width = lobatto_nodes(0.0, 1.0, pieces)
            cum = cumulative_integral(self.UNIT.chi(1, t), width)
            assert not cum[:, 0, 0].any()
            assert cum[:, -1, -1].sum() == pytest.approx(1.0, abs=1e-15)


class TestSchedule:
    def test_standard_values(self):
        sch = standard_schedule(math.exp(-6.0))
        assert sch.tau1 == pytest.approx(1.0)
        assert sch.tau2 == 1.0
        assert sch.tau3 == pytest.approx(4.0)
        # the bounds' validity condition tau1 < (1/4) log(1/h)
        assert sch.tau1 < 0.25 * 6.0

    def test_standard_h_point_zero_one(self):
        sch = standard_schedule(0.01)
        assert sch.tau1 == pytest.approx(0.76753, abs=1e-5)
        assert sch.tau3 == pytest.approx(3.07011, abs=1e-5)

    def test_invalid_h(self):
        with pytest.raises(InvalidParameterError):
            standard_schedule(1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_invalid_durations(self, bad):
        for taus in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
            with pytest.raises(InvalidParameterError):
                Schedule(*taus)

    def test_equal_schedules_compare_equal(self):
        # every schedule shares one bump profile, so equality and the repr
        # see only the durations
        sch = standard_schedule(0.1)
        assert sch == standard_schedule(0.1)
        assert sch != standard_schedule(0.05)
        assert hash(sch) == hash(standard_schedule(0.1))
        assert repr(sch) == (f"Schedule(tau1={sch.tau1!r}, tau2=1.0, "
                             f"tau3={sch.tau3!r})")

    def test_checkpoints_increase(self):
        # each window starts where the one before it ends
        sch = standard_schedule(0.05)
        (t0, tau1), (t1, tau2), (t2, tau3) = (sch.window(i) for i in (1, 2, 3))
        assert (t0, t1, t2) == (0.0, tau1, tau1 + tau2)
        assert t0 < t1 < t2 < t2 + tau3

    @pytest.mark.parametrize("i", [0, 4, -1])
    def test_window_index_rejected(self, i):
        sch = standard_schedule(0.05)
        for call in (lambda: sch.window(i), lambda: sch.chi(i, 0.5),
                     lambda: sch.stretch(i, 0.0)):
            with pytest.raises(InvalidParameterError, match="1, 2 or 3"):
                call()

    def test_bump_integral_is_tau(self):
        # the piece integrals of each window sum to its duration
        sch = standard_schedule(0.05)
        for i in (1, 2, 3):
            start, tau = sch.window(i)
            t, width = lobatto_nodes(start, tau, 4)
            pieces = cumulative_integral(sch.chi(i, t), width)[:, -1, -1]
            assert pieces.sum() == pytest.approx(tau, abs=1e-14)

    @pytest.mark.parametrize("pieces", [4, 60, 100, 200])
    def test_piece_integrals_match_quad(self, pieces):
        # the Lindblad oracle's kick deltas: window 2 in equal pieces, with
        # at least _PANELS panels across the window
        sch = standard_schedule(0.05)
        start, tau = sch.window(2)
        t, width = lobatto_nodes(start, tau, pieces, -(-_PANELS // pieces))
        got = cumulative_integral(sch.chi(2, t), width)[:, -1, -1]
        edges = start + tau * np.arange(pieces + 1) / pieces
        want = [_bump_integral(sch, 2, ta, tb)
                for ta, tb in zip(edges[:-1], edges[1:])]
        assert np.abs(got - want).max() <= 1e-15

    def test_chi_integrates_to_tau(self):
        sch = standard_schedule(0.05)
        start, tau = sch.window(2)
        t = np.linspace(start, start + tau, 100_001)
        assert np.trapezoid(sch.chi(2, t), t) == pytest.approx(tau, abs=1e-8)


class TestStretch:
    @pytest.mark.parametrize("a0", [0.0, 0.3, -1.7])
    def test_end_log_scale_is_exact(self, a0):
        sch = standard_schedule(0.05)
        assert sch.stretch(1, a0)[0] == a0 + sch.tau1
        assert sch.stretch(3, a0)[0] == a0 - sch.tau3

    def test_kick_window_rejected(self):
        with pytest.raises(InvalidParameterError, match="kick"):
            standard_schedule(0.05).stretch(2, 0.0)

    @pytest.mark.parametrize("h", [0.2, 1e-3, 1e-10])
    def test_default_panels_converged(self, h):
        # each window from the log-scale it starts at in evolve; 200
        # panels per unit time agree with 800. At h = 0.2 a single panel
        # per unit is far off the nested quad, so the comparison can fail
        sch = standard_schedule(h)
        for i, a0 in ((1, 0.0), (3, sch.tau1)):
            got = np.array(sch.stretch(i, a0)[1:])
            fine = np.array(sch.stretch(i, a0, per_unit=800)[1:])
            assert np.abs(got / fine - 1.0).max() <= 1e-13
            if h == 0.2:
                coarse = np.array(sch.stretch(i, a0, per_unit=1)[1:])
                assert np.abs(coarse / _stretch_by_quad(h, i) - 1.0).max() \
                    > 1e-8

    @pytest.mark.parametrize("h", [0.2, 1e-3, 1e-10])
    def test_integrals_match_quad(self, h):
        sch = standard_schedule(h)
        for i, a0 in ((1, 0.0), (3, sch.tau1)):
            got = np.array(sch.stretch(i, a0)[1:])
            assert np.abs(got / _stretch_by_quad(h, i) - 1.0).max() <= 1e-13


class TestFrame:
    def test_symplectic(self):
        axis = np.zeros(2)
        f = PhaseSpaceField(a=0.7, u=axis, v=axis, values=np.zeros((2, 2)),
                            kind="classical")
        assert f.s_x == math.exp(0.7)
        assert f.s_x * f.s_p == pytest.approx(1.0, abs=1e-15)

    def test_unknown_kind_rejected(self):
        params = SemiclassicalParams(hbar=0.1)
        grid = GridSpec.for_h(0.05)
        with pytest.raises(InvalidParameterError, match="'quantum'"):
            initial_coherent_field(params, grid, "quantum")
        field = initial_coherent_field(params, grid, "classical")
        with pytest.raises(InvalidParameterError, match="'wigner'"):
            replace(field, kind="Wigner")


def _gaussian_field(grid, var_x, var_p, mean_x=0.0, mean_p=0.0, r=0.0):
    """The classical density N(mean_x, var_x)(x) * N(mean_p + r x^2,
    var_p)(p) sampled on the grid in the identity frame."""
    u, v = grid.axes()
    x, p = u[:, None], v[None, :]
    gx = np.exp(-(x - mean_x) ** 2 / (2 * var_x)) / math.sqrt(
        2 * math.pi * var_x)
    gp = np.exp(-(p - mean_p - r * x * x) ** 2 / (2 * var_p)) / math.sqrt(
        2 * math.pi * var_p)
    return PhaseSpaceField(a=0.0, u=u, v=v, values=gx * gp, kind="classical")


@pytest.fixture(scope="module")
def h():
    return 0.05


@pytest.fixture(scope="module")
def coherent(h):
    params = SemiclassicalParams(hbar=2 * h)
    return initial_coherent_field(params, GridSpec.for_h(h), "wigner")


class TestInitialField:
    def test_mass(self, coherent):
        assert coherent.mass() == pytest.approx(1.0, abs=1e-9)

    def test_moments(self, coherent, h):
        m = measure_central_moments(coherent)
        assert m.var_x == pytest.approx(h, rel=1e-9)
        assert m.var_p == pytest.approx(h, rel=1e-9)
        assert m.m4_x == pytest.approx(3 * h * h, rel=1e-8)
        assert m.m4_p == pytest.approx(3 * h * h, rel=1e-8)

    def test_matches_two_dimensional_gaussian(self, coherent, h):
        # built as an outer product of two rows; the same values to roundoff
        x, p = coherent.u[:, None], coherent.v[None, :]
        ref = np.exp(-(x * x + p * p) / (2 * h)) / (2 * math.pi * h)
        assert np.abs(coherent.values - ref).max() <= 1e-15 * ref.max()

    def test_too_small_grid(self, h):
        params = SemiclassicalParams(hbar=2 * h)
        small = GridSpec.for_h(h, widths_u=4.0)
        with pytest.raises(InvalidParameterError, match="at least 8"):
            initial_coherent_field(params, small)

    @pytest.mark.parametrize("n_u, n_v", [(1, 1024), (512, 1), (0, 0),
                                          (256.5, 1024), (512, True),
                                          (math.nan, 8), (8, math.inf)])
    def test_grid_below_two_points_per_axis(self, h, n_u, n_v):
        with pytest.raises(InvalidParameterError,
                           match=f"grid {n_u}x{n_v} needs at least 2 points"):
            GridSpec.for_h(h, n_u=n_u, n_v=n_v)
        with pytest.raises(InvalidParameterError, match="at least 2 points"):
            GridSpec(n_u=n_u, n_v=n_v)


class TestMarginals:
    def test_initial_momentum_marginal_gaussian(self, coherent, h):
        md = momentum_marginal(coherent)
        assert md.mass() == pytest.approx(1.0, abs=1e-9)
        ref = np.exp(-md.p ** 2 / (2 * h)) / math.sqrt(2 * math.pi * h)
        assert np.abs(md.q - ref).max() < 1e-9 / h

    def test_factorized_density(self, h):
        # marginal of g(x) q(p) is q(p)
        field = _gaussian_field(GridSpec.for_h(h, widths_u=24, widths_v=48),
                                2 * h, 0.5 * h, mean_p=0.3)
        md = momentum_marginal(field)
        ref = np.exp(-(md.p - 0.3) ** 2 / h) / math.sqrt(math.pi * h)
        assert np.abs(md.q - ref).max() < 1e-8 / h

    def test_frame_rescaling(self, h):
        params = SemiclassicalParams(hbar=2 * h)
        base = initial_coherent_field(params, GridSpec.for_h(h), "classical")
        tilted = replace(base, a=0.4)
        md = momentum_marginal(tilted)
        m = measure_central_moments(tilted)
        # frame stretches lab x by e^0.4 and shrinks lab p by e^-0.4
        assert m.var_x == pytest.approx(h * math.exp(0.8), rel=1e-9)
        assert m.var_p == pytest.approx(h * math.exp(-0.8), rel=1e-9)
        assert md.mass() == pytest.approx(1.0, abs=1e-9)

    def test_position_marginal(self, coherent, h):
        xd = position_marginal(coherent)
        assert xd.mass() == pytest.approx(1.0, abs=1e-9)
        assert float((xd.q * xd.p ** 2).sum() * xd.dp) == \
            pytest.approx(h, rel=1e-9)


def _gaussian_dist(mean, var, p):
    return MomentumDistribution(
        p=p, q=np.exp(-(p - mean) ** 2 / (2 * var))
        / math.sqrt(2 * math.pi * var))


class TestL1Distance:
    def test_identity(self):
        p = np.linspace(-8, 8, 1024, endpoint=False)
        a = _gaussian_dist(0.0, 1.0, p)
        assert l1_distance(a, a) == 0.0

    def test_disjoint_masses(self):
        p = np.linspace(-8, 8, 1024, endpoint=False)
        a = _gaussian_dist(-4.0, 0.01, p)
        b = _gaussian_dist(4.0, 0.01, p)
        assert l1_distance(a, b) == pytest.approx(2.0, abs=1e-6)

    def test_resampling_path(self):
        # two grids are rejected; resampling is the caller's step
        p1 = np.linspace(-10, 10, 1000, endpoint=False)
        p2 = np.linspace(-8, 8, 640, endpoint=False)
        a = _gaussian_dist(0.3, 1.2, p1)
        b = _gaussian_dist(0.3, 1.2, p2)
        with pytest.raises(InvalidParameterError, match="one grid"):
            l1_distance(b, a)
        assert l1_distance(b, resample_distribution(a, p2)) < 1e-7

    @given(st.integers(0, 1_000_000))
    @settings(max_examples=20, deadline=None)
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        p = np.linspace(-10, 10, 512, endpoint=False)
        dists = [_gaussian_dist(rng.uniform(-2, 2), rng.uniform(0.2, 2), p)
                 for _ in range(3)]
        a, b, c = dists
        dab, dba = l1_distance(a, b), l1_distance(b, a)
        assert dab == pytest.approx(dba, abs=1e-12)
        assert dab <= l1_distance(a, c) + l1_distance(c, b) + 1e-12
        assert dab <= 2.0 + 1e-9


class TestObservables:
    def test_constant_observable(self):
        # int e^{-p^2} N(0, 1)(p) dp has the closed form 1/sqrt(3)
        p = np.linspace(-8, 8, 2048, endpoint=False)
        d = _gaussian_dist(0.0, 1.0, p)
        assert expect_observable(d) == \
            pytest.approx(1.0 / math.sqrt(3.0), rel=1e-9)


class TestMomentMeasurement:
    def test_translation_invariance(self, h):
        grid = GridSpec.for_h(h, widths_u=24, widths_v=48)
        m0 = measure_central_moments(_gaussian_field(grid, h, h))
        m1 = measure_central_moments(_gaussian_field(
            grid, h, h, mean_x=3 * math.sqrt(h), mean_p=-2 * math.sqrt(h)))
        assert m1.mean_x == pytest.approx(3 * math.sqrt(h), rel=1e-8)
        assert m1.mean_p == pytest.approx(-2 * math.sqrt(h), rel=1e-8)
        for name in ("var_x", "var_p", "m4_x", "m4_p"):
            assert getattr(m1, name) == pytest.approx(getattr(m0, name),
                                                      rel=1e-6)

    def test_conditional_gaussian_moments(self, h):
        field = _gaussian_field(GridSpec.for_h(h, widths_v=64), h, h, r=1.0)
        m = measure_central_moments(field)
        # p = G + r x^2: mean r sigma_x^2, var sigma_p^2 + 2 r^2 sigma_x^4
        assert m.mean_p == pytest.approx(h, rel=1e-6)
        assert m.var_p == pytest.approx(h + 2 * h * h, rel=1e-6)


class TestResample:
    def test_band_limited_exactness(self):
        p = np.linspace(-10, 10, 256, endpoint=False)
        d = _gaussian_dist(0.5, 2.0, p)
        fine = np.linspace(-9, 9, 700)
        r = resample_distribution(d, fine)
        ref = np.exp(-(fine - 0.5) ** 2 / 4.0) / math.sqrt(4 * math.pi)
        assert np.abs(r.q - ref).max() < 1e-10
