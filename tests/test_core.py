"""Domain-type tests: schedules, bumps, frames, fields, marginals,
metrics, and moment measurement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcthreshold.core import (
    AffineFrame,
    BumpProfile,
    GridSpec,
    MomentumDistribution,
    ObservableSpec,
    PhaseSpaceField,
    Schedule,
    SemiclassicalParams,
    expect_observable,
    initial_coherent_field,
    l1_distance,
    measure_central_moments,
    momentum_marginal,
    position_marginal,
    resample_distribution,
    standard_schedule,
)
from qcthreshold.errors import CoverageError, InvalidParameterError


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
    def test_endpoints(self):
        bump = BumpProfile()
        assert bump.value(0.0) == 0.0
        assert bump.value(1.0) == 0.0
        assert bump.value(-0.5) == 0.0
        assert bump.value(1.5) == 0.0

    def test_unit_integral(self):
        bump = BumpProfile()
        s = np.linspace(0.0, 1.0, 200_001)
        integral = np.trapezoid(bump.value(s), s)
        assert integral == pytest.approx(1.0, abs=1e-10)

    def test_midpoint_value(self):
        # chi(1/2) = Z^-1 e^-1 with Z the raw-shape integral
        from scipy.integrate import quad
        z = quad(lambda s: math.exp(1.0 / (4.0 * s * (s - 1.0))),
                 0.0, 1.0, epsabs=1e-13)[0]
        bump = BumpProfile()
        assert bump.value(0.5) == pytest.approx(math.exp(-1.0) / z, rel=1e-9)

    def test_cumulative_endpoints(self):
        bump = BumpProfile()
        assert bump.cumulative(0.0) == 0.0
        assert bump.cumulative(1.0) == pytest.approx(1.0, abs=1e-12)
        assert bump.cumulative(2.0) == pytest.approx(1.0, abs=1e-12)


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
        sch = standard_schedule(0.05)
        assert sch.t0 < sch.t1 < sch.t2 < sch.t3

    def test_bump_integral_is_tau(self):
        sch = standard_schedule(0.05)
        for i in (1, 2, 3):
            start, tau = sch.window(i)
            assert sch.bump_integral(i, start, start + tau) == \
                pytest.approx(tau, abs=1e-10)

    def test_chi_integrates_to_tau(self):
        sch = standard_schedule(0.05)
        start, tau = sch.window(2)
        t = np.linspace(start, start + tau, 100_001)
        assert np.trapezoid(sch.chi(2, t), t) == pytest.approx(tau, abs=1e-8)


class TestFrame:
    def test_symplectic(self):
        f = AffineFrame(0.7)
        assert f.s_x * f.s_p == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=50, deadline=None)
    def test_composition_adds_logs(self, a, b):
        # shifting a frame by b composes it with AffineFrame(b)
        shifted = AffineFrame(a).shifted(b)
        assert shifted.a == a + b
        assert shifted.s_x * shifted.s_p == pytest.approx(1.0)


def _gaussian_field(grid, var_x, var_p, mean_x=0.0, mean_p=0.0, r=0.0):
    """The classical density N(mean_x, var_x)(x) * N(mean_p + r x^2,
    var_p)(p) sampled on the grid in the identity frame."""
    u, v = grid.axes()
    x, p = u[:, None], v[None, :]
    gx = np.exp(-(x - mean_x) ** 2 / (2 * var_x)) / math.sqrt(
        2 * math.pi * var_x)
    gp = np.exp(-(p - mean_p - r * x * x) ** 2 / (2 * var_p)) / math.sqrt(
        2 * math.pi * var_p)
    return PhaseSpaceField(frame=AffineFrame(0.0), u=u, v=v, values=gx * gp,
                           kind="classical")


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

    def test_too_small_grid(self, h):
        params = SemiclassicalParams(hbar=2 * h)
        small = GridSpec.for_h(h, widths_u=4.0)
        with pytest.raises(CoverageError):
            initial_coherent_field(params, small)


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
        tilted = base.with_frame(AffineFrame(0.4))
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
        p1 = np.linspace(-10, 10, 1000, endpoint=False)
        p2 = np.linspace(-8, 8, 640, endpoint=False)
        a = _gaussian_dist(0.3, 1.2, p1)
        b = _gaussian_dist(0.3, 1.2, p2)
        assert l1_distance(b, a) < 1e-7

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
        assert expect_observable(d, ObservableSpec(0)) == \
            pytest.approx(1.0 / math.sqrt(3.0), rel=1e-9)

    def test_gaussian_weighted_moment(self):
        # int p^2 e^{-p^2} N(0, 1/2)(p) dp has the closed form 1/(4 sqrt 2)
        p = np.linspace(-8, 8, 4096, endpoint=False)
        d = _gaussian_dist(0.0, 0.5, p)
        exact = 1.0 / (4.0 * math.sqrt(2.0))
        assert expect_observable(d, ObservableSpec(2)) == \
            pytest.approx(exact, rel=1e-9)

    def test_invalid_n(self):
        with pytest.raises(InvalidParameterError):
            ObservableSpec(-1)


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
