"""Closed-form density tests.

The two final-time momentum densities have independent checks: special
values where the Airy / parabolic-cylinder arguments vanish, quadrature
of the defining Gaussian-chi-squared convolution, and moment matching
against the analytic cumulant table.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate
from scipy.special import airy

from qcthreshold import closedform
from qcthreshold.closedform import (
    BoundConstants,
    classical_momentum_pdf,
    constants,
    duhamel_bound,
    predicted_moments,
    quantum_momentum_pdf,
)
from qcthreshold.core import Schedule, standard_schedule
from qcthreshold.errors import InvalidParameterError
from qcthreshold.specialfn import parabolic_cylinder_D


H = 0.05
SCH = standard_schedule(H)
ARGS = (SCH.tau1, SCH.tau2, SCH.tau3, H)


def quantum(p):
    return quantum_momentum_pdf(p, *ARGS)


def classical(p):
    return classical_momentum_pdf(p, *ARGS)


class TestSpecialValues:
    def test_quantum_at_quarter(self):
        # at p = 1/4 the Airy argument vanishes for the standard schedule
        exact = 2.0 ** (1.0 / 6.0) * math.sqrt(math.pi) \
            * math.exp(-1.0 / 24.0) * airy(0.0)[0] ** 2
        assert quantum(0.25) == pytest.approx(exact, rel=1e-12)

    def test_classical_at_half(self):
        # at p = 1/2 the parabolic cylinder argument vanishes (g = 1); the
        # other points check the Bessel forms on both sides of z = 0 against
        # the quadrature representation of D_{-1/2}
        for z in (-30.0, -5.0, -0.3, 0.0, 0.3, 5.0, 30.0):
            P = 0.5 - z
            exact = math.exp(-0.5 * P * P + 0.25 * z * z) \
                * parabolic_cylinder_D(-0.5, z) / (2.0 * math.sqrt(math.pi))
            assert classical(P) == pytest.approx(exact, rel=1e-10), z

    def test_classical_convolution_oracle(self):
        # density of Z + Xi^2 at P by direct 1d quadrature
        for P in (-1.0, 0.3, 2.0, 7.0):
            def f(s):
                return math.exp(-0.5 * (P - s) ** 2) \
                    * math.exp(-s / 2.0) / math.sqrt(2.0 * math.pi * s) \
                    / math.sqrt(2.0 * math.pi)
            oracle = integrate.quad(f, 0.0, P + 40.0, epsabs=1e-13,
                                    points=[0.0], limit=200)[0]
            assert classical(P) == pytest.approx(oracle, rel=1e-8)

    def test_array_and_scalar_agree(self):
        p = np.array([-0.5, 0.25, 1.0, 4.0])
        qa = quantum(p)
        ca = classical(p)
        for i, pi in enumerate(p):
            assert qa[i] == quantum(float(pi))
            assert ca[i] == classical(float(pi))


@pytest.fixture(scope="module")
def grid():
    p = np.linspace(-16.0, 60.0, 1 << 15)
    return p, float(p[1] - p[0])


class TestNormalizationAndMoments:
    def test_normalization(self, grid):
        p, dp = grid
        assert float(quantum(p).sum() * dp) == pytest.approx(1.0, abs=1e-8)
        assert float(classical(p).sum() * dp) == pytest.approx(1.0, abs=1e-8)

    def test_h_independence_at_standard(self, grid):
        p, _ = grid
        for other_h in (0.2, 0.01):
            sch = standard_schedule(other_h)
            alt = quantum_momentum_pdf(p, sch.tau1, sch.tau2, sch.tau3, other_h)
            assert np.abs(alt - quantum(p)).max() < 1e-10
            altc = classical_momentum_pdf(p, sch.tau1, sch.tau2, sch.tau3,
                                          other_h)
            assert np.abs(altc - classical(p)).max() < 1e-10

    @pytest.mark.parametrize("kind,m3", [("classical", 8.0), ("quantum", 6.0)])
    def test_cumulants(self, grid, kind, m3):
        p, dp = grid
        q = classical(p) if kind == "classical" else quantum(p)
        mean = float((q * p).sum() * dp)
        c = p - mean
        var = float((q * c ** 2).sum() * dp)
        third = float((q * c ** 3).sum() * dp)
        fourth = float((q * c ** 4).sum() * dp)
        # law S(Z + g Xi^2) with S = 1, g = 1 at the standard schedule
        assert mean == pytest.approx(1.0, abs=1e-7)
        assert var == pytest.approx(3.0, abs=1e-6)
        assert third == pytest.approx(m3, abs=1e-5)
        if kind == "classical":
            assert fourth == pytest.approx(3.0 * (1 + 4 + 20) + 3 * var ** 2
                                           - 3 * 9, abs=1e-4)

    def test_predicted_moments_match_quadrature(self, grid):
        p, dp = grid
        for kind, pdf in (("classical", classical(p)), ("quantum", quantum(p))):
            m = predicted_moments(3, *ARGS, kind=kind)
            mean = float((pdf * p).sum() * dp)
            c = p - mean
            assert m.mean_p == pytest.approx(mean, abs=1e-7)
            assert m.var_p == pytest.approx(float((pdf * c ** 2).sum() * dp),
                                            abs=1e-6)
            assert m.m3_p == pytest.approx(float((pdf * c ** 3).sum() * dp),
                                           abs=1e-5)
            assert m.m4_p == pytest.approx(float((pdf * c ** 4).sum() * dp),
                                           abs=1e-4)


    @pytest.mark.parametrize("tau2", [0.5, 1.0, 2.0])
    def test_quantum_is_classical_times_moyal_phase(self, tau2):
        # the quantum term is the momentum multiplier exp(-i (tau2/3) k^3)
        # in these units, applied to the classical density
        sch = replace(SCH, tau2=tau2)
        args = (sch.tau1, sch.tau2, sch.tau3, H)
        sigma = math.sqrt(1.0 + 2.0 * tau2 * tau2)
        lo, hi = -40.0 - 2.0 * sigma, 60.0 * tau2 + 20.0 * sigma
        n = 1 << 16
        p = lo + (hi - lo) * np.arange(n) / n
        dp = float(p[1] - p[0])
        k = 2.0 * math.pi * np.fft.rfftfreq(n, d=dp)
        spec = np.fft.rfft(classical_momentum_pdf(p, *args))
        q = np.fft.irfft(spec * np.exp(-1j * (tau2 / 3.0) * k ** 3), n=n)
        inside = (p > -14.0) & (p < 40.0 * tau2 + 12.0 * sigma)
        ref = quantum_momentum_pdf(p[inside], *args)
        assert float(np.abs(q[inside] - ref).sum() * dp) <= 1e-11


class TestPredictedMoments:
    def test_initial(self):
        m = predicted_moments(0, *ARGS)
        assert (m.var_x, m.var_p) == (H, H)
        assert m.m4_x == pytest.approx(3 * H * H)

    def test_stretch(self):
        m = predicted_moments(1, *ARGS)
        assert m.var_x == pytest.approx(H * math.exp(2 * SCH.tau1), rel=1e-12)
        assert m.var_p == pytest.approx(H * math.exp(-2 * SCH.tau1), rel=1e-12)

    def test_third_moment_splitting(self):
        mq = predicted_moments(2, *ARGS, kind="quantum")
        mc = predicted_moments(2, *ARGS, kind="classical")
        assert mc.m3_p - mq.m3_p == pytest.approx(2 * SCH.tau2 * H * H,
                                                  rel=1e-12)
        for name in ("mean_p", "var_x", "var_p", "m4_p"):
            assert getattr(mq, name) == getattr(mc, name)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            predicted_moments(4, *ARGS)
        with pytest.raises(InvalidParameterError):
            predicted_moments(2, *ARGS, kind="exact")


class TestConstants:
    # Taken from the Airy evaluation of q and q'' that _unit_pair
    # replaced: both are sums on the same grid and agree to 1e-12. c_bar
    # and c0 at tau2 = 0.5 and 1 are taken after the classical convolution
    # took the exact linspace spacing, which moved them by up to 3.9e-11.
    PINNED = {
        0.5: {"C1": 1.838637451692019, "C2": 0.4050469944819369,
              "C3": 0.9678828980765735, "C4": 1.3696210320594837,
              "C5": 0.763008005155137, "C_qu": 2.1086687813466436,
              "C_cl": 2.231159978267969, "c_bar": 0.18025674623127869,
              "c0": 0.03860134946818447, "C_total": 4.339828759614613},
        1.0: {"C1": 3.598076211353316, "C2": 0.3725952856812489,
              "C3": 0.9678828980765735, "C4": 1.3696210320594837,
              "C5": 0.6000382051012212, "C_qu": 3.8464730684741486,
              "C_cl": 2.7039083375588824, "c_bar": 0.2726067146638202,
              "c0": 0.06412250538099516, "C_total": 6.550381406033031},
        2.0: {"C1": 10.882069249684543, "C2": 0.35000504760560797,
              "C3": 0.9678828980765735, "C4": 1.3696210320594837,
              "C5": 0.4409779284695563, "C_qu": 11.11540594808828,
              "C_cl": 2.9617929041968507, "c_bar": 0.37239084874409023,
              "c0": 0.08087122511517145, "C_total": 14.077198852285132},
        4.0: {"C1": 40.11293412578295, "C2": 0.3359663124794474,
              "C3": 0.9678828980765735, "C4": 1.3696210320594837,
              "C5": 0.31408777909155006, "C_qu": 40.33691166743591,
              "C_cl": 3.017161576142877, "c_bar": 0.4611118424760905,
              "c0": 0.08379942392053914, "C_total": 43.35407324357879},
        10.0: {"C1": 244.7762160906105, "C2": 0.3258521739837719,
               "C3": 0.9678828980765735, "C4": 1.3696210320594837,
               "C5": 0.1981236124160294, "C_qu": 244.99345087326634,
               "C_cl": 2.996068454910671, "c_bar": 0.5459828352737243,
               "c0": 0.07292474648880966, "C_total": 247.989519328177},
    }

    def test_reference_values(self):
        for tau2, pins in self.PINNED.items():
            k = constants(tau2)
            for name, target in pins.items():
                assert getattr(k, name) == pytest.approx(target, rel=1e-12), \
                    (tau2, name)

    def test_c1_closed_form(self):
        assert constants(1.0).C1 == pytest.approx(
            0.25 * (1 + math.sqrt(3) + 3 + math.sqrt(75)), rel=1e-14)

    def test_c2_against_independent_second_derivative(self):
        # second derivative by finite differences of the density itself
        p = np.linspace(-14.0, 46.0, 1 << 15)
        dp = float(p[1] - p[0])
        q = quantum(p)
        q2 = (q[2:] - 2 * q[1:-1] + q[:-2]) / dp ** 2
        est = 0.5 * float(np.abs(q2).sum() * dp)
        assert constants(1.0).C2 == pytest.approx(est, rel=1e-4)

    def test_tau2_dependence(self):
        k10 = constants(10.0)
        assert isinstance(k10, BoundConstants)
        assert k10.C1 > constants(1.0).C1
        assert k10.c_bar < 2.0

    def test_cached(self):
        assert constants(1.0) is constants(1.0)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            constants(-1.0)


class TestQuantumUnitPair:
    """The FFT pair that constants() sums, on its own standard grid."""

    @staticmethod
    def _pair(tau2):
        p = closedform._standard_grid(tau2)
        return p, *closedform._unit_pair(p, tau2)

    @pytest.mark.parametrize("tau2", [0.5, 1.0, 2.0])
    def test_against_mpmath(self, tau2):
        # q = amp e^expo Ai(zeta)^2 with expo' = -1/(2g), zeta' constant and
        # Ai'' = zeta Ai, so q'' = amp e^expo [b^2 Ai^2 + 4 b z' Ai Ai'
        # + 2 z'^2 (Ai'^2 + zeta Ai^2)]
        mpmath = pytest.importorskip("mpmath")
        p, q, q2 = self._pair(tau2)
        near = np.flatnonzero(
            np.abs(closedform._quantum_args(p, tau2)[1]) <= 50.0)
        with mpmath.workdps(40):
            g = mpmath.mpf(tau2)
            c = mpmath.mpf(2) ** (mpmath.mpf(8) / 3) * mpmath.cbrt(g)
            amp = (mpmath.mpf(2) ** (mpmath.mpf(1) / 6)
                   * mpmath.sqrt(mpmath.pi) / mpmath.cbrt(g) ** 2)
            b, zp = -1 / (2 * g), -4 / c
            for i in np.linspace(near[0], near[-1], 25).astype(int):
                P = mpmath.mpf(float(p[i]))
                zeta = (1 / g - 4 * P) / c
                ai = mpmath.airyai(zeta)
                aip = mpmath.airyai(zeta, derivative=1)
                ea = amp * mpmath.exp((1 / g - 6 * P) / (12 * g))
                want = ea * ai * ai
                want2 = ea * (b * b * ai * ai + 4 * b * zp * ai * aip
                              + 2 * zp * zp * (aip * aip + zeta * ai * ai))
                assert abs(q[i] - float(want)) <= 1e-13 * q.max(), P
                assert abs(q2[i] - float(want2)) <= 1e-13 * np.abs(q2).max(), P

    @pytest.mark.parametrize("tau2", [0.5, 1.0, 2.0, 4.0, 10.0])
    def test_matches_airy_curve(self, tau2):
        p, q, _ = self._pair(tau2)
        ref = closedform._quantum_unit_curve(p, tau2)
        assert np.abs(q - ref).max() <= 1e-14 * ref.max()

    @pytest.mark.parametrize("tau2", [0.5, 1.0, 2.0])
    def test_no_wraparound(self, tau2):
        # the same nodes inside a grid twice as long: a 4n transform
        p = closedform._standard_grid(tau2)
        n = len(p)
        d = (p[-1] - p[0]) / (n - 1)
        long = p[0] + d * np.arange(2 * n)
        q, q2 = closedform._unit_pair(long[:n], tau2)
        r, r2 = closedform._unit_pair(long, tau2)
        assert np.abs(r[:n] - q).max() <= 1e-15 * q.max()
        assert np.abs(r2[:n] - q2).max() <= 2e-15 * np.abs(q2).max()


class TestClassicalUnitPair:
    """The same FFT pair without the Moyal phase, and the helper that serves
    both densities on uniform grids in lab momentum."""

    @pytest.mark.parametrize("tau2", [0.5, 1.0, 2.0, 4.0, 10.0])
    def test_matches_bessel_form(self, tau2):
        # tau1 = tau3 = 1e-300 at h = 1 gives S = 1 and g = tau2 exactly
        p = closedform._standard_grid(tau2)
        c, _ = closedform._unit_pair(p, tau2, quantum=False)
        ref = classical_momentum_pdf(p, 1e-300, tau2, 1e-300, 1.0)
        assert np.abs(c - ref).max() <= 2e-14 * ref.max()

    @pytest.mark.parametrize("tau2", [0.5, 2.0])
    def test_second_derivative(self, tau2):
        p = closedform._standard_grid(tau2, n=1 << 13)
        c, c2 = closedform._unit_pair(p, tau2, quantum=False)
        dp = (p[-1] - p[0]) / (len(p) - 1)
        fd = (c[2:] - 2.0 * c[1:-1] + c[:-2]) / dp ** 2
        assert np.abs(fd - c2[1:-1]).max() <= 1e-4 * np.abs(c2).max()

    def test_grid_pdfs_at_general_schedule(self):
        args = (0.4, 0.5, 1.2, 0.05)
        p = np.linspace(-6.0, 20.0, 1 << 12)
        q, c = closedform._grid_pdfs(p, *args)
        for got, ref in ((q, quantum_momentum_pdf(p, *args)),
                         (c, classical_momentum_pdf(p, *args))):
            assert np.abs(got - ref).max() <= 2e-14 * ref.max()


class TestClassicalConvolution:
    """constants()' classical terms: exact Gamma cell masses convolved with
    the normal density and its second derivative."""

    # at tau2 = 4 and 10 (d = 0.127 and 0.302) the masses past
    # P[-1] + sqrt(1492) are cut, and the reference keeps them all
    @pytest.mark.parametrize("tau2, n", [(0.5, 1 << 10), (1.0, 1 << 10),
                                         (4.0, 1 << 11), (10.0, 1 << 11)],
                             ids=["0.5", "1.0", "4.0", "10.0"])
    def test_against_direct_sum(self, tau2, n):
        from scipy.special import erf
        p = closedform._standard_grid(tau2, n=n)
        c, c2 = closedform._classical_convolution(p, tau2)
        d = (p[-1] - p[0]) / (len(p) - 1)
        edges = d * np.arange(math.ceil(90.0 * tau2 / d) + 1)
        masses = np.diff(erf(np.sqrt(edges / (2.0 * tau2))))
        t = p[:, None] - 0.5 * (edges[1:] + edges[:-1])[None, :]
        phi = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        for got, kernel in ((c, phi), (c2, (t * t - 1.0) * phi)):
            ref = kernel @ masses
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_one_rfft_and_two_irfft(self, monkeypatch):
        calls = []
        for name in ("rfft", "irfft"):
            f = getattr(closedform.sfft, name)
            monkeypatch.setattr(closedform.sfft, name,
                                lambda *a, f=f, name=name, **k:
                                calls.append(name) or f(*a, **k))
        closedform._classical_convolution(closedform._standard_grid(1.0), 1.0)
        assert sorted(calls) == ["irfft", "irfft", "rfft"]


class TestDuhamelBound:
    def test_standard_form(self):
        h = math.exp(-6.0)
        sch = standard_schedule(h)
        val = duhamel_bound("quantum", h, h ** (4.0 / 3.0), sch)
        assert val == pytest.approx(7.0 * constants(1.0).C_qu, rel=1e-9)
        assert val == pytest.approx(26.925, abs=2e-3)

    def test_linearity_in_d(self):
        sch = standard_schedule(0.1)
        b1 = duhamel_bound("classical", 0.1, 1e-4, sch)
        b2 = duhamel_bound("classical", 0.1, 2e-4, sch)
        assert b2 == pytest.approx(2 * b1, rel=1e-12)

    def test_quantum_exceeds_classical_at_standard(self):
        sch = standard_schedule(0.05)
        assert duhamel_bound("quantum", 0.05, 1e-3, sch) > \
            duhamel_bound("classical", 0.05, 1e-3, sch)

    def test_nonstandard_two_term_form(self):
        sch = Schedule(tau1=0.3, tau2=2.0, tau3=1.5)
        k = constants(2.0)
        d = 1e-3
        expected = k.C1 * (0.3 + 2.0) * d * math.exp(0.6) / 0.05 \
            + k.C2 * 1.5 * d * math.exp(3.0)
        assert duhamel_bound("quantum", 0.05, d, sch) == \
            pytest.approx(expected, rel=1e-12)
        # tau2^2 = 4: (1 + 4 tau2^2) / (1 + 2 tau2^2) = 17/9 and
        # tau2 / sqrt(1 + 2 tau2^2) = 2/3
        expected = (k.C3 * 17.0 / 9.0 + k.C4 * 2.0 / 3.0) \
            * (0.3 + 2.0) * d * math.exp(0.6) / 0.05 \
            + 0.5 * k.C5 * 1.5 * d * math.exp(3.0)
        assert duhamel_bound("classical", 0.05, d, sch) == \
            pytest.approx(expected, rel=1e-12)

    def test_validity_gate(self):
        sch = Schedule(tau1=1.0, tau2=1.0, tau3=1.0)
        with pytest.raises(InvalidParameterError,
                           match=r"tau1 < \(1/4\) log\(1/h\)"):
            duhamel_bound("quantum", 0.5, 1e-3, sch)

    def test_invalid_side(self):
        with pytest.raises(InvalidParameterError):
            duhamel_bound("exact", 0.05, 1e-3, SCH)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("slot", ["tau1", "tau2", "tau3", "h"])
    def test_densities_and_moments(self, slot, bad):
        args = dict(zip(("tau1", "tau2", "tau3", "h"), ARGS), **{slot: bad})
        for density in (quantum_momentum_pdf, classical_momentum_pdf):
            with pytest.raises(InvalidParameterError):
                density(np.array([0.0, 1.0]), **args)
        with pytest.raises(InvalidParameterError):
            predicted_moments(3, **args)

    @pytest.mark.parametrize("tau2", [math.nan, math.inf])
    def test_constants(self, tau2):
        with pytest.raises(InvalidParameterError):
            constants(tau2)

    @pytest.mark.parametrize("h, D", [(math.nan, 1e-3), (math.inf, 1e-3),
                                      (0.05, math.nan), (0.05, math.inf)])
    def test_duhamel_bound(self, h, D):
        for side in ("quantum", "classical"):
            with pytest.raises(InvalidParameterError):
                duhamel_bound(side, h, D, SCH)


class TestRangeGuards:
    @pytest.mark.parametrize("p,tau2", [(150.0, 4.0), (80.0, 1.0),
                                        (-100.0, 1.0), (400.0, 10.0)])
    def test_quantum_far_tail_against_mpmath(self, p, tau2):
        # Airy arguments -59.5, -50.2, 63.2 and -117.0: both sides of
        # |zeta| = 50, where Ai^2 underflows while the exponential overflows
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            g = mpmath.mpf(tau2)  # S = 1 and g = tau2 at the standard schedule
            P = mpmath.mpf(p)
            amp = (mpmath.mpf(2) ** (mpmath.mpf(1) / 6)
                   * mpmath.sqrt(mpmath.pi) / mpmath.cbrt(g) ** 2)
            zeta = (1 / g - 4 * P) / (mpmath.mpf(2) ** (mpmath.mpf(8) / 3)
                                      * mpmath.cbrt(g))
            exact = float(amp * mpmath.exp((1 / g - 6 * P) / (12 * g))
                          * mpmath.airyai(zeta) ** 2)
        got = quantum_momentum_pdf(p, SCH.tau1, tau2, SCH.tau3, H)
        assert abs(got - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("p,tau2", [(-1e4, 1.0), (-300.0, 10.0)])
    def test_quantum_underflows_to_zero(self, p, tau2):
        # exp(expo) alone would overflow here
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert quantum_momentum_pdf(p, SCH.tau1, tau2, SCH.tau3, H) == 0.0

    @pytest.mark.parametrize("density", [quantum_momentum_pdf,
                                         classical_momentum_pdf])
    @pytest.mark.parametrize("schedule, h", [
        (standard_schedule(0.1), 0.1), (Schedule(0.4, 0.5, 1.2), H)],
        ids=["standard", "general"])
    def test_underflow_is_zero_far_out(self, density, schedule, h):
        # scipy's Airy functions are NaN past arguments of about 1e6 and
        # its Bessel functions past about 1e9, and zeta^(3/2) overflows
        # past p = -1e210; exp() has long underflowed by then. Near the
        # float range p / S and the Airy arguments overflow to +-inf, and
        # at +-inf the density is 0.0 too
        p = np.array([1e5, -1e5, 1e7, -1e7, 1e300, -1e300, 3e307, -3e307,
                      1e308, -1e308, 1.7e308, -1.7e308, math.inf,
                      -math.inf])
        args = (schedule.tau1, schedule.tau2, schedule.tau3, h)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = density(p, *args)
            assert np.array_equal(got, np.zeros_like(p))
            for v in p:
                assert density(v, *args) == 0.0
            assert math.isnan(density(math.nan, *args))
            assert np.isnan(density(np.array([math.nan, 0.0, -math.inf]),
                                    *args)).tolist() == [True, False, False]

    def test_classical_far_tail_fallback(self):
        # past |z| = 36, where the quadrature form of D_{-1/2} would overflow
        val = classical(45.0)
        assert 0.0 < val < 1e-8

    @pytest.mark.parametrize("tau2,p", [(10.0, 261.19), (4.0, 176.6)])
    def test_classical_far_right_tail_against_mpmath(self, tau2, p):
        # far out in the right tail the density is a narrow peak of the
        # chi-squared component at s ~ P, which a per-point quadrature of
        # the convolution can miss entirely
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            g = mpmath.mpf(tau2)  # S = 1 and g = tau2 at the standard schedule
            z = 1 / (2 * g) - p
            exact = float(mpmath.exp(-mpmath.mpf(p) ** 2 / 2 + z * z / 4)
                          * mpmath.pcfd(-0.5, z)
                          / (2 * mpmath.sqrt(mpmath.pi * g)))
        got = classical_momentum_pdf(p, SCH.tau1, tau2, SCH.tau3, H)
        assert got == pytest.approx(exact, rel=1e-10)
