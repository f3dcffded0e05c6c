"""Special-function tests.

The Airy values the closed forms take from scipy.special.airy are
cross-checked against quadrature of the oscillatory integral identity
2*pi*Ai(z) = int exp(i(t^3/3 + z t)) dt along the ray t = s * exp(i*pi/6),
on which the integrand decays like exp(-s^3/3).
"""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import airy

from qcthreshold.errors import InvalidParameterError
from qcthreshold.specialfn import parabolic_cylinder_D


def airy_ai(z):
    return airy(z)[0]


def airy_ai_prime(z):
    return airy(z)[1]


def airy_quadrature_oracle(z: float) -> float:
    """Ai(z) from the rotated-contour integral, independent of the library."""
    w = complex(math.cos(math.pi / 6.0), math.sin(math.pi / 6.0))

    def f_re(s):
        return (w * np.exp(-s ** 3 / 3.0 + 1j * z * s * w)).real

    def f_im(s):
        return (w * np.exp(-s ** 3 / 3.0 + 1j * z * s * w)).imag

    re = integrate.quad(f_re, 0.0, np.inf, epsabs=1e-14, limit=300)[0]
    integrate.quad(f_im, 0.0, np.inf, epsabs=1e-14, limit=300)  # smoke only
    return re / math.pi


class TestAiry:
    def test_value_at_zero(self):
        exact = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
        assert airy_ai(0.0) == pytest.approx(exact, abs=1e-13)
        assert exact == pytest.approx(0.3550280539, abs=1e-9)

    def test_value_at_one_against_quadrature(self):
        oracle = airy_quadrature_oracle(1.0)
        assert oracle == pytest.approx(0.1352924163, abs=1e-9)
        assert airy_ai(1.0) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("z", [-8.0, -3.0, -1.0, 0.5, 2.0, 5.0])
    def test_against_quadrature_oracle(self, z):
        assert airy_ai(z) == pytest.approx(airy_quadrature_oracle(z), abs=1e-11)

    def test_first_zero_bracket(self):
        lo, hi = -2.34, -2.33
        assert airy_ai(lo) * airy_ai(hi) < 0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if airy_ai(lo) * airy_ai(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert 0.5 * (lo + hi) == pytest.approx(-2.3381, abs=1e-4)

    def test_ode_residual(self):
        # cancellation in the centered difference floors the residual near
        # eps_machine / step^2 ~ 5e-8, so the tolerance sits just above that
        eps = 1e-4
        for z in np.arange(-5.0, 5.5, 1.0):
            second = (airy_ai(z + eps) - 2.0 * airy_ai(z)
                      + airy_ai(z - eps)) / eps ** 2
            assert abs(second - z * airy_ai(z)) < 1e-7

    def test_prime_consistent(self):
        eps = 1e-6
        fd = (airy_ai(1.0 + eps) - airy_ai(1.0 - eps)) / (2 * eps)
        assert airy_ai_prime(1.0) == pytest.approx(fd, abs=1e-8)

    def test_array_input(self):
        z = np.array([-1.0, 0.0, 1.0])
        out = airy_ai(z)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(airy_ai(0.0))


class TestParabolicCylinder:
    def test_value_at_zero(self):
        # substitution u = s^2/2 reduces the integral to a Gamma function
        exact = 2.0 ** (-0.75) * math.gamma(0.25) / math.gamma(0.5)
        assert exact == pytest.approx(1.2163, abs=1e-4)
        assert parabolic_cylinder_D(-0.5, 0.0) == pytest.approx(exact, rel=1e-10)

    def test_domain_error(self):
        with pytest.raises(InvalidParameterError, match="requires ell < 0"):
            parabolic_cylinder_D(0.5, 1.0)
        with pytest.raises(InvalidParameterError, match="requires ell < 0"):
            parabolic_cylinder_D(0.0, 1.0)

    def test_large_z_decay(self):
        z = 20.0
        val = parabolic_cylinder_D(-0.5, z) * math.exp(z * z / 4.0) * math.sqrt(z)
        assert val == pytest.approx(1.0, rel=1e-2)

    def test_range_guard(self):
        with pytest.raises(InvalidParameterError, match=r"exceeds \|z\| = 36"):
            parabolic_cylinder_D(-0.5, 40.0)

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_substitution_invariance(self, c):
        # rescaling s -> s/c in the defining integral must leave the value
        # unchanged: int e^{-zs-s^2/2} s^{-1/2} ds
        #          = c^{1/2} int e^{-zcs-(cs)^2/2} s^{-1/2} ds
        z = 0.7
        base = integrate.quad(
            lambda u: 2.0 * math.exp(-z * u * u - u ** 4 / 2.0),
            0, 6.0, epsabs=1e-14)[0]
        scaled = math.sqrt(c) * integrate.quad(
            lambda u: 2.0 * math.exp(-z * c * u * u - (c * u * u) ** 2 / 2.0),
            0, 6.0 / math.sqrt(c) + 1.0, epsabs=1e-14)[0]
        assert base == pytest.approx(scaled, rel=1e-10)
        direct = (parabolic_cylinder_D(-0.5, z) * math.gamma(0.5)
                  * math.exp(z * z / 4.0))
        assert direct == pytest.approx(base, rel=1e-10)

    def test_ell_other_than_half(self):
        # D_{-1}(z) = e^{z^2/4} sqrt(pi/2) erfc(z / sqrt 2)
        z = 0.8
        exact = math.exp(z * z / 4.0) * math.sqrt(math.pi / 2.0) \
            * (1.0 - math.erf(z / math.sqrt(2.0)))
        assert parabolic_cylinder_D(-1.0, z) == pytest.approx(exact, rel=1e-9)
