"""The parabolic cylinder function D_ell at one real argument, from its
real integral representation (valid for ell < 0): the tests' quadrature
reference for the classical density. The closed forms themselves take
Bessel and Airy functions from scipy.special directly.
"""

from __future__ import annotations

import math

from scipy import integrate

from .errors import InvalidParameterError

__all__ = [
    "parabolic_cylinder_D",
]

#: |z| beyond which the D_ell integrand would overflow double precision.
PCF_MAX_ARG = 36.0


def _pcf_integral(ell: float, z: float) -> float:
    """Integral part of D_ell: int_0^inf exp(-z*s - s^2/2) s^(-ell-1) ds.

    Uses s = u**2, which turns the s^(-1/2) endpoint singularity at
    ell = -1/2 into a smooth integrand:
        2 * int_0^inf exp(-z*u^2 - u^4/2) u^(-2*ell - 1) du
    """
    # Truncate where the exponent is below -800 relative to its maximum.
    zmag = abs(z)
    upper = math.sqrt(zmag + math.sqrt(zmag * zmag + 1600.0)) + 1.0

    def integrand(u):
        return 2.0 * math.exp(-z * u * u - 0.5 * u ** 4) * u ** (-2.0 * ell - 1.0)

    out = integrate.quad(integrand, 0.0, upper, epsabs=1e-14, epsrel=1e-12, limit=400)
    return out[0]


def parabolic_cylinder_D(ell: float, z: float) -> float:
    """Parabolic cylinder function D_ell(z) for ell < 0 at one real z with
    |z| <= PCF_MAX_ARG.

    Computed from the real integral representation
        D_ell(z) = exp(-z^2/4) / Gamma(-ell) * int_0^inf e^{-zs - s^2/2} s^{-ell-1} ds,
    which is valid only for Re(ell) < 0.
    """
    if ell >= 0:
        raise InvalidParameterError(
            "integral representation of D_ell requires ell < 0")
    if abs(z) > PCF_MAX_ARG:
        raise InvalidParameterError(
            f"parabolic_cylinder_D argument exceeds |z| = {PCF_MAX_ARG}")
    norm = 1.0 / math.gamma(-ell)
    return norm * math.exp(-z * z / 4.0) * _pcf_integral(ell, z)
