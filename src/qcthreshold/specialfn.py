"""The parabolic cylinder function D_ell from its real integral
representation (valid for ell < 0): the tests' quadrature reference for
the classical density. The closed forms themselves take Bessel and Airy
functions from scipy.special directly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from .errors import DomainError, RangeError

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


def parabolic_cylinder_D(ell: float, z):
    """Parabolic cylinder function D_ell(z) for ell < 0.

    Computed from the real integral representation
        D_ell(z) = exp(-z^2/4) / Gamma(-ell) * int_0^inf e^{-zs - s^2/2} s^{-ell-1} ds,
    which is valid only for Re(ell) < 0. Accepts scalar or array z with
    |z| <= PCF_MAX_ARG.
    """
    if ell >= 0:
        raise DomainError("integral representation of D_ell requires ell < 0")
    arr = np.asarray(z, dtype=float)
    if np.any(np.abs(arr) > PCF_MAX_ARG):
        raise RangeError(f"parabolic_cylinder_D argument exceeds |z| = {PCF_MAX_ARG}")
    norm = 1.0 / math.gamma(-ell)

    def one(zv: float) -> float:
        return norm * math.exp(-zv * zv / 4.0) * _pcf_integral(ell, zv)

    if np.isscalar(z) or arr.ndim == 0:
        return one(float(arr))
    return np.array([one(zv) for zv in arr.ravel()]).reshape(arr.shape)
