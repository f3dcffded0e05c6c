"""Special functions used by the closed-form evaluators and their tests.

Airy Ai, the parabolic cylinder function D_ell (via its real integral
representation, valid for ell < 0), Gamma and erf.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy import special as _sp

from .errors import DomainError, RangeError

__all__ = [
    "airy_ai",
    "airy_ai_prime",
    "parabolic_cylinder_D",
    "gamma",
    "erf",
]

gamma = math.gamma
erf = math.erf

#: |z| beyond which airy_ai refuses to evaluate (deep under/overflow regime).
AIRY_MAX_ARG = 50.0

#: |z| beyond which the D_ell integrand would overflow double precision.
PCF_MAX_ARG = 36.0


def airy_ai(z):
    """Airy function Ai(z) for real z with |z| <= AIRY_MAX_ARG.

    Accepts scalars or arrays. Backed by the library implementation; the
    test suite cross-checks it against quadrature of the oscillatory
    integral representation along a rotated contour.
    """
    arr = np.asarray(z, dtype=float)
    if np.any(np.abs(arr) > AIRY_MAX_ARG):
        raise RangeError(f"airy_ai argument exceeds |z| = {AIRY_MAX_ARG}")
    ai = _sp.airy(arr)[0]
    return float(ai) if np.isscalar(z) or arr.ndim == 0 else ai


def airy_ai_prime(z):
    """Derivative Ai'(z), same domain policy as :func:`airy_ai`."""
    arr = np.asarray(z, dtype=float)
    if np.any(np.abs(arr) > AIRY_MAX_ARG):
        raise RangeError(f"airy_ai_prime argument exceeds |z| = {AIRY_MAX_ARG}")
    aip = _sp.airy(arr)[1]
    return float(aip) if np.isscalar(z) or arr.ndim == 0 else aip


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
    norm = 1.0 / gamma(-ell)

    def one(zv: float) -> float:
        return norm * math.exp(-zv * zv / 4.0) * _pcf_integral(ell, zv)

    if np.isscalar(z) or arr.ndim == 0:
        return one(float(arr))
    return np.array([one(zv) for zv in arr.ravel()]).reshape(arr.shape)
