"""Analytic final-time momentum distributions, checkpoint moment tables,
and the error-bound constants of the diffusive correction estimates.

The closed evolution sends the initial coherent state through stretch,
cubic kick, and squeeze. The final quantum momentum density is an Airy
function squared times an exponential; the classical one is the law of
Z + g*Xi^2 with Z standard normal and Xi standard normal independent,
expressible through the parabolic cylinder function D_{-1/2}.

Scaled variables used throughout: with

    S = sqrt(h) * exp(tau3 - tau1)      (momentum scale at the final time)
    g = tau2 * sqrt(h) * exp(3*tau1)    (kick strength in scaled units)

the final classical momentum is S * (Z + g*Xi^2). At the standard
durations tau1 = (1/6)log(1/h), tau3 = (2/3)log(1/h) both S = 1 and
g = tau2, which is why the final densities are h-independent there.
Both densities are evaluated in (P = p/S, g), each by one evaluator at any
finite points (quantum_momentum_pdf by Airy, classical_momentum_pdf by
Bessel forms; fig2's windows do not hold the mass and use these) and one on
uniform grids (_unit_pair, an inverse FFT of the characteristic function;
_grid_pdfs in lab momentum for the sweep's L1s and fig3 on _standard_grid).
constants()' classical terms keep their Gamma-mass sums until the stored
reference constants are regenerated (ROADMAP Direction 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft as sfft
from scipy.special import airy as _airy, airye as _airye, erf as _erf
from scipy.special import ive as _ive, kve as _kve

from .core import MomentRecord, Schedule, is_standard_schedule
from .errors import InvalidParameterError

__all__ = [
    "BoundConstants",
    "quantum_momentum_pdf",
    "classical_momentum_pdf",
    "predicted_moments",
    "constants",
    "duhamel_bound",
]

#: Airy argument past which the quantum density takes the scaled airye;
#: constants() also sums the quantum terms over |zeta| <= _AIRY_CUT only.
_AIRY_CUT = 50.0
#: D_{-1/2}(0) = sqrt(pi) / (2^(1/4) Gamma(3/4)).
_PCF_HALF_AT_ZERO = math.sqrt(math.pi) / (2.0 ** 0.25 * math.gamma(0.75))
#: exp() of an exponent below this is 0.0 in double precision (the last
#: nonzero value is at -745.13); the densities are 0.0 there, and their
#: special functions, which scipy returns as NaN at large arguments, are
#: not evaluated.
_UNDERFLOW_CUT = -746.0


def _scales(tau1: float, tau2: float, tau3: float, h: float):
    if not all(math.isfinite(v) and v > 0 for v in (tau1, tau2, tau3, h)):
        raise InvalidParameterError(
            "need h and all durations positive and finite")
    S = math.sqrt(h) * math.exp(tau3 - tau1)
    g = tau2 * math.sqrt(h) * math.exp(3.0 * tau1)
    return S, g


def quantum_momentum_pdf(p, tau1: float, tau2: float, tau3: float, h: float):
    """Final-time quantum momentum density _quantum_unit_curve(p/S, g) / S.

    Accepts scalar or array p; finite at every finite p, 0.0 where the
    density underflows and at p = +-inf, NaN at NaN.
    """
    S, g = _scales(tau1, tau2, tau3, h)
    arr = np.asarray(p, dtype=float)
    with np.errstate(over="ignore"):  # P, expo and zeta may overflow to inf
        out = _quantum_unit_curve(np.atleast_1d(arr) / S, g) / S
    return float(out[0]) if arr.ndim == 0 else out


def classical_momentum_pdf(p, tau1: float, tau2: float, tau3: float, h: float):
    """Final-time classical momentum density.

    In scaled units P = p/S the density is
        (1 / (2 sqrt(pi g))) * exp[-P^2/2 + z^2/4] * D_{-1/2}(z),  z = 1/(2g) - P,
    divided by S to return to lab momentum. D_{-1/2} is evaluated through
    its Bessel forms (DLMF 12.7.10) with exponentially scaled Bessel
    functions, so the large factor e^{z^2/4} cancels analytically:
        z > 0:  e^{z^2/4} D_{-1/2}(z) = sqrt(z/(2 pi)) kve(1/4, z^2/4),
        z < 0:  e^{-z^2/4} D_{-1/2}(z)
                    = (sqrt(pi w)/2) [ive(-1/4, w^2/4) + ive(1/4, w^2/4)],
    with w = -z; in the second case the leftover exponent
    -P^2/2 + w^2/2 = 1/(8g^2) - P/(2g) is formed without cancellation.
    Where z^2/4 vanishes the limit D_{-1/2}(0) is used. Accepts scalar or
    array p; finite at every finite p, 0.0 where the density underflows
    and at p = +-inf, NaN at NaN.
    """
    S, g = _scales(tau1, tau2, tau3, h)
    arr = np.asarray(p, dtype=float)
    with np.errstate(over="ignore"):  # +-inf past the float range
        P = np.atleast_1d(arr) / S
        z = 1.0 / (2.0 * g) - P
        lead = 1.0 / (8.0 * g * g) - P / (2.0 * g)
    # the exponent is lead where z < 0, else -P^2/2, which is tested
    # through |P| so that it cannot overflow; NaN is evaluated
    live = ~np.where(z < 0, lead <= _UNDERFLOW_CUT,
                     np.abs(P) >= math.sqrt(-2.0 * _UNDERFLOW_CUT))
    out = np.zeros_like(P)
    P, z, lead = P[live], z[live], lead[live]
    x = 0.25 * z * z
    right = (z > 0) & (x > 0)
    left = (z < 0) & (x > 0)
    scaled = np.full_like(P, _PCF_HALF_AT_ZERO)
    scaled[right] = (np.sqrt(z[right] / (2.0 * math.pi))
                     * _kve(0.25, x[right]))
    scaled[left] = (0.5 * np.sqrt(-math.pi * z[left])
                    * (_ive(-0.25, x[left]) + _ive(0.25, x[left])))
    expo = np.where(z < 0, lead, -0.5 * P * P)
    out[live] = np.exp(expo) * scaled / (2.0 * math.sqrt(math.pi * g) * S)
    return float(out[0]) if arr.ndim == 0 else out


def _classical_convolution(P: np.ndarray, g: float):
    """Density of Z + g*Xi^2 and its second derivative on a uniform P grid:
    c(P_i) = sum_j mass_j phi(P_i - s_j) and the same with phi'', for exact
    Gamma(1/2, 2g) cell masses at s_j = (j + 1/2) d below 90 g (the rest is
    ~1e-9); the error is O(d^2). P_i - s_j = t0 + (i - j) d, t0 = P[0] - d/2,
    so each is a length-m cyclic convolution, m so long that no periodic
    image of phi reaches the grid.
    By Poisson summation the DFT of phi on t0 + l d is exp(i w t0 - w^2/2) / d
    at w = 2 pi q / (m d), times -w^2 for phi'', up to aliases below
    exp(-pi^2 / (2 d^2)), so like _unit_pair it needs d < 0.3. phi(t) and
    exp(-w^2/2) are 0.0 past sqrt(-2 _UNDERFLOW_CUT): those modes, and the
    masses that far past P[-1], are dropped."""
    d = float(P[-1] - P[0]) / (len(P) - 1)
    reach = math.sqrt(-2.0 * _UNDERFLOW_CUT)
    M = min(math.ceil(90.0 * g / d), math.ceil((P[-1] + reach) / d))
    masses = np.diff(_erf(np.sqrt(d * np.arange(M + 1) / (2.0 * g))))
    m = sfft.next_fast_len(
        math.ceil((max(M * d - P[0], P[-1]) + reach) / d), real=True)
    w = 2.0 * math.pi * sfft.rfftfreq(m, d)
    w = w[w <= reach]
    spec = (sfft.rfft(masses, m)[:len(w)]
            * np.exp(1j * w * (P[0] - 0.5 * d) - 0.5 * w * w) / d)
    return tuple(sfft.irfft(s, m)[:len(P)] for s in (spec, -w * w * spec))


def _quantum_args(P: np.ndarray, g: float):
    """The exponent and the Airy argument of the quantum density at P."""
    expo = (1.0 / g - 6.0 * P) / (12.0 * g)
    zeta = (1.0 / g - 4.0 * P) / (2.0 ** (8.0 / 3.0) * g ** (1.0 / 3.0))
    return expo, zeta


def _quantum_unit_curve(P: np.ndarray, g: float) -> np.ndarray:
    """Quantum density 2^(1/6) sqrt(pi) g^(-2/3) exp(expo) Ai(zeta)^2 in the
    scaled momentum P, at arbitrary points. Past zeta = 50, where Ai^2
    underflows while exp(expo) overflows, Ai is airye's scaled value and its
    scale exp(-(4/3) zeta^(3/2)) joins the exponent. airye is NaN for
    zeta < 0, and plain airy is faster, so it serves every other point.
    It is 0.0 where the exponent is below _UNDERFLOW_CUT or infinite."""
    amp = 2.0 ** (1.0 / 6.0) * math.sqrt(math.pi) / g ** (2.0 / 3.0)
    expo, zeta = _quantum_args(P, g)
    # +inf: -6P past the float range (Ai^2 underflowed); past the Airy cut the
    # exponent is tested over zeta, lest zeta^(3/2) overflow; NaN is evaluated
    live = ~((expo <= _UNDERFLOW_CUT) | np.isinf(expo))
    far = live & (zeta > _AIRY_CUT)
    live[far] = ~(expo[far] / zeta[far] - (4.0 / 3.0) * np.sqrt(zeta[far])
                  <= _UNDERFLOW_CUT / zeta[far])
    out = np.zeros_like(P)
    expo, zeta, far = expo[live], zeta[live], far[live]
    ai = _airy(np.where(far, 0.0, zeta))[0]
    ai[far] = _airye(zeta[far])[0]
    expo[far] -= (4.0 / 3.0) * zeta[far] ** 1.5
    out[live] = amp * np.exp(expo) * ai * ai
    return out


def _unit_pair(P: np.ndarray, g: float, quantum: bool = True):
    """The density, then its second derivative, on the uniform grid P, each
    by one inverse FFT (run when asked for) of the characteristic function:
    the classical exp(-k^2/2) / sqrt(1 - 2 i g k), and for the quantum density
    the same times the cubic Moyal phase exp(i g k^3/3). The transform is
    twice the grid, so mass within the grid's own length of either end
    does not wrap onto it. Modes past k = 40 underflow and stay zero; the
    spacing must reach k = 9, where exp(-k^2/2) is below roundoff (dP < 0.3)."""
    n = len(P)
    d = (P[-1] - P[0]) / (n - 1)
    m = sfft.next_fast_len(2 * n, real=True)
    k = 2.0 * math.pi * sfft.rfftfreq(m, d)
    k = k[k <= 40.0]
    cubic = g * k ** 3 / 3.0 if quantum else 0.0
    spec = (np.exp(-0.5 * k * k - 1j * (cubic - k * P[0]))
            / np.sqrt(1.0 + 2j * g * k))
    return (sfft.irfft(s, m)[:n] / d for s in (spec, -k * k * spec))


def _grid_pdfs(p: np.ndarray, tau1: float, tau2: float, tau3: float, h: float):
    """The quantum and the classical final momentum density on the uniform
    grid p, by next(_unit_pair). Use it only where the grid, extended by its
    own length on each side, holds the mass; elsewhere the tails fold onto
    the grid, and quantum_momentum_pdf / classical_momentum_pdf are exact."""
    S, g = _scales(tau1, tau2, tau3, h)
    P = np.asarray(p, dtype=float) / S
    return tuple(next(_unit_pair(P, g, q)) / S for q in (True, False))


@dataclass(frozen=True)
class BoundConstants:
    """Constants of the diffusive Duhamel estimates and the final bound."""

    C1: float
    C2: float
    C3: float
    C4: float
    C5: float
    C_qu: float
    C_cl: float
    c_bar: float
    c0: float
    C_total: float


def _standard_grid(tau2: float, n: int = 1 << 15):
    sigma = math.sqrt(1.0 + 2.0 * tau2 * tau2)
    lo = -14.0 - 2.0 * sigma
    hi = 40.0 * tau2 + 12.0 * sigma + 6.0
    return np.linspace(lo, hi, n)


@lru_cache(maxsize=16)
def constants(tau2: float = 1.0) -> BoundConstants:
    """All ten bound constants at the standard schedule with the given tau2.

    C1, C3, C4 are exact formulas; C2 and C5 are L1 norms of second
    derivatives of the closed-form densities; c_bar and c0 compare the two
    densities in L1 and through the observable exp(-p^2). All are sums on
    one uniform grid, as the stored reference constants were made: q and q''
    from _unit_pair cut to |zeta| <= 50, c and c'' from one rfft of the Gamma
    cell masses and two irfft (_classical_convolution).
    """
    if not (math.isfinite(tau2) and tau2 > 0):
        raise InvalidParameterError("tau2 must be positive and finite")
    t2 = tau2 * tau2
    C1 = 0.25 * (1.0 + math.sqrt(3.0) + (1.0 + 2.0 * t2)
                 + math.sqrt(3.0 + 12.0 * t2 + 60.0 * t2 * t2))
    C3 = 2.0 * math.sqrt(2.0 / (math.pi * math.e))
    C4 = math.sqrt(2.0 / math.pi) * (
        1.0 + 4.0 * math.exp(-0.25) / math.sqrt(math.pi) - 2.0 * math.erf(0.5))

    p = _standard_grid(tau2)
    dp = float(p[-1] - p[0]) / (len(p) - 1)
    q, q2 = _unit_pair(p, tau2)
    near = np.abs(_quantum_args(p, tau2)[1]) <= _AIRY_CUT
    q, q2 = np.where(near, q, 0.0), np.where(near, q2, 0.0)
    c, c2 = _classical_convolution(p, tau2)

    C2 = 0.5 * float(np.abs(q2).sum() * dp)
    C5 = float(np.abs(c2).sum() * dp)
    c_bar = float(np.abs(c - q).sum() * dp)
    w = np.exp(-p * p)
    c0 = abs(float(((q - c) * w).sum() * dp))

    C_qu = C1 + (2.0 / 3.0) * C2
    C_cl = (C3 * (1.0 + 4.0 * t2) / (1.0 + 2.0 * t2)
            + C4 * tau2 / math.sqrt(1.0 + 2.0 * t2)
            + 0.5 * C5)
    return BoundConstants(C1=C1, C2=C2, C3=C3, C4=C4, C5=C5,
                          C_qu=C_qu, C_cl=C_cl, c_bar=c_bar, c0=c0,
                          C_total=C_cl + C_qu)


def predicted_moments(checkpoint: int, tau1: float, tau2: float, tau3: float,
                      h: float, kind: str = "classical") -> MomentRecord:
    """Analytic lab-frame means and central moments at a checkpoint.

    Quantum and classical agree in everything except the third central
    momentum moment from checkpoint 2 on, where the cubic correction to the
    transport subtracts exactly 2*tau2*h^2 (scaled by e^(3*tau3) at the end).
    """
    if checkpoint not in (0, 1, 2, 3):
        raise InvalidParameterError("checkpoint must be 0..3")
    if kind not in ("wigner", "quantum", "classical"):
        raise InvalidParameterError(f"unknown kind {kind!r}")
    _scales(tau1, tau2, tau3, h)
    quantum = kind in ("wigner", "quantum")

    if checkpoint == 0:
        return MomentRecord(0.0, 0.0, h, 0.0, 3 * h * h, h, 0.0, 3 * h * h)

    e2t1 = math.exp(2.0 * tau1)
    var_x = h * e2t1
    m4_x = 3.0 * h * h * e2t1 * e2t1
    if checkpoint == 1:
        return MomentRecord(0.0, 0.0, var_x, 0.0, m4_x,
                            h / e2t1, 0.0, 3.0 * h * h / (e2t1 * e2t1))

    # checkpoint 2: kick adds tau2 * x^2 to p; x-moments unchanged
    u = tau2 * tau2 * h * e2t1 ** 3  # g^2 in the scaled-variable sense
    mean_p = tau2 * h * e2t1
    var_p = (h / e2t1) * (1.0 + 2.0 * u)
    m3_p = 8.0 * tau2 ** 3 * h ** 3 * e2t1 ** 3
    if quantum:
        m3_p -= 2.0 * tau2 * h * h
    m4_p = (3.0 * h * h / (e2t1 * e2t1)) * (1.0 + 4.0 * u + 20.0 * u * u)
    if checkpoint == 2:
        return MomentRecord(0.0, mean_p, var_x, 0.0, m4_x, var_p, m3_p, m4_p)

    # checkpoint 3: x scales by e^{-tau3}, p by e^{tau3}
    ex = math.exp(-tau3)
    ep = math.exp(tau3)
    return MomentRecord(0.0, mean_p * ep,
                        var_x * ex * ex, 0.0, m4_x * ex ** 4,
                        var_p * ep * ep, m3_p * ep ** 3, m4_p * ep ** 4)


def duhamel_bound(side: str, h: float, D: float, schedule: Schedule) -> float:
    """Upper bound on the L1 deviation of the diffusive final momentum
    density from its closed-system counterpart.

    For the standard schedule this is C_side * (1 + log(1/h)) * D / h^(4/3);
    otherwise the pre-simplification two-term form is used. Both vanish at
    D = 0, where constants() is not computed.
    """
    if side not in ("quantum", "classical"):
        raise InvalidParameterError(f"side must be quantum or classical, got {side!r}")
    if not (math.isfinite(h) and h > 0 and math.isfinite(D) and D >= 0):
        raise InvalidParameterError("need h > 0 and D >= 0, both finite")
    if schedule.tau1 >= 0.25 * math.log(1.0 / h):
        raise InvalidParameterError("bound requires tau1 < (1/4) log(1/h)")
    if D == 0.0:
        return 0.0
    k = constants(schedule.tau2)
    if is_standard_schedule(schedule, h):
        C = k.C_qu if side == "quantum" else k.C_cl
        return C * (1.0 + math.log(1.0 / h)) * D / h ** (4.0 / 3.0)
    early = (schedule.tau1 + schedule.tau2) * D * math.exp(2 * schedule.tau1) / h
    late = schedule.tau3 * D * math.exp(2 * schedule.tau3)
    if side == "quantum":
        return k.C1 * early + k.C2 * late
    return (k.C_cl - 0.5 * k.C5) * early + 0.5 * k.C5 * late
