"""Domain types: semiclassical parameters, the three-bump Hamiltonian
schedule, symplectic affine frames, phase-space and momentum fields,
marginals, metrics, and moment measurement.

Coordinates: fields live on a rectangular grid in frame coordinates (u, v)
with lab coordinates x = s_x * u, p = s_p * v and s_x * s_p = 1, so the
frame map is area preserving and densities carry over without a Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (
    CoverageError,
    GridMismatchError,
    InvalidParameterError,
)

__all__ = [
    "SemiclassicalParams",
    "BumpProfile",
    "Schedule",
    "standard_schedule",
    "AffineFrame",
    "GridSpec",
    "PhaseSpaceField",
    "MomentumDistribution",
    "ObservableSpec",
    "MomentRecord",
    "initial_coherent_field",
    "momentum_marginal",
    "position_marginal",
    "l1_distance",
    "resample_distribution",
    "expect_observable",
    "measure_central_moments",
]

FieldKind = Literal["wigner", "classical"]

# 5-point Gauss-Legendre nodes and weights on [0, 1]
_GL_X = (np.polynomial.legendre.leggauss(5)[0] + 1.0) / 2.0
_GL_W = np.polynomial.legendre.leggauss(5)[1] / 2.0


@dataclass(frozen=True)
class SemiclassicalParams:
    """Planck constant and diffusion strength in reference units (hbar = 2h)."""

    hbar: float
    D: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise InvalidParameterError("hbar must be positive and finite")
        if not (math.isfinite(self.D) and self.D >= 0):
            raise InvalidParameterError("D must be finite and >= 0")

    @property
    def h(self) -> float:
        """Half of hbar; the uncertainty product sigma_x*sigma_p of a pure state."""
        return self.hbar / 2.0


def _bump_raw(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = (s > 0.0) & (s < 1.0)
    si = s[inside]
    out[inside] = np.exp(1.0 / (4.0 * si * (si - 1.0)))
    return out


class BumpProfile:
    """The smooth bump exp(1/(4s(s-1))) on (0, 1), normalized to unit
    integral; it and all its one-sided derivatives vanish at the endpoints.
    """

    _TABLE_N = 1 << 14

    def __init__(self):
        s = np.linspace(0.0, 1.0, self._TABLE_N + 1)
        vals = _bump_raw(s)
        # Trapezoid on the closed interval; since all endpoint derivatives
        # vanish this converges faster than any power of N.
        ds = 1.0 / self._TABLE_N
        cum = np.concatenate([[0.0], np.cumsum((vals[1:] + vals[:-1]) * (ds / 2.0))])
        total = cum[-1]
        self.normalization = 1.0 / total
        self._cum_spline = CubicSpline(s, cum / total)

    def value(self, s):
        """Normalized bump chi(s); zero outside (0, 1)."""
        out = _bump_raw(np.asarray(s, dtype=float)) * self.normalization
        return float(out) if np.isscalar(s) else out

    def cumulative(self, s):
        """X(s) = integral of chi from 0 to s, clipped to [0, 1]."""
        arr = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
        out = np.clip(self._cum_spline(arr), 0.0, 1.0)
        return float(out) if np.isscalar(s) else out


_BUMP = BumpProfile()


@dataclass(frozen=True)
class Schedule:
    """Three sequential bump windows driving H1 = xp, H2 = -x^3/3, H3 = -xp.

    Each window i has duration tau_i and bump chi_i(t) = chi((t - t_{i-1}) / tau_i),
    so that int chi_i dt = tau_i.
    """

    tau1: float
    tau2: float
    tau3: float

    def __post_init__(self):
        if not all(math.isfinite(t) and t > 0 for t in self.taus()):
            raise InvalidParameterError(
                "all schedule durations must be positive and finite")

    @property
    def t0(self) -> float:
        return 0.0

    @property
    def t1(self) -> float:
        return self.tau1

    @property
    def t2(self) -> float:
        return self.tau1 + self.tau2

    @property
    def t3(self) -> float:
        return self.tau1 + self.tau2 + self.tau3

    def taus(self):
        return (self.tau1, self.tau2, self.tau3)

    def window(self, i: int):
        """(start, duration) of window i in {1, 2, 3}."""
        starts = {1: self.t0, 2: self.t1, 3: self.t2}
        return starts[i], self.taus()[i - 1]

    def chi(self, i: int, t):
        """Bump value chi_i(t) = chi((t - t_{i-1}) / tau_i), whose time
        integral over the window is tau_i."""
        start, tau = self.window(i)
        return _BUMP.value((np.asarray(t, dtype=float) - start) / tau)

    def bump_integral(self, i: int, ta, tb):
        """int_ta^tb chi_i(t) dt, exact at window boundaries; elementwise
        (one spline evaluation per array) when ta or tb is an array."""
        start, tau = self.window(i)
        return tau * (_BUMP.cumulative((tb - start) / tau)
                      - _BUMP.cumulative((ta - start) / tau))

    def stretch_integrals(self, i: int, sign: float, a0: float, n: int):
        """(int e^(-2a) dt, int e^(2a) dt) over window i for the log-scale
        a(t) = a0 + sign * int_start^t chi_i, by composite 5-point
        Gauss-Legendre on n equal panels."""
        start, tau = self.window(i)
        dt = tau / n
        # the nodes of every panel, one row per panel
        t_nodes = (start + tau * np.arange(n) / n)[:, None] + dt * _GL_X
        a_nodes = a0 + sign * self.bump_integral(i, start, t_nodes)
        return (dt * float((np.exp(-2.0 * a_nodes) @ _GL_W).sum()),
                dt * float((np.exp(2.0 * a_nodes) @ _GL_W).sum()))


def standard_schedule(h: float) -> Schedule:
    """The reference durations tau1 = (1/6) log(1/h), tau2 = 1,
    tau3 = (2/3) log(1/h)."""
    if not 0 < h < 1:
        raise InvalidParameterError("standard schedule requires 0 < h < 1")
    log_inv = math.log(1.0 / h)
    return Schedule(
        tau1=log_inv / 6.0,
        tau2=1.0,
        tau3=2.0 * log_inv / 3.0,
    )


def is_standard_schedule(schedule: Schedule, h: float) -> bool:
    """Whether tau1 and tau3 are the reference durations for h, to 1e-12
    relative."""
    log_inv = math.log(1.0 / h)
    tol = 1e-12 * max(1.0, log_inv)
    return (abs(schedule.tau1 - log_inv / 6.0) <= tol
            and abs(schedule.tau3 - 2.0 * log_inv / 3.0) <= tol)


@dataclass(frozen=True)
class AffineFrame:
    """Area-preserving diagonal rescaling x = s_x u, p = s_p v with
    s_x = exp(a), s_p = exp(-a)."""

    a: float = 0.0

    @property
    def s_x(self) -> float:
        return math.exp(self.a)

    @property
    def s_p(self) -> float:
        return math.exp(-self.a)

    def shifted(self, da: float) -> "AffineFrame":
        return AffineFrame(self.a + da)


@dataclass(frozen=True)
class GridSpec:
    """Grid geometry in frame coordinates: n points and half-extents per axis."""

    n_u: int = 512
    n_v: int = 1024
    half_extent_u: float = 1.0
    half_extent_v: float = 1.0

    @staticmethod
    def for_h(h: float, n_u: int = 512, n_v: int = 1024,
              widths_u: float = 16.0, widths_v: float = 64.0) -> "GridSpec":
        """Extents in units of sqrt(h), the state's frame-coordinate scale.

        The v half-extent defaults to 64*sqrt(h): the cubic kick displaces the
        column at u = c*sqrt(h) by tau2*c^2*sqrt(h) in v, so 16*sqrt(h) would
        clip columns beyond c = 4 while 64 keeps everything out to c ~ 7.5.
        """
        root = math.sqrt(h)
        return GridSpec(n_u=n_u, n_v=n_v,
                        half_extent_u=widths_u * root,
                        half_extent_v=widths_v * root)

    def axes(self):
        u = np.linspace(-self.half_extent_u, self.half_extent_u, self.n_u,
                        endpoint=False)
        v = np.linspace(-self.half_extent_v, self.half_extent_v, self.n_v,
                        endpoint=False)
        return u, v


@dataclass(frozen=True)
class PhaseSpaceField:
    """A real density on a frame-coordinate grid.

    ``kind`` distinguishes Wigner functions (may be negative) from classical
    densities (nonnegative up to discretization ringing).
    """

    frame: AffineFrame
    u: np.ndarray
    v: np.ndarray
    values: np.ndarray  # shape (n_u, n_v)
    kind: FieldKind

    @property
    def du(self) -> float:
        return float(self.u[1] - self.u[0])

    @property
    def dv(self) -> float:
        return float(self.v[1] - self.v[0])

    def mass(self) -> float:
        return float(self.values.sum() * self.du * self.dv)

    def min_value(self) -> float:
        return float(self.values.min())

    def with_values(self, values: np.ndarray) -> "PhaseSpaceField":
        return replace(self, values=values)

    def with_frame(self, frame: AffineFrame) -> "PhaseSpaceField":
        return replace(self, frame=frame)


@dataclass(frozen=True)
class MomentumDistribution:
    """A one-dimensional density over lab momentum on a uniform grid."""

    p: np.ndarray
    q: np.ndarray

    @property
    def dp(self) -> float:
        return float(self.p[1] - self.p[0])

    def mass(self) -> float:
        return float(self.q.sum() * self.dp)


@dataclass(frozen=True)
class ObservableSpec:
    """g_n(p) = p^n * exp(-p^2)."""

    n: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise InvalidParameterError("observable index n must be >= 0")

    def g(self, p):
        p = np.asarray(p, dtype=float)
        return p ** self.n * np.exp(-p * p)


@dataclass(frozen=True)
class MomentRecord:
    """Lab-coordinate means and central moments of x and p."""

    mean_x: float
    mean_p: float
    var_x: float
    m3_x: float
    m4_x: float
    var_p: float
    m3_p: float
    m4_p: float


def initial_coherent_field(params: SemiclassicalParams, grid: GridSpec,
                           kind: FieldKind = "wigner") -> PhaseSpaceField:
    """The isotropic coherent-state density exp[-(x^2+p^2)/2h] / (2 pi h),
    sampled in the identity frame."""
    h = params.h
    root = math.sqrt(h)
    if grid.half_extent_u < 8 * root or grid.half_extent_v < 8 * root:
        raise CoverageError("grid extents must be at least 8*sqrt(h) per axis")
    u, v = grid.axes()
    x = u[:, None]
    p = v[None, :]
    field = PhaseSpaceField(
        frame=AffineFrame(0.0), u=u, v=v, kind=kind,
        values=np.exp(-(x * x + p * p) / (2 * h)) / (2 * math.pi * h))
    if abs(field.mass() - 1.0) > 1e-8:
        raise CoverageError("more than 1e-8 of the state's mass lies off-grid")
    return field


def momentum_marginal(field: PhaseSpaceField) -> MomentumDistribution:
    """Marginal over lab momentum: integrate over u, rescale v to p."""
    s_p = field.frame.s_p
    density_v = field.values.sum(axis=0) * field.du
    return MomentumDistribution(p=s_p * field.v, q=density_v / s_p)


def position_marginal(field: PhaseSpaceField) -> MomentumDistribution:
    """Marginal over lab position (returned in the same 1-D container)."""
    s_x = field.frame.s_x
    density_u = field.values.sum(axis=1) * field.dv
    return MomentumDistribution(p=s_x * field.u, q=density_u / s_x)


def resample_distribution(dist: MomentumDistribution,
                          new_p: np.ndarray) -> MomentumDistribution:
    """Band-limited (trigonometric) interpolation onto a new uniform grid.

    The source is treated as periodic on its own extent; target points
    outside that extent get zero (the density is assumed to have decayed).
    """
    n = len(dist.p)
    period = n * dist.dp
    coeff = np.fft.rfft(dist.q) / n
    k = 2.0 * math.pi * np.arange(len(coeff)) / period
    rel = np.asarray(new_p, dtype=float) - dist.p[0]
    inside = (rel >= 0) & (rel < period)
    phases = np.exp(1j * np.outer(rel[inside], k))
    weights = np.full(len(coeff), 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    vals = np.zeros(len(rel))
    vals[inside] = (phases * (weights * coeff)).real.sum(axis=1)
    return MomentumDistribution(p=np.asarray(new_p, dtype=float), q=vals)


def l1_distance(a: MomentumDistribution, b: MomentumDistribution) -> float:
    """L1 distance between two momentum densities; in [0, 2] for
    probability densities. A b on another grid is resampled onto a's, and
    may lose at most 1e-6 of its mass doing so."""
    if len(a.p) == len(b.p) and np.allclose(a.p, b.p, rtol=0, atol=1e-12 * (1 + abs(a.p[-1]))):
        return float(np.abs(a.q - b.q).sum() * a.dp)
    rb = resample_distribution(b, a.p)
    if abs(rb.mass() - b.mass()) > 1e-6 * max(1.0, abs(b.mass())):
        raise GridMismatchError("resampling lost more mass than the tolerance allows")
    return float(np.abs(a.q - rb.q).sum() * a.dp)


def expect_observable(dist: MomentumDistribution, obs: ObservableSpec) -> float:
    return float((obs.g(dist.p) * dist.q).sum() * dist.dp)


def measure_central_moments(field: PhaseSpaceField) -> MomentRecord:
    """Means and 2nd/3rd/4th central moments in lab coordinates by direct
    quadrature on the grid (robust to Wigner negativity)."""
    w = field.values * (field.du * field.dv)
    total = w.sum()
    x = field.frame.s_x * field.u
    p = field.frame.s_p * field.v
    wx = w.sum(axis=1)
    wp = w.sum(axis=0)
    mean_x = float((wx * x).sum() / total)
    mean_p = float((wp * p).sum() / total)
    cx = x - mean_x
    cp = p - mean_p

    def mom(weights, c, k):
        return float((weights * c ** k).sum() / total)

    return MomentRecord(
        mean_x=mean_x, mean_p=mean_p,
        var_x=mom(wx, cx, 2), m3_x=mom(wx, cx, 3), m4_x=mom(wx, cx, 4),
        var_p=mom(wp, cp, 2), m3_p=mom(wp, cp, 3), m4_p=mom(wp, cp, 4),
    )
