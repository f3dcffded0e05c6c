"""Domain types: semiclassical parameters, the three-bump Hamiltonian
schedule and its stretch integrals, phase-space and momentum fields,
marginals, metrics, and moment measurement.

The package integrates the bump by one rule: equal panels of 16
Chebyshev-Lobatto nodes (lobatto_nodes) and their cumulative integration
matrix (cumulative_integral). It fixes the bump's normalization and gives
the stretch integrals, the evolver's kick-window table and the Lindblad
oracle's kick steps.

Coordinates: fields live on a rectangular grid in frame coordinates (u, v)
at a log-scale a, with lab coordinates x = e^a u and p = e^-a v, so the
frame map is area preserving and densities carry over without a Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from numpy.polynomial import chebyshev

from .errors import InvalidParameterError

__all__ = [
    "whole_number",
    "SemiclassicalParams",
    "Schedule",
    "lobatto_nodes",
    "cumulative_integral",
    "standard_schedule",
    "GridSpec",
    "PhaseSpaceField",
    "MomentumDistribution",
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

#: The one quadrature rule for the bump: panels of 16 Chebyshev-Lobatto
#: nodes on [-1, 1] and the cumulative integration matrix on them (row k
#: integrates from -1 to node k, so the last row holds the panel weights;
#: both read-only, as concurrent sweep points share them), with _PANELS
#: panels per piece of a bump integral.
_LOBATTO = -np.cos(np.pi * np.arange(16) / 15)
_CUMINT = np.linalg.solve(
    chebyshev.chebvander(_LOBATTO, 15).T,
    chebyshev.chebval(_LOBATTO, chebyshev.chebint(np.eye(16), lbnd=-1))).T
_LOBATTO.flags.writeable = False
_CUMINT.flags.writeable = False
_PANELS = 64

#: Default Lobatto panels per unit time of the stretch integrals
STRETCH_PANELS_PER_UNIT = 200


def whole_number(value, least: int, message: str) -> int:
    """value as an int, if it is a whole number >= least (a bool is not);
    else raises InvalidParameterError(message)."""
    if isinstance(value, bool) or not least <= value < math.inf or value % 1:
        raise InvalidParameterError(message)
    return int(value)


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


def lobatto_nodes(start: float, tau: float, pieces: int, panels: int = None):
    """The Chebyshev-Lobatto nodes of ``panels`` (default _PANELS) equal
    panels in each of ``pieces`` equal pieces of [start, start + tau],
    shape (pieces, panels, 16), and the panel width."""
    panels = _PANELS if panels is None else panels
    width = tau / (pieces * panels)
    return start + width * (np.arange(pieces * panels).reshape(
        pieces, panels, 1) + (_LOBATTO + 1.0) / 2.0), width


def cumulative_integral(f: np.ndarray, width: float) -> np.ndarray:
    """The integral of node values f, laid out (..., pieces, panels, 16) as
    lobatto_nodes gives them, from each piece's start to each node."""
    f = f @ (_CUMINT.T * (width / 2.0))
    ends = f[..., -1]
    return f + (np.cumsum(ends, axis=-1) - ends)[..., None]


# the bump's unit-integral scale, by the same rule
_CHI_SCALE = 1.0 / cumulative_integral(
    _bump_raw(lobatto_nodes(0.0, 1.0, 1)[0]), 1.0 / _PANELS)[0, -1, -1]


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

    def taus(self):
        return (self.tau1, self.tau2, self.tau3)

    def window(self, i: int):
        """(start, duration) of window i in {1, 2, 3}."""
        if i not in (1, 2, 3):
            raise InvalidParameterError(f"window {i!r} must be 1, 2 or 3")
        return sum(self.taus()[:i - 1], 0.0), self.taus()[i - 1]

    def chi(self, i: int, t):
        """Bump value chi_i(t) = chi((t - t_{i-1}) / tau_i), whose time
        integral over the window is tau_i."""
        start, tau = self.window(i)
        return _bump_raw((t - start) / tau) * _CHI_SCALE

    def stretch(self, i: int, a0: float,
                per_unit: int = STRETCH_PANELS_PER_UNIT):
        """Window 1 (H1 = xp) or 3 (H3 = -xp) from log-scale a0: its end
        log-scale a0 + tau1 or a0 - tau3 and (int e^(-2a) dt, int e^(2a) dt)
        over it, with a(t) = a0 +- int chi_i and both integrals taken on
        ceil(per_unit tau_i) equal Lobatto panels, per_unit whole and >= 1."""
        if i == 2:
            raise InvalidParameterError("window 2 is the kick, not a stretch")
        per_unit = whole_number(per_unit, 1, "per_unit must be >= 1 and whole")
        start, tau = self.window(i)
        sign = 1.0 if i == 1 else -1.0
        t, width = lobatto_nodes(start, tau, 1, math.ceil(per_unit * tau))
        a = a0 + sign * cumulative_integral(self.chi(i, t), width)
        weights = _CUMINT[-1] * (width / 2.0)
        return (a0 + sign * tau,
                float((np.exp(-2.0 * a) @ weights).sum()),
                float((np.exp(2.0 * a) @ weights).sum()))


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
class GridSpec:
    """Grid geometry in frame coordinates: n points and half-extents per axis."""

    n_u: int = 512
    n_v: int = 1024
    half_extent_u: float = 1.0
    half_extent_v: float = 1.0

    def __post_init__(self):
        message = (f"grid {self.n_u}x{self.n_v} needs at least 2 points per "
                   "axis, a whole number of them")
        for axis in ("n_u", "n_v"):
            object.__setattr__(self, axis,
                               whole_number(getattr(self, axis), 2, message))

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
    """A real density on a frame-coordinate grid at log-scale a.

    ``kind`` distinguishes Wigner functions (may be negative) from classical
    densities (nonnegative up to discretization ringing).
    """

    a: float
    u: np.ndarray
    v: np.ndarray
    values: np.ndarray  # shape (n_u, n_v)
    kind: FieldKind

    def __post_init__(self):
        if self.kind not in ("wigner", "classical"):
            raise InvalidParameterError(
                f"kind {self.kind!r} must be 'wigner' or 'classical'")

    @property
    def s_x(self) -> float:
        return math.exp(self.a)

    @property
    def s_p(self) -> float:
        return math.exp(-self.a)

    @property
    def du(self) -> float:
        return float(self.u[1] - self.u[0])

    @property
    def dv(self) -> float:
        return float(self.v[1] - self.v[0])

    def mass(self) -> float:
        return float(self.values.sum() * self.du * self.dv)


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
        raise InvalidParameterError(
            "grid extents must be at least 8*sqrt(h) per axis")
    u, v = grid.axes()
    # separable: one exp row per axis and their outer product
    gx = np.exp(-u * u / (2 * h)) / (2 * math.pi * h)
    gp = np.exp(-v * v / (2 * h))
    field = PhaseSpaceField(a=0.0, u=u, v=v, kind=kind,
                            values=np.outer(gx, gp))
    if not abs(field.mass() - 1.0) <= 1e-8:
        raise InvalidParameterError(
            "more than 1e-8 of the state's mass lies off-grid")
    return field


def momentum_marginal(field: PhaseSpaceField) -> MomentumDistribution:
    """Marginal over lab momentum: integrate over u, rescale v to p."""
    s_p = field.s_p
    density_v = field.values.sum(axis=0) * field.du
    return MomentumDistribution(p=s_p * field.v, q=density_v / s_p)


def position_marginal(field: PhaseSpaceField) -> MomentumDistribution:
    """Marginal over lab position (returned in the same 1-D container)."""
    s_x = field.s_x
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
    """L1 distance between two momentum densities on one grid; in [0, 2]
    for probability densities. Densities on different grids are rejected:
    resample one onto the other's grid first (resample_distribution)."""
    if not (len(a.p) == len(b.p) and np.allclose(
            a.p, b.p, rtol=0, atol=1e-12 * (1 + abs(a.p[-1])))):
        raise InvalidParameterError(
            "l1_distance needs both densities on one grid")
    return float(np.abs(a.q - b.q).sum() * a.dp)


def expect_observable(dist: MomentumDistribution) -> float:
    """<exp(-p^2)> under a momentum density: the g_0 of the paper's
    observable family g_n(p) = p^n exp(-p^2)."""
    return float((np.exp(-dist.p * dist.p) * dist.q).sum() * dist.dp)


def measure_central_moments(field: PhaseSpaceField) -> MomentRecord:
    """Means and 2nd/3rd/4th central moments in lab coordinates by direct
    quadrature on the grid (robust to Wigner negativity)."""
    w = field.values * (field.du * field.dv)
    total = w.sum()
    x = field.s_x * field.u
    p = field.s_p * field.v
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
