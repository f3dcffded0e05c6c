"""Independent reference implementations used to validate the spectral
evolver: a closed-system Schrodinger solver, a position-basis Lindblad
density-matrix solver, and a Langevin Monte-Carlo sampler.

These are deliberately different discretizations of the same dynamics; they
trade speed for independence and run at modest scales only. Windows 1 and 3
are linear, so both open-system oracles take them exactly. At D > 0 the
Lindblad solver holds rho(x, x') on its diagonals, where both decoherence
terms act: (x - x')^2 is constant along each and (d/dx + d/dx')^2
differentiates along it. The FFT runs along each periodic diagonal
x - x' = r dxi (mod n dxi), which joins the diagonals at offsets -r and
n - r, so there the two multipliers commute only up to that band edge.
By Hermiticity it evolves only the n//2 + 1 periodic diagonals
r = 0 .. n//2. In window 2 at D > 0 the Lindblad solver is Strang-split
against the cubic phase; the sampler keeps the
Euler-Maruyama scheme in n steps of at most dt but draws its outcome whole,
as a linear and a quadratic form of the n step normals: the top K
eigenpairs of the quadratic form exactly, the linear forms' remainder as
one exact 2-D Gaussian, and the quadratic form's remainder as its exact
mean. K doubles from 32, up to n - 1, until the modes left to that mean
hold at most 1e-6 of the quadratic form's variance. cross_validate checks the
oracles against the closed form and the spectral evolver; the solvers
themselves never call the evolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft as sfft
from numpy.lib.stride_tricks import sliding_window_view
from scipy.sparse.linalg import LinearOperator, eigsh

from .closedform import quantum_momentum_pdf
from .core import (MomentumDistribution, Schedule, SemiclassicalParams,
                   initial_coherent_field, momentum_marginal,
                   resample_distribution)
from .errors import InvalidParameterError, ResolutionError, SolverFailureError
from .evolver import evolve
from .sweep import RunConfig, point_setup

__all__ = [
    "WavefunctionField",
    "DensityMatrixField",
    "TrajectoryEnsemble",
    "coherent_wavefunction",
    "schrodinger_closed",
    "momentum_distribution",
    "coherent_density_matrix",
    "lindblad_dm_evolve",
    "dm_momentum_marginal",
    "langevin_sample",
    "histogram_distribution",
    "cross_validate",
]


@dataclass(frozen=True)
class WavefunctionField:
    """Complex wavefunction on a uniform grid in frame coordinates.

    The lab wavefunction is psi(x) = scale^(-1/2) * values(x / scale), so
    dilations are represented exactly by updating ``scale``.
    """

    xi: np.ndarray
    values: np.ndarray
    scale: float = 1.0

    @property
    def dxi(self) -> float:
        return float(self.xi[1] - self.xi[0])

    def lab_x(self) -> np.ndarray:
        return self.scale * self.xi


def coherent_wavefunction(h: float, n: int = 8192) -> WavefunctionField:
    """Ground-state Gaussian psi0(x) = (2 pi h)^(-1/4) exp(-x^2 / 4h) on n
    points spanning +-16 sqrt(h)."""
    edge = 16.0 * math.sqrt(h)
    xi = np.linspace(-edge, edge, n, endpoint=False)
    vals = (2.0 * math.pi * h) ** (-0.25) * np.exp(-xi * xi / (4.0 * h))
    return WavefunctionField(xi=xi, values=vals.astype(complex), scale=1.0)


def schrodinger_closed(psi0: WavefunctionField, schedule: Schedule, h: float):
    """Closed (D = 0) quantum evolution through the schedule.

    Steps 1 and 3 are exact dilations (scale updates); step 2 multiplies by
    the cubic phase exp(i tau2 x^3 / 6h). Returns the four checkpoint
    wavefunctions. Raises if the cubic phase is undersampled where the
    state carries mass (more than 1e-8 of probability past the well-sampled
    region).
    """
    cp0 = psi0
    cp1 = replace(psi0, scale=psi0.scale * math.exp(schedule.tau1))

    x = cp1.lab_x()
    # local phase gradient tau2 x^2 / 2h; require < pi/4 per grid cell
    dx = cp1.scale * cp1.dxi
    grad = schedule.tau2 * x * x / (2.0 * h)
    bad = grad * dx > math.pi / 4.0
    if np.any(bad):
        stray = float((np.abs(cp1.values[bad]) ** 2).sum() * cp1.dxi)
        if stray > 1e-8:
            raise ResolutionError(
                f"cubic phase undersampled over probability {stray:.2e}")
    phase = schedule.tau2 * x ** 3 / (6.0 * h)
    cp2 = replace(cp1, values=cp1.values * np.exp(1j * phase))

    cp3 = replace(cp2, scale=cp2.scale * math.exp(-schedule.tau3))
    return (cp0, cp1, cp2, cp3)


def momentum_distribution(psi: WavefunctionField,
                          h: float) -> MomentumDistribution:
    """|psi_hat(p)|^2 with psi_hat the hbar-scaled Fourier transform,
    zero-padded to 8 times the length for a finer momentum grid."""
    hbar = 2.0 * h
    dx = psi.scale * psi.dxi
    n = len(psi.values) * 8
    spec = np.fft.fft(psi.values, n=n)
    p = 2.0 * math.pi * hbar * np.fft.fftfreq(n, d=dx)
    # |psi_hat|^2 with psi_hat = (2 pi hbar)^(-1/2) integral of the lab
    # wavefunction; the grid-origin phase drops out of the modulus
    q = (psi.dxi ** 2 * psi.scale / (2.0 * math.pi * hbar)) * np.abs(spec) ** 2
    order = np.argsort(p)
    return MomentumDistribution(p=p[order], q=q[order])


@dataclass(frozen=True)
class DensityMatrixField:
    """Complex rho(x, x') on a shared uniform grid in frame coordinates;
    lab-frame rho is scale^(-1) * values(x/scale, x'/scale)."""

    xi: np.ndarray
    values: np.ndarray  # (n, n) complex
    scale: float = 1.0

    def __post_init__(self):
        if len(self.xi) < 2:
            raise InvalidParameterError("need at least two grid points")

    @property
    def dxi(self) -> float:
        return float(self.xi[1] - self.xi[0])

    def trace(self) -> float:
        return float(np.real(np.trace(self.values)) * self.dxi)

    def purity(self) -> float:
        return float((np.abs(self.values) ** 2).sum() * self.dxi ** 2)

    def hermiticity_defect(self) -> float:
        # np.conjugate always returns a new array (ndarray.conj() returns
        # a real array itself), so d is one n x n temporary owned here
        d = np.conjugate(self.values.T)
        d -= self.values
        return float(np.abs(d).max() / max(np.abs(self.values).max(), 1e-300))


def coherent_density_matrix(h: float, n: int = 1024) -> DensityMatrixField:
    """The pure state psi0 psi0^* of coherent_wavefunction on n points
    spanning +-14 sqrt(h)."""
    if n < 2:
        raise InvalidParameterError("need at least two grid points")
    edge = 14.0 * math.sqrt(h)
    xi = np.linspace(-edge, edge, n, endpoint=False)
    psi = (2.0 * math.pi * h) ** (-0.25) * np.exp(-xi * xi / (4.0 * h))
    return DensityMatrixField(xi=xi, values=np.outer(psi, psi).astype(complex))


def _dm_check(rho: DensityMatrixField, label: str) -> None:
    """Raise SolverFailureError if rho's trace has left 1 by more than 1e-4
    or rho is not Hermitian to 1e-8 of its largest entry.

    At D > 0 the later checkpoints are rebuilt by _full_matrix from half of
    the diagonals, which makes them Hermitian by construction except on the
    self-paired diagonals: the main one, which must stay real, and at even
    n the one at offset n/2. The Hermiticity guard watches those.
    """
    if abs(rho.trace() - 1.0) > 1e-4:
        raise SolverFailureError(f"trace drifted to {rho.trace()} at {label}")
    if rho.hermiticity_defect() > 1e-8:
        raise SolverFailureError(f"Hermiticity lost at {label}")


def _sheared(v: np.ndarray) -> np.ndarray:
    """Read-only view V[r, i] = v[(i - r) mod n], r = 0 .. n//2, of a
    length-n vector v."""
    n = len(v)
    windows = sliding_window_view(np.concatenate((v, v)), n)
    return windows[n:n - n // 2 - 1:-1]  # row r starts at v[n - r]


def _diagonals(vals: np.ndarray) -> np.ndarray:
    """The sheared layout S[r, i] = vals[i, (i - r) mod n], r = 0 .. n//2:
    row r holds the diagonals at offsets -r and n - r. Of a Hermitian
    matrix that is half; _full_matrix rebuilds the rest."""
    i = np.arange(len(vals))
    return vals[i, _sheared(i)]


def _full_matrix(S: np.ndarray) -> np.ndarray:
    """The n x n matrix whose _diagonals are S, its other half filled by
    Hermiticity. The self-paired diagonals (r = 0, and r = n/2 at even n)
    are taken as S holds them, so the result is Hermitian except where S
    is not."""
    n = S.shape[1]
    i = np.arange(n)
    j = _sheared(i)
    vals = np.empty((n, n), dtype=complex)
    vals[j, i] = S.conj()
    vals[i, j] = S
    return vals


def lindblad_dm_evolve(rho0: DensityMatrixField, schedule: Schedule,
                       params: SemiclassicalParams, steps: int = 100):
    """Position-basis Lindblad evolution; returns the four checkpoints.

    Dilations are carried by the scale. At D > 0 rho is held as half of
    its diagonals, S = _diagonals(rho), and rebuilt in full only at each
    checkpoint. Decoherence is exp[-(D/2 hbar^2)(x-x')^2 dt], one value on
    each diagonal, times exp[-(D/2) kappa^2 dt] on the 1-D spectrum along
    each row of S, kappa = 2 pi fftfreq(n, dxi). A row holds two diagonals,
    offsets -r and n - r, whose (x-x')^2 differ, so along the row the two
    multipliers commute only up to that band edge; each stretch window is
    still taken as one step with time-integrated coefficients, exact up to
    that non-commutation. Window 2 is Strang-split into ``steps`` substeps
    against the cubic phase (x^3 - x'^3) / 3 hbar (one phase at D = 0, on
    the full matrix).
    """
    if not (steps >= 1 and float(steps).is_integer()):
        raise InvalidParameterError("steps must be an integer >= 1")
    steps = int(steps)
    hbar = params.hbar
    D = params.D
    xi = rho0.xi
    _dm_check(rho0, "t0")
    a0 = math.log(rho0.scale)
    s = math.exp(a0 + schedule.window(1)[1])
    a1 = math.log(s)
    s3 = math.exp(a1 - schedule.window(3)[1])
    start, tau = schedule.window(2)
    # (x^3 - x'^3) / 3 hbar is a difference, so each phase multiplier is
    # a column times its conjugate row (on S, the row read at x_(i - r))
    f = (s * xi) ** 3 / (3.0 * hbar)

    def checkpoint(vals, scale, label):
        rho = DensityMatrixField(xi=xi, values=vals, scale=scale)
        _dm_check(rho, label)
        return rho

    if D == 0.0:
        cp1 = checkpoint(rho0.values, s, "t1")
        col = np.exp(1j * tau * f)
        cp2 = checkpoint(rho0.values * np.outer(col, col.conj()), s, "t2")
        return (rho0, cp1, cp2, checkpoint(cp2.values, s3, "t3"))

    kappa2 = (2.0 * math.pi * np.fft.fftfreq(len(xi), d=rho0.dxi)) ** 2

    def dampings(I_x, I_p):
        # the x- and k-decoherence multipliers in frame coordinates, the
        # first on S
        return (np.exp(-(D / (2.0 * hbar ** 2)) * I_x
                       * (xi - _sheared(xi)) ** 2),
                np.exp(-(D / 2.0) * I_p * kappa2))

    def p_decoherence(S, k_damp):
        # overwrites S
        spec = sfft.fft(S, axis=1, overwrite_x=True)
        spec *= k_damp
        return sfft.ifft(spec, axis=1, overwrite_x=True)

    def stretch_window(S, i, sign, a):
        # overwrites S; a is the log-scale at the window's start
        I_p, I_x = schedule.stretch_integrals(i, sign, a, steps)
        x_damp, k_damp = dampings(I_x, I_p)
        S *= x_damp
        return p_decoherence(S, k_damp)

    def kick_window(S):
        # overwrites S
        edges = start + tau * np.arange(steps + 1) / steps
        deltas = schedule.bump_integral(2, edges[:-1], edges[1:])
        # neighbouring Strang half-phases fused: d0/2, (d0+d1)/2, ..., d_n-1/2
        cols = np.exp(1j * np.convolve(deltas, [0.5, 0.5])[:, None] * f)
        x_full, k_full = dampings(s ** 2 * tau / steps, tau / (steps * s ** 2))
        x_half = np.sqrt(x_full)
        S *= x_half
        for j, col in enumerate(cols):
            if j:
                S = p_decoherence(S, k_full)
                S *= x_full if j < steps else x_half
            S *= col
            S *= _sheared(col.conj())
        return S

    S = stretch_window(_diagonals(rho0.values), 1, 1.0, a0)
    cp1 = checkpoint(_full_matrix(S), s, "t1")
    S = kick_window(S)
    cp2 = checkpoint(_full_matrix(S), s, "t2")
    S = stretch_window(S, 3, -1.0, a1)
    return (rho0, cp1, cp2, checkpoint(_full_matrix(S), s3, "t3"))


def dm_momentum_marginal(rho: DensityMatrixField,
                         params: SemiclassicalParams) -> MomentumDistribution:
    """q(p) = <p|rho|p> via the autocorrelation C(y) = int rho(x, x - y) dx
    followed by an hbar-scaled Fourier transform, zero-padded to 4 times
    the length."""
    hbar = params.hbar
    n = len(rho.xi)
    dx = rho.scale * rho.dxi
    # C at lab offsets y = r * dx, r = -(n-1) .. n-1
    C = np.empty(2 * n - 1, dtype=complex)
    for r in range(n):
        C[n - 1 + r] = np.trace(rho.values, offset=-r)
        if r:
            C[n - 1 - r] = np.trace(rho.values, offset=r)
    C *= rho.dxi  # sum over the diagonal becomes an integral (lab measure
    # s * dxi against lab density s^-1 * values)
    m = (2 * n - 1) * 4
    # q(p) = (1/2 pi hbar) int C(y) e^{-i p y / hbar} dy
    y0 = -(n - 1) * dx
    spec = np.fft.fft(C, n=m)
    p = 2.0 * math.pi * hbar * np.fft.fftfreq(m, d=dx)
    q = np.real(np.exp(-1j * p * y0 / hbar) * spec) * dx / (2.0 * math.pi * hbar)
    order = np.argsort(p)
    return MomentumDistribution(p=p[order], q=q[order])


@dataclass(frozen=True)
class TrajectoryEnsemble:
    x: np.ndarray
    p: np.ndarray
    seed: int

    @property
    def count(self) -> int:
        return len(self.x)


#: Largest share of var(xi^T M xi) that the kick window's draw may leave
#: to the mean of its tail; see _kick_window_law.
_KICK_TAIL_SHARE = 1e-6


def _tail_sums(a: np.ndarray) -> np.ndarray:
    """s_i = sum_{j > i} a_j."""
    s = np.zeros_like(a)
    s[:-1] = np.cumsum(a[:0:-1])[::-1]
    return s


def _kick_window_law(c: np.ndarray):
    """Low-rank law of the n-step Euler-Maruyama kick window with drift
    weights c_j = step chi_2(midpoint j).

    With x_j = x1 + rd S_j, S_j = sum_{i<j} xi_i and T_i = sum_{j>i} c_j,
    the window moves x by rd 1^T xi and p by sum_j c_j x_j^2
    = x1^2 sum(c) + 2 x1 rd T^T xi + rd^2 xi^T M xi, with M_ik = T_max(i,k).
    M is taken through its top K eigenpairs (lam_k, v_k): for eta = V^T xi
    the window's normals are eta plus a remainder orthogonal to every v_k.
    Returns (lam, G, L, tail_mean): G = V^T [1, T] (K x 2), the lower
    Cholesky factor L of the covariance of the two linear forms of the
    remainder, and tail_mean = trace(M) - sum(lam), the mean of its
    quadratic form, which stands in for that form.

    K starts at 32 and doubles until the dropped share
    sum_{k>K} lam_k^2 / |M|_F^2 of var(xi^T M xi) is at most 1e-6, capped
    at n - 1 (the last row of M is zero). eigsh sees M only through an
    O(n) matvec and starts from a fixed vector, and each eigenvector's
    largest entry is made positive, so that a seed repeats exactly.
    """
    n = len(c)
    j = np.arange(n)
    T = _tail_sums(c)
    frob2 = float(((2 * j + 1) * T * T).sum())

    def matvec(v):
        # (M v)_i = T_i sum_{k<=i} v_k + sum_{k>i} T_k v_k
        v = v.ravel()
        return T * np.cumsum(v) + _tail_sums(T * v)

    op = LinearOperator((n, n), matvec=matvec, dtype=float)
    lam, V = np.zeros(0), np.zeros((n, 0))
    K = min(32, n - 1)
    while K:
        lam, V = eigsh(op, k=K, which="LA", v0=np.ones(n))
        if K == n - 1 or frob2 - lam @ lam <= _KICK_TAIL_SHARE * frob2:
            break
        K = min(2 * K, n - 1)
    lam, V = lam[::-1], V[:, ::-1]
    V = V * np.sign(V[np.abs(V).argmax(axis=0), np.arange(len(lam))])
    G = V.T @ np.column_stack((np.ones(n), T))
    cov = np.array([[n, T.sum()], [T.sum(), T @ T]]) - G.T @ G
    l00 = math.sqrt(cov[0, 0])
    l10 = cov[1, 0] / l00
    L = np.array([[l00, 0.0],
                  [l10, math.sqrt(max(cov[1, 1] - l10 * l10, 0.0))]])
    return lam, G, L, float(j @ c) - float(lam.sum())


def langevin_sample(m: int, schedule: Schedule, params: SemiclassicalParams,
                    dt: float = 1e-3, seed: int = 0):
    """Sampling of the classical dynamics; returns the four checkpoint
    ensembles. All samples start from the coherent-state Gaussian with
    sigma_x = sigma_p = sqrt(h). The linear windows 1 and 3 are one exact
    Gaussian step each. Window 2 is p += tau2 x^2 at D = 0; at D > 0 it
    is Euler-Maruyama in n = ceil(tau2 / dt) equal steps, drawn whole:
    the move of x and the sum of the drifts chi2 x^2 are a linear and a
    quadratic form of the n step normals (_kick_window_law). Per sample
    the draw takes one normal for each of the quadratic form's top K
    eigenpairs, two for the linear forms' exact remainder and one for the
    momentum noise, N(0, D tau2), since nothing reads p inside the
    window. K is the smallest of 32, 64, ... (at most n - 1) that leaves
    at most 1e-6 of the quadratic form's variance to its tail, which is
    replaced by its exact mean; at the default dt and tau2 = 1, K = 32 of
    n = 1000."""
    if m < 1:
        raise InvalidParameterError("need at least one sample")
    if not 0.0 < dt <= 1e-3:
        raise InvalidParameterError("dt must lie in (0, 1e-3] for this oracle")
    rng = np.random.Generator(np.random.PCG64(seed))
    sig = math.sqrt(params.h)
    x = rng.normal(0.0, sig, m)
    p = rng.normal(0.0, sig, m)
    D = params.D
    noise = np.empty((2, m))
    out = [TrajectoryEnsemble(x.copy(), p.copy(), seed)]
    for i, sign in ((1, 1.0), (2, 0.0), (3, -1.0)):
        start, tau = schedule.window(i)
        n = int(math.ceil(tau / dt))
        if i != 2:
            # x -> e^A x plus variance D int e^{2(A - a)} dt, p -> e^-A p plus
            # D int e^{2(a - A)} dt; a(t) is the log-stretch reached at t
            A = sign * tau
            x *= math.exp(A)
            p *= math.exp(-A)
            if D > 0.0:
                var_x, var_p = schedule.stretch_integrals(i, sign, -A, n)
                rng.standard_normal(out=noise)
                x += math.sqrt(D * var_x) * noise[0]
                p += math.sqrt(D * var_p) * noise[1]
        elif D == 0.0:
            p += tau * x * x
        else:
            step = tau / n
            rd = math.sqrt(D * step)
            c = step * schedule.chi(2, start + (np.arange(n) + 0.5) * step)
            lam, G, L, tail_mean = _kick_window_law(c)
            # forms[0] = 1^T xi, forms[1] = T^T xi; quad = xi^T M xi,
            # accumulated over blocks of 8 eigenpairs
            forms = np.zeros((2, m))
            quad = np.full(m, tail_mean)
            for k in range(0, len(lam), 8):
                rows = slice(k, k + 8)
                eta = rng.standard_normal((len(lam[rows]), m))
                forms += G[rows].T @ eta
                eta *= eta
                quad += lam[rows] @ eta
            rng.standard_normal(out=noise)
            forms += L @ noise
            p += x * (c.sum() * x + 2.0 * rd * forms[1]) + rd * rd * quad
            x += rd * forms[0]
            rng.standard_normal(out=noise[0])
            p += math.sqrt(D * tau) * noise[0]
        if np.abs(x).max() > 50.0:
            raise SolverFailureError("trajectory ran away past |x| = 50")
        out.append(TrajectoryEnsemble(x.copy(), p.copy(), seed))
    return tuple(out)


def histogram_distribution(samples: np.ndarray, bins: int,
                           lo: float, hi: float) -> MomentumDistribution:
    """Normalized density histogram on a uniform grid (bin centers)."""
    counts, edges = np.histogram(samples, bins=bins, range=(lo, hi))
    width = edges[1] - edges[0]
    centers = 0.5 * (edges[1:] + edges[:-1])
    q = counts / (len(samples) * width)
    return MomentumDistribution(p=centers, q=q)


def _histogram_window(sp: MomentumDistribution):
    """(bins, lo, hi) of the Langevin histogram: [-8, 16) in 0.25-wide
    bins, its upper edge extended bin by bin until at most 1e-4 of the
    mass of sp lies outside."""
    lo, hi, width = -8.0, 16.0, 0.25
    cell = sp.q * sp.dp
    left = cell[sp.p < lo].sum()
    while left + cell[sp.p >= hi].sum() > 1e-4 and hi < sp.p[-1]:
        hi += width
    return round((hi - lo) / width), lo, hi


def cross_validate(h: float, config: RunConfig) -> list:
    """Cross-check the oracles at h on the schedule, grid and stretch
    panels the sweep runs under config; returns one line per failed check,
    none when both pass.

    The Schrodinger oracle's final momentum density must lie within 1e-3
    (L1) of the Airy closed form, and at D = h^(4/3) a 200 000-sample
    Langevin histogram (seeded with config.seed) within 3e-2 of the
    spectral evolver's classical marginal, on a window that leaves at most
    1e-4 of that marginal's mass outside.
    """
    fails = []
    sch, grid, params, evc = point_setup(h, h ** (4.0 / 3.0), config)
    psi = schrodinger_closed(coherent_wavefunction(h), sch, h)[3]
    md = momentum_distribution(psi, h)
    mask = (md.p > -14.0) & (md.p < 46.0)
    ref = quantum_momentum_pdf(md.p[mask], sch.tau1, sch.tau2, sch.tau3, h)
    l1 = float(np.abs(md.q[mask] - ref).sum() * md.dp)
    if not l1 < 1e-3:
        fails.append(f"Schrodinger vs closed form: L1 {l1:.4g} >= 1e-3")

    f0 = initial_coherent_field(params, grid, "classical")
    sp = momentum_marginal(evolve(f0, sch, params, evc).final)
    ens = langevin_sample(200_000, sch, params, seed=config.seed)
    hist = histogram_distribution(ens[3].p, *_histogram_window(sp))
    refc = resample_distribution(sp, hist.p)
    l1 = float(np.abs(hist.q - refc.q).sum() * hist.dp)
    if not l1 < 3e-2:
        fails.append(f"Langevin vs spectral evolver: L1 {l1:.4g} >= 3e-2")
    return fails
