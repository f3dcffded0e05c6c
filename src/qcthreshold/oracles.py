"""Independent reference implementations used to validate the spectral
evolver: a closed-system Schrodinger solver, a position-basis Lindblad
density-matrix solver, and a Langevin Monte-Carlo sampler.

These are deliberately different discretizations of the same dynamics; they
trade speed for independence and run at modest scales only. From the
package they share only core's schedule: its stretch integrals and its
bump quadrature. Windows 1 and 3 are linear, so both open-system oracles
take them exactly. A density matrix rho(x, x') is held, from input to
momentum marginal, as its n//2 + 1 periodic diagonals x - x' = r dxi
(mod n dxi), r = 0 .. n//2; Hermiticity gives the rest. Both decoherence
terms act along them: (x - x')^2 is constant on each diagonal and
(d/dx + d/dx')^2 differentiates along it. A periodic diagonal joins the
diagonals at offsets -r and n - r, so the two multipliers commute only up
to that band edge. In window 2 the Lindblad solver takes the momentum
diffusion in one step, as it commutes with the cubic phase, and
Strang-splits the position diffusion against the phase, each substep
kicked by its bump integral on the Lobatto panels; at D > 0 the sampler
keeps the Euler-Maruyama scheme in n steps of at most dt but draws its
outcome whole, as a linear and a quadratic form of the n step normals:
the top K eigenpairs of the quadratic form exactly, the linear forms'
remainder as one exact 2-D Gaussian, and the quadratic form's remainder
as its exact mean. K doubles from 32, up to n - 1, until the modes left
to that mean hold at most 1e-6 of the quadratic form's variance. The
solvers never call the evolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (_PANELS, MomentumDistribution, Schedule,
                   SemiclassicalParams, cumulative_integral, lobatto_nodes,
                   whole_number)
from .errors import InvalidParameterError, ResolutionError, SolverFailureError

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


def _coherent_state(h: float, n: int, half_width: float):
    """The grid of n points spanning +-half_width sqrt(h), and on it the
    ground-state Gaussian psi0(x) = (2 pi h)^(-1/4) exp(-x^2 / 4h)."""
    if not 0.0 < h < math.inf:
        raise InvalidParameterError("h must be positive and finite")
    n = whole_number(n, 2, "need a whole number of grid points >= 2")
    edge = half_width * math.sqrt(h)
    xi = np.linspace(-edge, edge, n, endpoint=False)
    return xi, (2.0 * math.pi * h) ** (-0.25) * np.exp(-xi * xi / (4.0 * h))


def coherent_wavefunction(h: float, n: int = 8192) -> WavefunctionField:
    """Ground-state Gaussian psi0 on n points spanning +-16 sqrt(h)."""
    xi, psi = _coherent_state(h, n, 16.0)
    return WavefunctionField(xi=xi, values=psi.astype(complex), scale=1.0)


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

    x = cp1.scale * cp1.xi
    # local phase gradient tau2 x^2 / 2h; require < pi/4 per grid cell
    dx = cp1.scale * cp1.dxi
    grad = schedule.tau2 * x * x / (2.0 * h)
    bad = grad * dx > math.pi / 4.0
    if np.any(bad):
        stray = float((np.abs(cp1.values[bad]) ** 2).sum() * cp1.dxi)
        if not stray <= 1e-8:
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
    return MomentumDistribution(p=np.fft.fftshift(p), q=np.fft.fftshift(q))


@dataclass(frozen=True)
class DensityMatrixField:
    """Complex rho(x, x') on a shared uniform grid in frame coordinates,
    held as its periodic diagonals: diagonals[r, i] = rho(xi_i,
    xi_((i - r) mod n)), r = 0 .. n//2. Row r holds the diagonals at
    offsets -r and n - r; the diagonals not held are the conjugates of
    these, so rho is Hermitian by construction except on the self-paired
    rows (r = 0, and r = n/2 at even n, whose entries pair n/2 apart).
    Lab-frame rho is scale^(-1) * rho(x/scale, x'/scale)."""

    xi: np.ndarray
    diagonals: np.ndarray  # (n//2 + 1, n)
    scale: float = 1.0

    def __post_init__(self):
        n = len(self.xi)
        if n < 2:
            raise InvalidParameterError("need at least two grid points")
        if np.shape(self.diagonals) != (n // 2 + 1, n):
            raise InvalidParameterError(
                f"diagonals must have shape ({n // 2 + 1}, {n})")

    @property
    def dxi(self) -> float:
        return float(self.xi[1] - self.xi[0])

    def trace(self) -> float:
        return float(np.real(self.diagonals[0].sum()) * self.dxi)


def _sheared(v: np.ndarray) -> np.ndarray:
    """Read-only view V[r, i] = v[(i - r) mod n], r = 0 .. n//2, of a
    length-n vector v."""
    n = len(v)
    windows = sliding_window_view(np.concatenate((v, v)), n)
    return windows[n:n - n // 2 - 1:-1]  # row r starts at v[n - r]


def coherent_density_matrix(h: float, n: int = 1024) -> DensityMatrixField:
    """The pure state psi0 psi0^* on n points spanning +-14 sqrt(h)."""
    xi, psi = _coherent_state(h, n, 14.0)
    return DensityMatrixField(xi=xi,
                              diagonals=(psi * _sheared(psi)).astype(complex))


def _dm_check(rho: DensityMatrixField, label: str) -> tuple:
    """Raise SolverFailureError if rho's trace has left 1 by more than 1e-4
    or rho is not Hermitian to 1e-8 of its largest entry; else return the
    (trace, Hermiticity defect) readings. Only the self-paired rows can
    break Hermiticity, so the defect is read from them."""
    S = rho.diagonals
    n = S.shape[1]
    trace = rho.trace()
    defect = max(float(np.abs(np.conj(np.roll(S[r], r)) - S[r]).max())
                 for r in ((0,) if n % 2 else (0, n // 2))) \
        / max(float(np.abs(S).max()), 1e-300)
    if not abs(trace - 1.0) <= 1e-4:
        raise SolverFailureError(f"trace drifted to {trace} at {label}")
    if not defect <= 1e-8:
        raise SolverFailureError(f"Hermiticity lost at {label}")
    return trace, defect


def lindblad_dm_evolve(rho0: DensityMatrixField, schedule: Schedule,
                       params: SemiclassicalParams, steps: int = 100):
    """Position-basis Lindblad evolution; returns the four checkpoints.

    Dilations are carried by the scale. S, a complex copy of rho0's
    diagonals, is updated in place; each checkpoint holds a copy of it.
    Momentum diffusion (jump operator x) is the x-decoherence
    exp[-(D/2 hbar^2)(x-x')^2 dt], one value on each diagonal; position
    diffusion (jump operator p) is the p-decoherence exp[-(D/2) kappa^2
    dt] on the 1-D spectrum along each row of S, kappa = 2 pi fftfreq(n,
    dxi). A row holds two diagonals, offsets -r and n - r, whose
    (x-x')^2 differ, so along the row the two multipliers commute only
    up to that band edge; each stretch window is still one step with
    time-integrated coefficients (Schedule.stretch at its default
    panels), exact up to that non-commutation. Window 2 takes its
    x-decoherence once, as it commutes with the cubic phase
    (x^3 - x'^3) / 3 hbar, and Strang-splits the p-decoherence against
    the phase in ``steps`` substeps, each kicked by its bump integral on
    ceil(_PANELS / steps) Lobatto panels. At D = 0 every damping is exactly 1.
    """
    steps = whole_number(steps, 1, "steps must be an integer >= 1")
    hbar = params.hbar
    D = params.D
    xi = rho0.xi
    _dm_check(rho0, "t0")
    start, tau = schedule.window(2)

    def checkpoint(S, scale, label):
        rho = DensityMatrixField(xi=xi, diagonals=S.copy(), scale=scale)
        _dm_check(rho, label)
        return rho

    kappa2 = (2.0 * math.pi * np.fft.fftfreq(len(xi), d=rho0.dxi)) ** 2

    def dampings(I_x, I_p):
        # the x- and p-decoherence multipliers in frame coordinates, the
        # first on S
        return (np.exp(-(D / (2.0 * hbar ** 2)) * I_x
                       * (xi - _sheared(xi)) ** 2),
                np.exp(-(D / 2.0) * I_p * kappa2))

    def p_decoherence(S, k_damp):
        # transforms S in place, along each row
        np.fft.fft(S, axis=1, out=S)
        S *= k_damp
        np.fft.ifft(S, axis=1, out=S)

    def stretch_window(S, i, a):
        # updates S in place; a is the log-scale at the window's start,
        # and the one at its end is returned
        a, I_p, I_x = schedule.stretch(i, a)
        x_damp, k_damp = dampings(I_x, I_p)
        S *= x_damp
        p_decoherence(S, k_damp)
        return a

    def kick_window(S, s):
        # updates S in place; s is the window's scale. (x^3 - x'^3) / 3
        # hbar is a difference, so each phase multiplier is a column times
        # its conjugate row (on S, the row read at x_(i - r))
        f = (s * xi) ** 3 / (3.0 * hbar)
        t, width = lobatto_nodes(start, tau, steps, -(-_PANELS // steps))
        deltas = cumulative_integral(schedule.chi(2, t), width)[:, -1, -1]
        # neighbouring Strang half-phases fused: d0/2, (d0+d1)/2, ..., d_n-1/2
        cols = np.exp(1j * np.convolve(deltas, [0.5, 0.5])[:, None] * f)
        x_damp, k_damp = dampings(s ** 2 * tau, tau / (steps * s ** 2))
        S *= x_damp
        for j, col in enumerate(cols):
            if j:
                p_decoherence(S, k_damp)
            S *= col
            S *= _sheared(col.conj())

    S = rho0.diagonals.astype(complex)
    a1 = stretch_window(S, 1, math.log(rho0.scale))
    s = math.exp(a1)
    cp1 = checkpoint(S, s, "t1")
    kick_window(S, s)
    cp2 = checkpoint(S, s, "t2")
    a3 = stretch_window(S, 3, a1)
    return (rho0, cp1, cp2, checkpoint(S, math.exp(a3), "t3"))


def dm_momentum_marginal(rho: DensityMatrixField,
                         params: SemiclassicalParams) -> MomentumDistribution:
    """q(p) = <p|rho|p> = (1/pi hbar) Re int_0^inf C(y) e^{-i p y / hbar} dy
    for the autocorrelation C(y) = int rho(x, x - y) dx, which relies on
    rho being Hermitian (C(-y) = conj C(y); the solver's guard holds it
    so): one FFT of C at y = k dx, k = 0 .. n-1, half weight at k = 0,
    zero-padded to 4(2n - 1) points. Row r of the diagonals, summed over
    i >= r, gives C at k = r; summed over i < r it gives C at k = r - n,
    whose conjugate is C at n - r."""
    hbar = params.hbar
    n = len(rho.xi)
    dx = rho.scale * rho.dxi
    sums = np.cumsum(rho.diagonals, axis=1)  # row r summed over i' <= i
    r = np.arange(1, n // 2 + 1)
    behind = sums[r, r - 1]  # row r summed over i < r: C at k = r - n
    C = np.empty(n, dtype=complex)  # C at y = k dx, k = 0 .. n-1
    C[n - r] = behind.conj()
    # the rows summed over i >= r; at even n this overwrites k = n/2, for
    # which row n/2's i >= r part stands on both sides
    C[:n // 2 + 1] = sums[:, -1]
    C[r] -= behind
    C[0] *= 0.5
    C *= rho.dxi  # sum over the diagonal becomes an integral (lab measure
    # s * dxi against lab density s^-1 * rho)
    m = (2 * n - 1) * 4
    p = 2.0 * math.pi * hbar * np.fft.fftfreq(m, d=dx)
    q = np.real(np.fft.fft(C, n=m)) * dx / (math.pi * hbar)
    return MomentumDistribution(p=np.fft.fftshift(p), q=np.fft.fftshift(q))


@dataclass(frozen=True)
class TrajectoryEnsemble:
    x: np.ndarray
    p: np.ndarray
    seed: int


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
    # imported here, so that only the Langevin oracle loads scipy.sparse
    from scipy.sparse.linalg import LinearOperator, eigsh

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


@lru_cache(maxsize=8)
def _kick_law(schedule: Schedule, n: int):
    """(c, *_kick_window_law(c)) for window 2 in n equal steps, c_j = step
    chi_2(midpoint j); kept across langevin_sample calls, so read-only."""
    start, tau = schedule.window(2)
    c = tau / n * schedule.chi(2, start + (np.arange(n) + 0.5) * (tau / n))
    law = (c, *_kick_window_law(c))
    for a in law[:-1]:
        a.flags.writeable = False
    return law


def langevin_sample(m: int, schedule: Schedule, params: SemiclassicalParams,
                    dt: float = 1e-3, seed: int = 0):
    """Sampling of the classical dynamics; returns the four checkpoint
    ensembles. All samples start from the coherent-state Gaussian with
    sigma_x = sigma_p = sqrt(h). The linear windows 1 and 3 are one exact
    Gaussian step each. Window 2 is p += tau2 x^2 at D = 0; at D > 0 it
    is Euler-Maruyama in n = ceil(tau2 / dt) equal steps, drawn whole:
    the move of x and the sum of the drifts chi2 x^2 are a linear and a
    quadratic form of the n step normals (_kick_law, once per schedule
    and n). Per sample the draw takes one normal for each of the quadratic
    form's top K eigenpairs, two for the linear forms' exact remainder and
    one for the momentum noise, N(0, D tau2), since nothing reads p inside
    the window. K is the smallest of 32, 64, ... (at most n - 1) that leaves
    at most 1e-6 of the quadratic form's variance to its tail, which is
    replaced by its exact mean; at the default dt and tau2 = 1, K = 32 of
    n = 1000."""
    m = whole_number(m, 1, "need a whole number of samples >= 1")
    seed = whole_number(seed, 0, f"seed {seed} must be a whole number >= 0")
    if not 0.0 < dt <= 1e-3:
        raise InvalidParameterError("dt must lie in (0, 1e-3] for this oracle")
    rng = np.random.Generator(np.random.PCG64(seed))
    sig = math.sqrt(params.h)
    x = rng.normal(0.0, sig, m)
    p = rng.normal(0.0, sig, m)
    D = params.D
    noise = np.empty((2, m))
    out = [TrajectoryEnsemble(x.copy(), p.copy(), seed)]
    for i in (1, 2, 3):
        if i != 2:
            # in the starting frame (a = 0) x gains variance D int e^(-2a)
            # dt and p D int e^(2a) dt; then x -> e^A x, p -> e^-A p
            A, var_x, var_p = schedule.stretch(i, 0.0)
            if D > 0.0:
                rng.standard_normal(out=noise)
                x += math.sqrt(D * var_x) * noise[0]
                p += math.sqrt(D * var_p) * noise[1]
            x *= math.exp(A)
            p *= math.exp(-A)
        elif D == 0.0:
            p += schedule.tau2 * x * x
        else:
            tau = schedule.tau2
            n = int(math.ceil(tau / dt))
            rd = math.sqrt(D * (tau / n))
            c, lam, G, L, tail_mean = _kick_law(schedule, n)
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
        if not np.abs(x).max() <= 50.0:
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
