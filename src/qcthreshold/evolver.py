"""Spectral evolution of Wigner and classical phase-space densities through
the three-window schedule with isotropic diffusion.

The co-moving frame absorbs the stretch/squeeze transport exactly, so every
grid operation is a Fourier or diagonal multiplier, and every window is
taken in one step. Each window hands the next its output's (u, k_v)
spectrum, so no spectrum is transformed twice, and every 2-D multiplier is
built from 1-D factors. Each checkpoint's guard (_check_field) runs once
per distinct values array, in one pass over cache-sized row blocks: a
checkpoint whose array the window left unchanged keeps the previous
readings. Its position-tail reading comes from the (k_u, k_v) spectrum
that window 1 or 3 forms of its input or output; at D = 0 they take that
transform along u for the reading alone:

  windows 1 and 3:  log-scale move and time-integrated lab diffusion
                    coefficients from Schedule.stretch (exact per window,
                    since all multipliers commute; substeps_per_unit
                    Lobatto panels per unit time), the damping
                    the outer product of one exp row per axis;
  window 2:         input's momentum tail checked first; cubic kick as
                    a momentum-direction Fourier multiplier exp(-i k x^2
                    tau2), tau2 the bump integral, linear in k: two small
                    tables. The frame is static there, so at D = 0 the
                    multipliers commute and one kick is exact.
                    At D > 0 each k_v column of the (u, k_v) representation
                    evolves under -i c(t) u^2 + d d^2/du^2 plus a scalar:
                    the generator lies in sl(2), so the propagator is a
                    linear canonical transform. Its 2x2 matrix is a power
                    series in one product of the column's two rates,
                    whose coefficients are iterated integrals of chi_2
                    that one table holds for every column, and it factors
                    as chirp, heat kernel, chirp: two even diagonal
                    multipliers, each exponentiated on half its axis and
                    applied as two strided slices, one reversed, around
                    one complex FFT pair along u (Healy, Kutay, Ozaktas &
                    Sheridan, Linear Canonical Transforms, Springer 2016),
                    per piece of the window, which is cut into the fewest
                    equal pieces in which no factor grows on those axes.

Every transform along u runs in place, on an array its window owns: in
window 1 at D > 0 its fresh rfft, and otherwise a copy of the (u, k_v)
spectrum, since at D = 0 that spectrum is passed on unchanged and
window 3's input is the kicked spectrum from which the t2 Wigner field
is phased next. Window 2 at D > 0 runs every step in place on a view of
its kept columns, which are a prefix of the k_v axis, and sets the rest
to zero; window 3 and both Moyal phases then take only the kept columns
(all of them at D = 0), and each irfft zero-pads the rest.

The Wigner-Moyal equation adds one term to the classical Fokker-Planck
one, (h^2/3) chi_2(t) d^3/dp^3 (the Hamiltonian is cubic, the Lindblad
operators linear). It is diagonal in k_v, like every other operator in the
co-moving frame, so it commutes with them all: from t2 on, a Wigner field
is the classical one times exp(-i (h^2/3) tau2 k^3), so evolve runs the
classical density and derives the Wigner one from its carried spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (STRETCH_PANELS_PER_UNIT, PhaseSpaceField, Schedule,
                   SemiclassicalParams, cumulative_integral, lobatto_nodes)
from .errors import InvalidParameterError, ResolutionError, SolverFailureError

__all__ = ["EvolverConfig", "EvolveResult", "evolve"]

#: Relative spectral mass allowed in the top tenth of the momentum band.
_TAIL_TOL = 1e-8
#: Relative spectral mass allowed in the top tenth of the |k_u| bins of the
#: 2-D spectrum (_u_tail): the position axis, along which the kick sharpens
#: the state. At D = 0 and tau2 = 1 the tail at t2 is the same for every h
#: (diffusion only lowers it): 4.3e-6 on 256 u-points, 7.0e-5 on 192 and
#: 1.1e-3 on 128, where the final marginal is 1.8e-11, 1e-8 and 5.3e-6 off
#: the closed form. Of the grids n_u = 128-256 (n_v = 1024) at h = 0.1,
#: tau2 = 1 and 2, D = 0 and h^(4/3), it rejects those whose (k_u, v)
#: spectrum (the rfft of the values along u) has a tail above 1e-4, and no
#: others; any limit in [6.97e-5, 7.71e-5) would.
_U_TAIL_TOL = 7.3e-5
#: Relative mass allowed in the grid corners (wraparound guard). The
#: position-edge band is only recorded in the diagnostics, since the
#: momentum marginal is invariant under position-direction wraparound;
#: the momentum-edge band gets a looser hard limit of its own.
_EDGE_TOL = 1e-10
_V_EDGE_TOL = 1e-6
#: Window-2 columns whose k_v damping exp(-(D/2) e^(2a) tau2 k_v^2) lies
#: below e^-46 (about 1e-20) are set to zero: the rest of their propagator
#: is a contraction, so their true output is below roundoff.
_DAMP_CUT = 46.0
#: Window-2 matrix series: the relative size at which a term counts as
#: roundoff and the most terms taken before the series counts as failed.
_SERIES_TOL = np.finfo(float).eps
_MAX_TERMS = 200
#: Largest number of equal pieces the window may be cut into so that no
#: chirp or heat factor grows, and the largest log-modulus a factor may
#: reach on the grid before it counts as growing.
_MAX_PIECES = 64
_GROWTH_TOL = 1e-12
#: Entries per row block of _check_field's pass over a field (512 KiB of
#: float64, so a block stays in a core's L2 cache for its three reductions).
_BLOCK = 1 << 16


@dataclass(frozen=True)
class EvolverConfig:
    #: Lobatto panels per unit time for the stretch-window integrals
    substeps_per_unit: int = STRETCH_PANELS_PER_UNIT

    def __post_init__(self):
        if self.substeps_per_unit < 1:
            raise InvalidParameterError("substeps_per_unit must be >= 1")


@dataclass(frozen=True)
class EvolveResult:
    final: PhaseSpaceField
    checkpoints: tuple  # fields at t0, t1, t2, t3
    diagnostics: dict
    wigner: PhaseSpaceField  # the guarded Wigner field at t3


def _k_axis(n: int, spacing: float) -> np.ndarray:
    return 2.0 * math.pi * np.fft.fftfreq(n, d=spacing)


def _rk_axis(n: int, spacing: float) -> np.ndarray:
    return 2.0 * math.pi * np.fft.rfftfreq(n, d=spacing)


def _tail_fraction(mags: np.ndarray) -> float:
    """Share of a 1-D profile of spectral magnitudes in its top tenth."""
    tail = int(math.ceil(0.1 * len(mags)))
    return float(mags[-tail:].sum()) / max(float(mags.sum()), 1e-300)


def _u_tail(mags: np.ndarray) -> float:
    """Position-tail reading of a 2-D (k_u, k_v) half-spectrum from its
    magnitudes: their share, summed over k_v and folded over +-k_u onto
    the n_u // 2 + 1 bins of |k_u|, in the top tenth of those bins."""
    mags = mags.sum(axis=1)
    n = len(mags)
    folded = mags[:n // 2 + 1]
    folded[1:1 + (n - 1) // 2] += mags[:n // 2:-1]
    return _tail_fraction(folded)


def _check_v_tail(spec: np.ndarray) -> None:
    tail_mass = _tail_fraction(np.abs(spec).sum(axis=0))
    if not tail_mass <= _TAIL_TOL:
        raise ResolutionError(
            f"momentum spectral tail carries relative mass {tail_mass:.2e}")


def _moyal(field: PhaseSpaceField, spec: np.ndarray, schedule: Schedule,
           params: SemiclassicalParams, a2: float):
    """The Wigner field at t2 or later whose classical counterpart is field:
    its (u, k_v) spectrum spec times exp(-i (h^2/3) tau2 k^3) in place,
    tau2 window 2's bump integral and k = k_v e^(a2) the lab wavenumber
    at t2. Window 3 only shifts the frame and damps each k_v. spec may
    hold only the first columns of the k_v axis; the irfft zero-pads the
    rest."""
    k = _rk_axis(len(field.v), field.dv)[:spec.shape[1]] * math.exp(a2)
    spec *= np.exp(-1j * (params.h ** 2 / 3.0) * schedule.tau2 * k ** 3)
    return replace(field, kind="wigner",
                   values=np.fft.irfft(spec, n=len(field.v), axis=1))


def _integrated_diffusion(field: PhaseSpaceField, params: SemiclassicalParams,
                          I_u: float, I_v: float, spec: np.ndarray = None):
    """Multiply by exp[-(D/2)(k_u^2 I_u + k_v^2 I_v)] in 2-D Fourier space,
    one exp row per axis, with I_u and I_v the time integrals of e^(-2a(t))
    and e^(+2a(t)). Returns the field, its (u, k_v) spectrum and the
    position-tail readings (_u_tail) of the input's and the output's
    (k_u, k_v) spectra; spec, the input's if carried, saves the rfft along
    v and is left unchanged. A carried spec may hold only the first K
    columns of the k_v axis, the rest being zero (window 3 at D > 0 gets
    window 2's kept columns): every step then reads only those K, the
    output spectrum is K wide too, and the irfft zero-pads the rest. At
    D = 0 the field and its (u, k_v) spectrum are returned as they are,
    and the one reading serves both.

    Every transform along u runs in place: on the fresh rfft at D > 0,
    and otherwise on a copy, since the caller still reads a carried spec
    (window 3's input is the kicked spectrum that _moyal phases next) and
    at D = 0 the spectrum is passed on. The output's reading reuses the
    input's magnitude buffer."""
    fresh = spec is None
    if fresh:
        spec = np.fft.rfft(field.values, axis=1)
    k = spec if fresh and params.D > 0.0 else spec.copy()  # (k_u, k_v)
    np.fft.fft(k, axis=0, out=k)
    if params.D == 0.0:
        u_tail = _u_tail(np.abs(k, out=k).real)  # |k| into the copy
        return field, spec, (u_tail, u_tail)
    c = -params.D / 2.0
    mags = np.abs(k)
    u_in = _u_tail(mags)
    k *= np.exp(c * I_u * _k_axis(len(field.u), field.du) ** 2)[:, None]
    k *= np.exp(c * I_v * _rk_axis(len(field.v), field.dv)[:k.shape[1]] ** 2)
    u_out = _u_tail(np.abs(k, out=mags))
    np.fft.ifft(k, axis=0, out=k)
    values = np.fft.irfft(k, n=len(field.v), axis=1)
    return replace(field, values=values), k, (u_in, u_out)


def _abs_sum(*parts: np.ndarray) -> float:
    """Sum of |values| over the given slices of a field."""
    return float(sum(np.abs(part).sum() for part in parts))


def _check_field(field: PhaseSpaceField, mass0: float, label: str,
                 u_tail: float) -> dict:
    """Guard one checkpoint field and return its six readings. u_tail is
    the position-tail reading that the window next to the checkpoint took
    from the field's (k_u, k_v) spectrum; mass, min and the edge and corner
    shares read only the values array and the grid spacings, so a field
    whose array a window left unchanged keeps its readings (_guard).

    Mass, min and the |values| total are read in one pass over row blocks
    of about _BLOCK entries, each block's three reductions taken while it
    is in cache and its block sums added in order; |values| is formed per
    block in one reused buffer, and the edge and corner shares take it of
    only the slices they read. A NaN anywhere makes the mass NaN, which
    is the first check to raise."""
    values, cell = field.values, field.du * field.dv
    rows = max(1, _BLOCK // values.shape[1])
    buf = np.empty((min(rows, len(values)), values.shape[1]))
    mass, low, total = 0.0, math.inf, 0.0
    for i in range(0, len(values), rows):
        block = values[i:i + rows]
        mass += float(block.sum())
        low = min(low, float(block.min()))
        total += float(np.abs(block, out=buf[:len(block)]).sum())
    mass = mass * field.du * field.dv  # as PhaseSpaceField.mass
    total = max(total * cell, 1e-300)
    corner = _abs_sum(values[:4, :4], values[:4, -4:], values[-4:, :4],
                      values[-4:, -4:]) * cell / total
    v_edge = _abs_sum(values[:, 0], values[:, -1]) * cell / total
    if not abs(mass - mass0) <= 1e-4:
        raise SolverFailureError(f"mass drifted to {mass} at {label}")
    if not u_tail <= _U_TAIL_TOL:
        raise ResolutionError(
            f"position spectral tail carries relative mass {u_tail:.2e} "
            f"at {label}: the grid has too few u-points for this run")
    if field.kind == "classical" and not low >= -1e-6:
        raise SolverFailureError(f"classical density reached {low} at {label}")
    if not corner <= _EDGE_TOL:
        raise SolverFailureError(
            f"corner mass {corner:.2e} at {label} indicates wraparound")
    if not v_edge <= _V_EDGE_TOL:
        raise SolverFailureError(
            f"momentum-edge mass {v_edge:.2e} at {label}: "
            "the momentum extent is too small for this run")
    return {"mass": mass, "min": low, "u_tail": u_tail, "v_edge": v_edge,
            "u_edge": _abs_sum(values[0], values[-1]) * cell / total,
            "corner": corner}


def _guard(fields: tuple, labels: tuple, tails: tuple, mass0: float) -> dict:
    """_check_field readings by label of two consecutive checkpoints, with
    the position-tail readings of the window between them. The one guard
    rule: a field whose values array that window left unchanged (windows
    1 and 3 at D = 0 only move the frame) keeps the previous readings."""
    first = _check_field(fields[0], mass0, labels[0], tails[0])
    second = dict(first) if fields[1].values is fields[0].values else \
        _check_field(fields[1], mass0, labels[1], tails[1])
    return dict(zip(labels, (first, second)))


def _stretch_window(field: PhaseSpaceField, schedule: Schedule, i: int,
                    params: SemiclassicalParams, config: EvolverConfig,
                    spec: np.ndarray = None):
    """Window 1 or 3: the log-scale move plus _integrated_diffusion."""
    a, I_u, I_v = schedule.stretch(i, field.a, config.substeps_per_unit)
    return _integrated_diffusion(replace(field, a=a), params, I_u, I_v, spec)


def _window_matrices(schedule: Schedule, kx: np.ndarray, d: float,
                     m: int) -> tuple[np.ndarray, int]:
    """M - I for the propagators of M' = [[0, b], [c chi_2(t), 0]] M,
    b = -2i d and c = -2 kx, over each of m equal pieces of window 2 and
    every column kx, shape (m, 4, len(kx)) with the entries (00, 01, 10,
    11) along axis 1, and the number of series terms summed over pieces.

    A column enters only through mu = b c, so M is entire in mu: its
    Taylor (Peano-Baker) coefficients are iterated integrals of chi_2
    alone, each taken from the piece start. With P_0 = U_0 = 1,
    R_n = int chi_2 P_n, P_(n+1) = int R_n, V_n = int U_n and
    U_(n+1) = int chi_2 V_n, at the piece end
    M00 - 1 = sum_(n>=1) mu^n P_n, M01 = b sum mu^n V_n,
    M10 = c sum mu^n R_n and M11 - 1 = sum_(n>=1) mu^n U_n. The integrals
    are core.cumulative_integral on the Lobatto nodes of each piece, one
    table for all pieces and columns; terms are added until each
    series' term, relative to its first, is below roundoff at the largest
    |mu|, and the sums are taken by Horner in mu. Carrying M - I keeps
    M00 - 1 and M11 - 1 exact to roundoff when D is small.
    """
    t, width = lobatto_nodes(*schedule.window(2), m)
    chi = schedule.chi(2, t)
    into_r = np.stack([chi, np.ones_like(chi)])  # (P_n, U_n) -> (R_n, V_n)
    into_p = into_r[::-1]  # (R_n, V_n) -> (P_(n+1), U_(n+1))
    b = -2j * d
    c = -2.0 * kx
    mu = b * c
    mu_max = float(np.abs(mu).max(initial=0.0))
    pu, rows, power = np.ones_like(into_r), [], 1.0  # power = mu_max^n
    for _ in range(_MAX_TERMS):
        rv = cumulative_integral(pu * into_r, width)
        pu = cumulative_integral(rv * into_p, width)
        rows.append(np.stack([pu[0], rv[1], rv[0], pu[1]])[..., -1, -1].T)
        if float((rows[-1] / rows[0]).max()) * power < _SERIES_TOL:
            break
        power *= mu_max
    else:
        raise SolverFailureError(
            f"window-2 matrix series did not converge in {_MAX_TERMS} "
            f"terms at |mu| = {mu_max:.3g}")
    out = np.zeros((m, 4, len(kx)), dtype=complex)
    for row in rows[::-1]:
        out *= mu
        out += row[:, :, None]
    out *= np.stack([mu, np.full_like(mu, b), c, mu])
    return out, m * len(rows)


def _mirror_u(cols: np.ndarray, e: np.ndarray) -> None:
    """cols *= an even factor of u, given by its values e at
    |u| = (j + n % 2 / 2) du, on the rows u = (i - n/2) du: the first
    len(e) rows take e reversed and the rest take e forward, from e[1]
    where an even n has its u = 0 row and from e[0] otherwise."""
    h = len(e)
    cols[:h] *= e[::-1]
    cols[h:] *= e[1 - len(cols) % 2:-1]


def _mirror_k(cols: np.ndarray, e: np.ndarray) -> None:
    """cols *= an even factor of k_u, given by its values e at the fft bins
    0..n//2: those bins take e and the negative ones e reversed down to
    e[1], from e[-2] where an even n has its Nyquist bin and from e[-1]
    otherwise."""
    h = len(e)
    cols[:h] *= e
    cols[h:] *= e[len(cols) % 2 - 2:0:-1]


def _kick_window(field: PhaseSpaceField, schedule: Schedule,
                 params: SemiclassicalParams, spec: np.ndarray = None):
    """Window 2: the classical cubic kick, exact at every D.

    Returns the kicked field, its (u, k_v) spectrum and its diagnostics;
    spec, the input's spectrum if window 1 carried it, is consumed. The
    input's momentum tail is checked before any other work. The frame is
    static here. At D = 0 the kick multipliers commute, so one kick by the
    window's bump integral tau2 is exact; its phase k_j x_i^2 tau2 =
    theta_i j is linear in j = J a + b (J = isqrt n): the product of the
    small tables exp(-i theta_i J a) and exp(-i theta_i b).

    At D > 0 the k_v columns whose damping exp(-(D/2) e^(2a) tau2 k_v^2)
    lies below e^-46 are set to zero. Each piece of the window maps every
    kept column by exp(i g_in u^2/2), then exp(-i beta k_u^2/2) in Fourier
    space, then exp(i g_out u^2/2), and the last piece ends with the
    damping. With the piece's matrix M (M' = [[0, -2i d], [-2 c(t), 0]] M
    for c(t) = chi_2(t) k s_x^2 and d = (D/2) e^(-2a), summed as a series
    by _window_matrices), beta = M01, g_in = (M00 - 1)/beta and
    g_out = (M11 - 1)/beta. Each factor is even, so it is exponentiated on
    half its axis (the tables u2 and ku2) and applied as two strided slices
    of that table (_mirror_u, _mirror_k). Since the damping rises with
    k_v^2, the kept columns are the first K of the rfft axis: every step
    runs in place on the view spec[:, :K], and only spec[:, K:] is
    zeroed, so no column is gathered or copied. The window is one
    piece unless a factor would grow on those tables; then it is the
    fewest equal pieces (a power of two) for which none does. The output's
    momentum tail is checked too. The diagnostics hold the piece count, the
    series terms summed over the pieces of every try, max |det M - 1| (M is
    unimodular) and the number of kept columns.
    """
    spec = np.fft.rfft(field.values, axis=1) if spec is None else spec
    _check_v_tail(spec)
    kv = _rk_axis(len(field.v), field.dv)
    if params.D == 0.0:
        n, J = spec.shape[1], math.isqrt(spec.shape[1])
        t = -1j * (kv[1] / field.s_p * (field.s_x * field.u) ** 2
                   * schedule.tau2)[:, None, None]
        table = np.exp(t * (J * np.arange(-(-n // J)))[:, None]) \
            * np.exp(t * np.arange(J))
        spec *= table.reshape(len(field.u), -1)[:, :n]
        info = {"kick_substeps": 1, "window_terms": 0,
                "window_det_defect": 0.0, "kept_columns": n}
    else:
        log_damp = (params.D / 2.0) * math.exp(2.0 * field.a) \
            * schedule.tau2 * kv ** 2
        # log_damp rises with k_v^2, so the kept columns are a prefix
        K = int(np.count_nonzero(log_damp < _DAMP_CUT))
        kx = kv[:K] / field.s_p * field.s_x ** 2
        d = (params.D / 2.0) * math.exp(-2.0 * field.a)
        # even factors on half their axis: at |u| on (i - n/2) du and at |k_u|
        n, h = len(field.u), len(field.u) // 2 + 1
        u2 = ((np.arange(h) + n % 2 / 2.0) * field.du) ** 2 / 2.0
        ku2 = _k_axis(n, field.du)[:h] ** 2 / 2.0
        m, terms = 1, 0
        while True:
            M, more = _window_matrices(schedule, kx, d, m)  # M - I per piece
            terms += more
            beta = M[:, 1]
            g_in, g_out = M[:, 0] / beta, M[:, 3] / beta
            growth = max(ku2.max() * beta.imag.max(), -u2.max()
                         * min(g_in.imag.min(), g_out.imag.min()))
            if growth <= _GROWTH_TOL:
                break
            m *= 2
            if m > _MAX_PIECES:
                raise SolverFailureError(
                    f"window-2 propagator still grows in {_MAX_PIECES} pieces")
        det_defect = M[:, 0] + M[:, 3] + M[:, 0] * M[:, 3] - M[:, 1] * M[:, 2]
        info = {"kick_substeps": m, "window_terms": terms,
                "window_det_defect": float(np.abs(det_defect).max()),
                "kept_columns": K}
        cols = spec[:, :K]  # a view: every step below runs in place
        for b, gi, go in zip(beta, g_in, g_out):
            _mirror_u(cols, np.exp(1j * np.multiply.outer(u2, gi)))
            np.fft.fft(cols, axis=0, out=cols)
            _mirror_k(cols, np.exp(-1j * np.multiply.outer(ku2, b)))
            np.fft.ifft(cols, axis=0, out=cols)
            _mirror_u(cols, np.exp(1j * np.multiply.outer(u2, go)))
        cols *= np.exp(-log_damp[:K])
        spec[:, K:] = 0.0
        _check_v_tail(spec)
    values = np.fft.irfft(spec, n=len(field.v), axis=1)
    return replace(field, values=values), spec, info


def evolve(field: PhaseSpaceField, schedule: Schedule,
           params: SemiclassicalParams,
           config: EvolverConfig = EvolverConfig()) -> EvolveResult:
    """Run the classical density through the schedule, then derive and
    guard the Wigner field at t2 and t3 (_moyal on each carried spectrum,
    dropped once phased). Returns the final field, the t0-t3 checkpoints,
    their readings and the t3 Wigner field; for a Wigner input the t2, t3
    and final fields and readings are the Wigner ones.

    Each checkpoint's position-tail reading comes from the (k_u, k_v)
    spectrum that window 1 or 3 forms of its input and output, so t0 and
    t1 are guarded after window 1, t2 and t3 after window 3, and the
    derived Wigner t2 and t3 last, into a table of their own; each shares
    its classical counterpart's reading, as their spectra differ by a
    unimodular phase in k_v. All three pairs follow _guard's one rule, and
    at D = 0 the t3 Wigner field is the t2 one in t3's frame."""
    mass0 = field.mass()
    if not abs(mass0 - 1.0) <= 1e-6:
        raise InvalidParameterError("input field is not normalized")
    t1, spec, tails = _stretch_window(field, schedule, 1, params, config)
    diagnostics = _guard((field, t1), ("t0", "t1"), tails, mass0)

    t2, spec, window = _kick_window(replace(t1, kind="classical"),
                                    schedule, params, spec)
    # past the kept columns (all of them at D = 0) the spectrum is zero:
    # window 3 and the Moyal phase read only the kept ones
    spec = spec[:, :window["kept_columns"]]
    t3, s3, tails = _stretch_window(t2, schedule, 3, params, config, spec)
    # The momentum marginal is insensitive to position-direction wraparound,
    # which large-D runs incur late in window 3; only the corners and the
    # momentum edges are enforced (see _check_field).
    diagnostics.update(_guard((t2, t3), ("t2", "t3"), tails, mass0))

    w2 = _moyal(t2, spec, schedule, params, t2.a)
    del spec
    if t3.values is t2.values:  # window 3 only moved the frame
        w3 = replace(w2, a=t3.a)
    else:
        w3 = _moyal(t3, s3, schedule, params, t2.a)
    del s3
    derived = _guard((w2, w3), ("t2", "t3"), tails, mass0)
    if field.kind == "wigner":
        diagnostics, t2, t3 = {**diagnostics, **derived}, w2, w3
    diagnostics["t2"].update(window)
    return EvolveResult(t3, (field, t1, t2, t3), diagnostics, w3)
