"""Spectral evolution of Wigner and classical phase-space densities through
the three-window schedule with isotropic diffusion.

The co-moving frame absorbs the stretch/squeeze transport exactly, so every
grid operation is a Fourier or diagonal multiplier, and every window is
taken in one step:

  windows 1 and 3:  frame log-scale update (exact) plus diffusion with
                    time-integrated lab coefficients (exact per window,
                    since all multipliers commute; the integrals take
                    substeps_per_unit Gauss-Legendre panels per unit
                    time);
  window 2:         cubic kick as a momentum-direction Fourier multiplier
                    exp(-i k x^2 delta). The frame is static there, so at
                    D = 0 the multipliers commute and one kick over the
                    whole window is exact. At D > 0 each k_v column of the
                    (u, k_v) representation evolves under
                    -i c(t) u^2 + d d^2/du^2 plus a scalar: the generator
                    lies in sl(2), so the window's propagator is a linear
                    canonical transform. Its 2x2 matrix comes from an
                    adaptive DOP853 solve, and it factors as chirp, heat
                    kernel, chirp: two diagonal multipliers around one
                    complex FFT pair along u (Healy, Kutay, Ozaktas &
                    Sheridan, Linear Canonical Transforms, Springer 2016).

The Wigner-Moyal equation adds one term to the classical Fokker-Planck
one, (h^2/3) chi_2(t) d^3/dp^3 (the Hamiltonian is cubic, the Lindblad
operators linear). It is diagonal in k_v, like every other operator in the
co-moving frame, so it commutes with them all: from t2 on, a Wigner field
is the classical one times exp(-i (h^2/3) delta k^3) (moyal_phase).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import integrate

from .core import PhaseSpaceField, Schedule, SemiclassicalParams
from .errors import InvalidParameterError, ResolutionError, SolverFailureError

__all__ = [
    "EvolverConfig",
    "EvolveResult",
    "evolve",
    "cubic_kick_substep",
    "diffusion_substep",
    "moyal_phase",
]

#: Relative spectral mass allowed in the top tenth of the momentum band.
_TAIL_TOL = 1e-8
#: Relative spectral mass allowed in the top tenth of the position band,
#: the axis along which the kick sharpens the state. At D = 0 and tau2 = 1
#: the tail at t2 is the same for every h (diffusion only lowers it):
#: 6.2e-6 on 256 u-points, 9.7e-5 on 192 and 1.5e-3 on 128, where the
#: final marginal is 1.8e-11, 1e-8 and 5.3e-6 off the closed form.
_U_TAIL_TOL = 1e-4
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
#: Relative and absolute tolerance of the window-2 matrix solves.
_WINDOW_RTOL, _WINDOW_ATOL = 1e-11, 1e-14
#: Largest number of equal pieces the window may be cut into so that no
#: chirp or heat factor grows, and the largest log-modulus a factor may
#: reach on the grid before it counts as growing.
_MAX_PIECES = 64
_GROWTH_TOL = 1e-12


@dataclass(frozen=True)
class EvolverConfig:
    #: quadrature panels per unit time for the stretch-window integrals
    substeps_per_unit: int = 200

    def __post_init__(self):
        if self.substeps_per_unit < 1:
            raise InvalidParameterError("substeps_per_unit must be >= 1")


@dataclass(frozen=True)
class EvolveResult:
    final: PhaseSpaceField
    checkpoints: tuple  # fields at t0, t1, t2, t3
    diagnostics: dict


def _k_axis(n: int, spacing: float) -> np.ndarray:
    return 2.0 * math.pi * np.fft.fftfreq(n, d=spacing)


def _rk_axis(n: int, spacing: float) -> np.ndarray:
    return 2.0 * math.pi * np.fft.rfftfreq(n, d=spacing)


def _tail_fraction(spec: np.ndarray, axis: int) -> float:
    """Share of |spec| in the top tenth of a half-spectrum along axis."""
    mags = np.abs(np.moveaxis(spec, axis, -1))
    tail = int(math.ceil(0.1 * mags.shape[-1]))
    return float(mags[..., -tail:].sum()) / max(float(mags.sum()), 1e-300)


def _check_v_tail(spec: np.ndarray) -> None:
    tail_mass = _tail_fraction(spec, axis=1)
    if tail_mass > _TAIL_TOL:
        raise ResolutionError(
            f"momentum spectral tail carries relative mass {tail_mass:.2e}")


def cubic_kick_substep(field: PhaseSpaceField,
                       delta: float) -> PhaseSpaceField:
    """Apply the classical kick generated by -x^3/3 over integrated bump
    weight delta.

    In lab variables each x-column translates in p by delta*x^2, an exact
    Fourier multiplier along the momentum axis.
    """
    if delta == 0.0:
        return field
    s_x, s_p = field.frame.s_x, field.frame.s_p
    k_lab = _rk_axis(len(field.v), field.dv) / s_p
    x = (s_x * field.u)[:, None]
    spec = np.fft.rfft(field.values, axis=1)
    _check_v_tail(spec)

    phase = k_lab[None, :] * (x * x) * delta
    out = np.fft.irfft(spec * np.exp(-1j * phase), n=len(field.v), axis=1)
    return field.with_values(out)


def moyal_phase(field: PhaseSpaceField, schedule: Schedule,
                params: SemiclassicalParams, a2: float) -> PhaseSpaceField:
    """The Wigner field at t2 or later whose classical counterpart is field:
    its momentum spectrum times exp(-i (h^2/3) delta k^3), with delta
    window 2's bump integral and k = k_v e^(a2) the lab wavenumber at t2
    (frame log-scale a2). Window 3 only shifts the frame and damps each
    k_v, so the same multiplier holds after it."""
    start, tau = schedule.window(2)
    delta = schedule.bump_integral(2, start, start + tau)
    k = _rk_axis(len(field.v), field.dv) * math.exp(a2)
    spec = np.fft.rfft(field.values, axis=1)
    spec *= np.exp(-1j * (params.h ** 2 / 3.0) * delta * k ** 3)
    return replace(field, kind="wigner",
                   values=np.fft.irfft(spec, n=len(field.v), axis=1))


def _integrated_diffusion(field: PhaseSpaceField, params: SemiclassicalParams,
                          I_u: float, I_v: float) -> PhaseSpaceField:
    """Multiply by exp[-(D/2)(k_u^2 I_u + k_v^2 I_v)] in 2-D Fourier space.

    I_u and I_v are the time integrals of e^(-2a(t)) and e^(+2a(t)); with a
    static frame both equal e^(-+2a) * dt and this is the plain lab heat
    kernel for duration dt.
    """
    if params.D == 0.0 or (I_u == 0.0 and I_v == 0.0):
        return field
    ku = _k_axis(len(field.u), field.du)
    kv = _rk_axis(len(field.v), field.dv)
    damp = np.exp(-(params.D / 2.0)
                  * (I_u * ku[:, None] ** 2 + I_v * kv[None, :] ** 2))
    out = np.fft.irfft2(np.fft.rfft2(field.values) * damp,
                        s=field.values.shape)
    return field.with_values(out)


def diffusion_substep(field: PhaseSpaceField, params: SemiclassicalParams,
                      dt: float) -> PhaseSpaceField:
    """Isotropic lab-frame diffusion for duration dt at the field's frame."""
    a = field.frame.a
    return _integrated_diffusion(field, params,
                                 math.exp(-2.0 * a) * dt,
                                 math.exp(2.0 * a) * dt)


def _edge_metrics(field: PhaseSpaceField) -> dict:
    cell = field.du * field.dv
    a = np.abs(field.values)
    total = max(a.sum() * cell, 1e-300)
    v_edge = (a[:, 0].sum() + a[:, -1].sum()) * cell / total
    u_edge = (a[0, :].sum() + a[-1, :].sum()) * cell / total
    b = 4
    corner = (a[:b, :b].sum() + a[:b, -b:].sum()
              + a[-b:, :b].sum() + a[-b:, -b:].sum()) * cell / total
    return {"v_edge": float(v_edge), "u_edge": float(u_edge),
            "corner": float(corner)}


def _check_field(field: PhaseSpaceField, mass0: float, label: str,
                 diagnostics: dict) -> None:
    mass = field.mass()
    if abs(mass - mass0) > 1e-4:
        raise SolverFailureError(f"mass drifted to {mass} at {label}")
    u_tail = _tail_fraction(np.fft.rfft(field.values, axis=0), axis=0)
    if u_tail > _U_TAIL_TOL:
        raise ResolutionError(
            f"position spectral tail carries relative mass {u_tail:.2e} "
            f"at {label}: the grid has too few u-points for this run")
    if field.kind == "classical" and field.min_value() < -1e-6:
        raise SolverFailureError(
            f"classical density reached {field.min_value()} at {label}")
    edges = _edge_metrics(field)
    if edges["corner"] > _EDGE_TOL:
        raise SolverFailureError(
            f"corner mass {edges['corner']:.2e} at {label} indicates wraparound")
    if edges["v_edge"] > _V_EDGE_TOL:
        raise SolverFailureError(
            f"momentum-edge mass {edges['v_edge']:.2e} at {label}: "
            "the momentum extent is too small for this run")
    diagnostics[label] = {"mass": mass, "min": field.min_value(),
                          "u_tail": u_tail, **edges}


def _stretch_window(field: PhaseSpaceField, schedule: Schedule, i: int,
                    sign: float, params: SemiclassicalParams,
                    config: EvolverConfig) -> PhaseSpaceField:
    """Window 1 or 3: exact frame transport plus integrated diffusion."""
    start, tau = schedule.window(i)
    I_u = I_v = 0.0
    if params.D > 0.0:
        panels = max(1, math.ceil(config.substeps_per_unit * tau))
        I_u, I_v = schedule.stretch_integrals(i, sign, field.frame.a, panels)
    field = field.with_frame(field.frame.shifted(
        sign * schedule.bump_integral(i, start, start + tau)))
    return _integrated_diffusion(field, params, I_u, I_v)


def _window_matrices(schedule: Schedule, kx: np.ndarray, d: float,
                     m: int) -> tuple[np.ndarray, int]:
    """M - I for the propagators of M' = [[0, -2i d], [-2 chi_2(t) kx, 0]] M
    over each of m equal pieces of window 2 and every column kx, shape
    (m, 4, len(kx)) with the entries (00, 01, 10, 11) along axis 1, and
    the number of right-hand-side evaluations taken.

    Each piece is one solve of E' = A(t)(E + I) from E = 0, all columns at
    once, by scipy's Fortran DOP853 (integrate.ode). solve_ivp's DOP853
    forms every stage with a BLAS call, which a multithreaded BLAS slows
    many-fold in the sweep's process pool. Carrying E = M - I keeps
    M00 - 1 and M11 - 1 exact to roundoff when D is small.
    """
    start, tau = schedule.window(2)
    b = -2j * d
    evals = 0

    def rhs(t, y):
        nonlocal evals
        evals += 1
        e = y.view(complex).reshape(4, -1)
        c = -2.0 * schedule.chi(2, t) * kx
        return np.concatenate([b * e[2], b * (e[3] + 1.0),
                               c * (e[0] + 1.0), c * e[1]]).view(float)

    solver = integrate.ode(rhs).set_integrator(
        "dop853", rtol=_WINDOW_RTOL, atol=_WINDOW_ATOL)
    out = np.empty((m, 4, len(kx)), dtype=complex)
    for j in range(m):
        solver.set_initial_value(np.zeros(8 * len(kx)), start + tau * j / m)
        y = solver.integrate(start + tau * (j + 1) / m)
        if not solver.successful():
            raise SolverFailureError("window-2 matrix solve failed: DOP853 "
                                     f"return code {solver.get_return_code()}")
        out[j] = y.view(complex).reshape(4, -1)
    return out, evals


def _window_factors(field: PhaseSpaceField, schedule: Schedule,
                    params: SemiclassicalParams):
    """The D > 0 window-2 propagator in factored form.

    Returns (keep, damp, beta, g_in, g_out, info): the kept k_v columns,
    their damping exp(-(D/2) e^(2a) tau2 k_v^2), and per piece (rows) and
    kept column the heat parameter beta and the chirps g_in, g_out. Each
    piece maps a column by exp(i g_in u^2/2), then exp(-i beta k_u^2/2) in
    Fourier space, then exp(i g_out u^2/2). With the piece's matrix M
    (M' = [[0, -2i d], [-2 c(t), 0]] M for c(t) = chi_2(t) k s_x^2 and
    d = (D/2) e^(-2a), integrated adaptively by _window_matrices),
    beta = M01, g_in = (M00 - 1)/beta and g_out = (M11 - 1)/beta. The
    window is one piece unless a factor would grow on the grid; then it is
    the fewest equal pieces (a power of two) for which none does. info
    adds the solves' rhs evaluations and max |det M - 1| (M is unimodular).
    """
    a = field.frame.a
    kv = _rk_axis(len(field.v), field.dv)
    log_damp = (params.D / 2.0) * math.exp(2.0 * a) * schedule.tau2 * kv ** 2
    keep = log_damp < _DAMP_CUT
    kx = kv[keep] / field.frame.s_p * field.frame.s_x ** 2
    d = (params.D / 2.0) * math.exp(-2.0 * a)

    log_u = float(np.abs(field.u).max()) ** 2 / 2.0
    log_k = float(np.abs(_k_axis(len(field.u), field.du)).max()) ** 2 / 2.0
    m, evals = 1, 0
    while True:
        M, more = _window_matrices(schedule, kx, d, m)  # M - I per piece
        evals += more
        beta = M[:, 1]
        g_in, g_out = M[:, 0] / beta, M[:, 3] / beta
        growth = max(log_k * float(beta.imag.max()),
                     -log_u * float(min(g_in.imag.min(), g_out.imag.min())))
        if growth <= _GROWTH_TOL:
            break
        m *= 2
        if m > _MAX_PIECES:
            raise SolverFailureError(
                f"window-2 propagator still grows in {_MAX_PIECES} pieces")
    det_defect = M[:, 0] + M[:, 3] + M[:, 0] * M[:, 3] - M[:, 1] * M[:, 2]
    info = {"kick_substeps": m, "window_rhs_evals": evals,
            "window_det_defect": float(np.abs(det_defect).max()),
            "kept_columns": int(keep.sum())}
    return keep, np.exp(-log_damp[keep]), beta, g_in, g_out, info


def _kick_window(field: PhaseSpaceField, schedule: Schedule,
                 params: SemiclassicalParams) -> tuple[PhaseSpaceField, dict]:
    """Window 2: the classical cubic kick, exact at every D.

    Returns the kicked field and its diagnostics. The frame is static in
    this window. At D = 0 the kick multipliers commute and their phase is
    linear in delta, so one kick by the whole window's bump integral is
    exact. At D > 0 the state stays in the (u, k_v) representation, where
    each column takes its propagator from _window_factors (an adaptive
    solve to _WINDOW_RTOL): two chirps around one complex FFT pair along u
    per piece (one piece on every default-sweep point), then its damping;
    columns damped below e^-46 are set to zero. The momentum tail is
    checked on the window's input and output.
    """
    if params.D == 0.0:
        start, tau = schedule.window(2)
        delta = schedule.bump_integral(2, start, start + tau)
        return cubic_kick_substep(field, delta), \
            {"kick_substeps": 1, "window_rhs_evals": 0,
             "window_det_defect": 0.0, "kept_columns": len(field.v) // 2 + 1}
    keep, damp, beta, g_in, g_out, info = _window_factors(
        field, schedule, params)
    spec = np.fft.rfft(field.values, axis=1)
    _check_v_tail(spec)
    u2 = (field.u ** 2 / 2.0)[:, None]
    ku2 = (_k_axis(len(field.u), field.du) ** 2 / 2.0)[:, None]
    cols = spec[:, keep]
    for b, gi, go in zip(beta, g_in, g_out):
        cols = np.fft.fft(cols * np.exp(1j * gi * u2), axis=0)
        cols = np.fft.ifft(cols * np.exp(-1j * b * ku2), axis=0)
        cols *= np.exp(1j * go * u2)
    spec = np.zeros_like(spec)
    spec[:, keep] = cols * damp
    _check_v_tail(spec)
    return field.with_values(np.fft.irfft(spec, n=len(field.v), axis=1)), info


def evolve(field: PhaseSpaceField, schedule: Schedule,
           params: SemiclassicalParams,
           config: EvolverConfig = EvolverConfig()) -> EvolveResult:
    """Run the full schedule, returning the final field and the four
    checkpoint snapshots (t0 through t3). A Wigner field takes the
    classical kick window, then its Moyal phase (moyal_phase)."""
    diagnostics: dict = {}
    mass0 = field.mass()
    if abs(mass0 - 1.0) > 1e-6:
        raise InvalidParameterError("input field is not normalized")
    _check_field(field, mass0, "t0", diagnostics)
    cp0 = field

    field = _stretch_window(field, schedule, 1, +1.0, params, config)
    _check_field(field, mass0, "t1", diagnostics)
    cp1 = field

    field, window = _kick_window(field, schedule, params)
    if field.kind == "wigner":
        field = moyal_phase(field, schedule, params, field.frame.a)
    _check_field(field, mass0, "t2", diagnostics)
    diagnostics["t2"].update(window)
    cp2 = field

    field = _stretch_window(field, schedule, 3, -1.0, params, config)
    # The momentum marginal is insensitive to position-direction wraparound,
    # which large-D runs incur late in window 3; only the corners and the
    # momentum edges are enforced (see _check_field).
    _check_field(field, mass0, "t3", diagnostics)

    return EvolveResult(final=field, checkpoints=(cp0, cp1, cp2, field),
                        diagnostics=diagnostics)

