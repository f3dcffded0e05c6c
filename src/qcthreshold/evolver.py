"""Split-step spectral evolution of Wigner and classical phase-space
densities through the three-window schedule with isotropic diffusion.

The co-moving frame absorbs the stretch/squeeze transport exactly, so every
grid operation is a Fourier or diagonal multiplier:

  windows 1 and 3:  frame log-scale update (exact) plus diffusion with
                    time-integrated lab coefficients (exact per window,
                    since all multipliers commute);
  window 2:         cubic kick as a momentum-direction Fourier multiplier
                    exp[-i k (x^2 + kappa (h^2/3) k^2) delta]. The frame is
                    static there, so at D = 0 the multipliers commute and
                    one kick over the whole window is exact; at D > 0 the
                    kick is Lie- or Strang-split against diffusion in the
                    (u, k_v) representation, where the kick and the k_v
                    damping are diagonal and each substep needs one
                    complex FFT pair along u.

kappa = 1 evolves the truncated quantum (Wigner-Moyal) equation, kappa = 0
the classical Fokker-Planck equation; both share every other term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import PhaseSpaceField, Schedule, SemiclassicalParams, \
    l1_distance, momentum_marginal
from .errors import InvalidParameterError, ResolutionError, SolverFailureError

__all__ = [
    "EvolverConfig",
    "EvolveResult",
    "ConvergenceReport",
    "evolve",
    "cubic_kick_substep",
    "diffusion_substep",
    "convergence_check",
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


@dataclass(frozen=True)
class EvolverConfig:
    substeps_per_unit: int = 200
    splitting_order: int = 2

    def __post_init__(self):
        if self.substeps_per_unit < 1:
            raise InvalidParameterError("substeps_per_unit must be >= 1")
        if self.splitting_order not in (1, 2):
            raise InvalidParameterError("splitting order must be 1 or 2")


@dataclass(frozen=True)
class EvolveResult:
    final: PhaseSpaceField
    checkpoints: tuple  # fields at t0, t1, t2, t3
    diagnostics: dict


@dataclass(frozen=True)
class ConvergenceReport:
    l1_difference: float
    passed: bool
    base_substeps: int
    refined_substeps: int


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


def cubic_kick_substep(field: PhaseSpaceField, delta: float,
                       params: SemiclassicalParams, kappa: int) -> PhaseSpaceField:
    """Apply the kick generated by -x^3/3 over integrated bump weight delta.

    In lab variables each x-column translates in p by delta*x^2; the quantum
    correction (kappa = 1) adds the phase -kappa*(h^2/3)*k^3*delta. Both are
    exact Fourier multipliers along the momentum axis.
    """
    if delta == 0.0:
        return field
    s_x, s_p = field.frame.s_x, field.frame.s_p
    k_lab = _rk_axis(len(field.v), field.dv) / s_p
    x = (s_x * field.u)[:, None]
    spec = np.fft.rfft(field.values, axis=1)
    _check_v_tail(spec)

    phase = k_lab[None, :] * (x * x) * delta
    if kappa:
        phase = phase + kappa * (params.h ** 2 / 3.0) * k_lab[None, :] ** 3 * delta
    out = np.fft.irfft(spec * np.exp(-1j * phase), n=len(field.v), axis=1)
    return field.with_values(out)


def _damping(field: PhaseSpaceField, params: SemiclassicalParams,
             I_u: float, I_v: float) -> np.ndarray:
    """exp[-(D/2)(k_u^2 I_u + k_v^2 I_v)] on the (k_u, k_v) half-spectrum."""
    ku = _k_axis(len(field.u), field.du)
    kv = _rk_axis(len(field.v), field.dv)
    return np.exp(-(params.D / 2.0)
                  * (I_u * ku[:, None] ** 2 + I_v * kv[None, :] ** 2))


def _integrated_diffusion(field: PhaseSpaceField, params: SemiclassicalParams,
                          I_u: float, I_v: float) -> PhaseSpaceField:
    """Multiply by exp[-(D/2)(k_u^2 I_u + k_v^2 I_v)] in 2-D Fourier space.

    I_u and I_v are the time integrals of e^(-2a(t)) and e^(+2a(t)); with a
    static frame both equal e^(-+2a) * dt and this is the plain lab heat
    kernel for duration dt.
    """
    if params.D == 0.0 or (I_u == 0.0 and I_v == 0.0):
        return field
    damp = _damping(field, params, I_u, I_v)
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


def _window_substeps(tau: float, config: EvolverConfig) -> int:
    return max(1, int(math.ceil(config.substeps_per_unit * tau)))


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
        I_u, I_v = schedule.stretch_integrals(i, sign, field.frame.a,
                                              _window_substeps(tau, config))
    field = field.with_frame(field.frame.shifted(
        sign * schedule.bump_integral(i, start, start + tau)))
    return _integrated_diffusion(field, params, I_u, I_v)


def _kick_window(field: PhaseSpaceField, schedule: Schedule,
                 params: SemiclassicalParams, config: EvolverConfig,
                 kappa: int) -> tuple[PhaseSpaceField, int]:
    """Window 2: the cubic kick, split against diffusion when D > 0.

    Returns the kicked field and the number of kick substeps applied. The
    frame is static in this window. At D = 0 the kick multipliers commute
    and their phase is linear in delta, so one kick by the whole window's
    bump integral is exact. At D > 0 the state stays in the (u, k_v)
    representation for the whole window: the kick and the k_v damping are
    diagonal there, and the k_u damping takes one complex FFT pair along u
    per substep.
    """
    start, tau = schedule.window(2)
    if params.D == 0.0:
        delta = schedule.bump_integral(2, start, start + tau)
        return cubic_kick_substep(field, delta, params, kappa), 1
    n = _window_substeps(tau, config)
    edges = start + tau * np.arange(n + 1) / n
    deltas = schedule.bump_integral(2, edges[:-1], edges[1:])
    dt = tau / n
    a = field.frame.a
    full, half = (_damping(field, params, math.exp(-2.0 * a) * t,
                           math.exp(2.0 * a) * t) for t in (dt, dt / 2.0))
    s_x, s_p = field.frame.s_x, field.frame.s_p
    k_lab = _rk_axis(len(field.v), field.dv)[None, :] / s_p
    x = (s_x * field.u)[:, None]
    phi = k_lab * (x * x)
    if kappa:
        phi = phi + kappa * (params.h ** 2 / 3.0) * k_lab ** 3

    def diffuse(spec, damp):
        return np.fft.ifft(np.fft.fft(spec, axis=0) * damp, axis=0)

    spec = np.fft.rfft(field.values, axis=1)
    # Strang: half diffusion at the ends, full in between
    strang = config.splitting_order == 2
    if strang:
        spec = diffuse(spec, half)
    for j, delta in enumerate(deltas):
        _check_v_tail(spec)
        spec *= np.exp(-1j * delta * phi)
        spec = diffuse(spec, half if strang and j == n - 1 else full)
    return field.with_values(np.fft.irfft(spec, n=len(field.v), axis=1)), n


def evolve(field: PhaseSpaceField, schedule: Schedule,
           params: SemiclassicalParams,
           config: EvolverConfig = EvolverConfig()) -> EvolveResult:
    """Run the full schedule, returning the final field and the four
    checkpoint snapshots (t0 through t3)."""
    kappa = 1 if field.kind == "wigner" else 0
    diagnostics: dict = {}
    mass0 = field.mass()
    if abs(mass0 - 1.0) > 1e-6:
        raise InvalidParameterError("input field is not normalized")
    _check_field(field, mass0, "t0", diagnostics)
    cp0 = field

    field = _stretch_window(field, schedule, 1, +1.0, params, config)
    _check_field(field, mass0, "t1", diagnostics)
    cp1 = field

    field, kick_substeps = _kick_window(field, schedule, params, config, kappa)
    _check_field(field, mass0, "t2", diagnostics)
    diagnostics["t2"]["kick_substeps"] = kick_substeps
    cp2 = field

    field = _stretch_window(field, schedule, 3, -1.0, params, config)
    # The momentum marginal is insensitive to position-direction wraparound,
    # which large-D runs incur late in window 3; only the corners and the
    # momentum edges are enforced (see _check_field).
    _check_field(field, mass0, "t3", diagnostics)

    return EvolveResult(final=field, checkpoints=(cp0, cp1, cp2, field),
                        diagnostics=diagnostics)


def convergence_check(field: PhaseSpaceField, schedule: Schedule,
                      params: SemiclassicalParams,
                      config: EvolverConfig = EvolverConfig(),
                      tol: float = 1e-4) -> ConvergenceReport:
    """Compare final momentum marginals at the configured substep count and
    at twice that count."""
    coarse = evolve(field, schedule, params, config)
    fine_cfg = replace(config, substeps_per_unit=2 * config.substeps_per_unit)
    fine = evolve(field, schedule, params, fine_cfg)
    diff = l1_distance(momentum_marginal(coarse.final),
                       momentum_marginal(fine.final))
    return ConvergenceReport(l1_difference=diff, passed=diff < tol,
                             base_substeps=config.substeps_per_unit,
                             refined_substeps=fine_cfg.substeps_per_unit)
