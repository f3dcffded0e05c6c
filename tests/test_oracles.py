"""Oracle cross-validation tests.

Three independent discretizations of the same dynamics are checked
against each other and against the closed forms: a Schrodinger solver
(closed quantum), a position-basis Lindblad density-matrix solver (open
quantum), and a Langevin sampler (open classical).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh
from scipy.stats import ks_2samp

from qcthreshold.closedform import classical_momentum_pdf, quantum_momentum_pdf
from qcthreshold.core import (
    GridSpec,
    Schedule,
    SemiclassicalParams,
    initial_coherent_field,
    momentum_marginal,
    resample_distribution,
    standard_schedule,
)
from qcthreshold.errors import (InvalidParameterError, ResolutionError,
                                SolverFailureError)
from qcthreshold import oracles
from qcthreshold.evolver import evolve
from qcthreshold.oracles import (
    DensityMatrixField,
    _kick_window_law,
    coherent_density_matrix,
    coherent_wavefunction,
    dm_momentum_marginal,
    histogram_distribution,
    langevin_sample,
    lindblad_dm_evolve,
    momentum_distribution,
    schrodinger_closed,
)

from bump_reference import GL_W, GL_X, bump_integral

H = 0.05
SCH = standard_schedule(H)
PARAMS0 = SemiclassicalParams(hbar=2 * H)


class TestSchrodinger:
    def test_initial_momentum_density(self):
        psi = coherent_wavefunction(H)
        md = momentum_distribution(psi, H)
        ref = np.exp(-md.p ** 2 / (2 * H)) / math.sqrt(2 * math.pi * H)
        assert float(np.abs(md.q - ref).sum() * md.dp) < 1e-9

    def test_stretch_is_pure_dilation(self):
        cps = schrodinger_closed(coherent_wavefunction(H), SCH, H)
        assert cps[1].scale == pytest.approx(math.exp(SCH.tau1))
        assert np.array_equal(cps[1].values, cps[0].values)
        # the cubic phase leaves |psi|^2 untouched
        assert np.abs(np.abs(cps[2].values) - np.abs(cps[1].values)).max() \
            < 1e-14

    @pytest.mark.parametrize("sch", [SCH, Schedule(0.4, 0.5, 1.2),
                                     Schedule(0.3, 2.0, 1.5)],
                             ids=["standard", "0.4-0.5-1.2", "0.3-2.0-1.5"])
    def test_final_matches_airy_closed_form(self, sch):
        # the two other schedules have momentum scale S != 1
        cps = schrodinger_closed(coherent_wavefunction(H), sch, H)
        md = momentum_distribution(cps[3], H)
        mask = (md.p > -14.0) & (md.p < 46.0)
        ref = quantum_momentum_pdf(md.p[mask], sch.tau1, sch.tau2, sch.tau3, H)
        assert float(np.abs(md.q[mask] - ref).sum() * md.dp) < 1e-9

    def test_weak_kick_gaussian_limit(self):
        # tau2 -> 0 leaves a squeezed Gaussian of variance h e^{2(tau3-tau1)}
        sch = Schedule(tau1=0.3, tau2=1e-4, tau3=0.5)
        cps = schrodinger_closed(coherent_wavefunction(H), sch, H)
        md = momentum_distribution(cps[3], H)
        var = H * math.exp(2 * (sch.tau3 - sch.tau1))
        ref = np.exp(-md.p ** 2 / (2 * var)) / math.sqrt(2 * math.pi * var)
        assert float(np.abs(md.q - ref).sum() * md.dp) < 1e-3

    def test_undersampled_phase_raises(self):
        psi = coherent_wavefunction(H, n=128)
        with pytest.raises(ResolutionError):
            schrodinger_closed(psi, SCH, H)


def _diagonals(vals):
    """The DensityMatrixField layout read off an n x n matrix: S[r, i] =
    vals[i, (i - r) mod n], r = 0 .. n//2."""
    n = len(vals)
    i = np.arange(n)
    return vals[i, (i - np.arange(n // 2 + 1)[:, None]) % n]


def _full_matrix(S):
    """The n x n matrix whose _diagonals are S, its other half filled by
    Hermiticity. The self-paired diagonals (r = 0, and r = n/2 at even n)
    are taken as S holds them, so the result is Hermitian except where S
    is not."""
    n = S.shape[1]
    i = np.arange(n)
    j = (i - np.arange(n // 2 + 1)[:, None]) % n
    vals = np.empty((n, n), dtype=complex)
    vals[j, i] = S.conj()
    vals[i, j] = S
    return vals


def _full_readings(rho):
    """(trace, Hermiticity defect) of rho's full matrix, read the way the
    guard did before it read the diagonals alone."""
    vals = _full_matrix(rho.diagonals)
    defect = np.abs(vals.conj().T - vals).max() / max(np.abs(vals).max(),
                                                       1e-300)
    return float(np.real(np.trace(vals)) * rho.dxi), float(defect)


def _purity(rho):
    return float((np.abs(_full_matrix(rho.diagonals)) ** 2).sum()
                 * rho.dxi ** 2)


def _trace_loop_marginal(rho, params):
    """dm_momentum_marginal as a loop of per-offset traces of the full
    matrix (its implementation before it read the diagonals directly)."""
    vals = _full_matrix(rho.diagonals)
    hbar = params.hbar
    n = len(rho.xi)
    dx = rho.scale * rho.dxi
    C = np.empty(2 * n - 1, dtype=complex)
    for r in range(n):
        C[n - 1 + r] = np.trace(vals, offset=-r)
        if r:
            C[n - 1 - r] = np.trace(vals, offset=r)
    C *= rho.dxi
    m = (2 * n - 1) * 4
    y0 = -(n - 1) * dx
    spec = np.fft.fft(C, n=m)
    p = 2.0 * math.pi * hbar * np.fft.fftfreq(m, d=dx)
    q = np.real(np.exp(-1j * p * y0 / hbar) * spec) * dx / (2.0 * math.pi * hbar)
    order = np.argsort(p)
    return p[order], q[order]


def _random_field(n, seed):
    """A DensityMatrixField holding the diagonals of a random Hermitian
    n x n matrix."""
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    xi = np.linspace(-1.0, 1.0, n, endpoint=False)
    return DensityMatrixField(
        xi=xi, diagonals=_diagonals((b + b.conj().T) / 2.0), scale=1.3)


def _lindblad_substep_window(rho, schedule, params, i, steps):
    """Window i of the Lindblad solver as a loop of Strang substeps, each
    with its own Gauss-Legendre coefficient integrals (the solver's former
    implementation, kept as the reference for its exact windows)."""
    hbar, D = params.hbar, params.D
    xi = rho.xi
    diff = xi[:, None] - xi[None, :]
    k = 2.0 * math.pi * np.fft.fftfreq(len(xi), d=rho.dxi)
    s = rho.scale
    a0 = math.log(s)
    sign = {1: 1.0, 2: 0.0, 3: -1.0}[i]
    start, tau = schedule.window(i)

    def gauss_int(ta, tb, expfac):
        nodes = ta + (tb - ta) * GL_X
        a_nodes = a0 + sign * np.array(
            [bump_integral(schedule, i, start, t) for t in nodes])
        return (tb - ta) * float((GL_W * np.exp(expfac * a_nodes)).sum())

    def p_decoherence(vals, coeff):
        spec = np.fft.fft2(vals)
        spec *= np.exp(-coeff * (k[:, None] + k[None, :]) ** 2)
        return np.fft.ifft2(spec)

    phase_unit = ((s * xi)[:, None] ** 3 - (s * xi)[None, :] ** 3) / (3.0 * hbar)
    vals = _full_matrix(rho.diagonals)
    for j in range(steps):
        ta = start + tau * j / steps
        tb = start + tau * (j + 1) / steps
        if i == 2:
            half = np.exp(1j * phase_unit
                          * (bump_integral(schedule, 2, ta, tb) / 2.0))
            half = half * np.exp(-(D / (2.0 * hbar ** 2)) * (s * diff) ** 2
                                 * ((tb - ta) / 2.0))
            coeff = (D / 2.0) * (tb - ta) / s ** 2
        else:
            half = np.exp(-(D / (2.0 * hbar ** 2)) * diff ** 2
                          * (gauss_int(ta, tb, 2.0) / 2.0))
            coeff = (D / 2.0) * gauss_int(ta, tb, -2.0)
        vals = vals * half
        vals = p_decoherence(vals, coeff)
        vals = vals * half
    return replace(rho, diagonals=_diagonals(vals),
                   scale=math.exp(a0 + sign * tau))


def _dm_run(n):
    params = SemiclassicalParams(hbar=2 * H, D=H ** (4.0 / 3.0))
    rho0 = coherent_density_matrix(H, n=n)
    return params, lindblad_dm_evolve(rho0, SCH, params, steps=60)


@pytest.fixture(scope="module")
def dm_run():
    return _dm_run(512)


@pytest.fixture(scope="module")
def dm_run_odd():
    return _dm_run(511)


class TestLindbladDensityMatrix:
    def test_trace_and_hermiticity(self, dm_run):
        _, cps = dm_run
        for rho in cps:
            trace, defect = _full_readings(rho)
            assert rho.trace() == pytest.approx(1.0, abs=1e-6)
            assert trace == pytest.approx(1.0, abs=1e-6)
            assert defect < 1e-10

    def test_purity_decreases(self, dm_run):
        _, cps = dm_run
        purities = [_purity(r) for r in cps]
        assert purities[0] == pytest.approx(1.0, abs=1e-6)
        assert purities[3] < purities[0] - 0.01

    def test_positivity(self):
        params = SemiclassicalParams(hbar=2 * H, D=H ** (4.0 / 3.0))
        rho0 = coherent_density_matrix(H, n=192)
        final = lindblad_dm_evolve(rho0, SCH, params, steps=40)[3]
        eigs = np.linalg.eigvalsh(_full_matrix(final.diagonals) * final.dxi)
        assert eigs.min() > -1e-6

    def test_marginal_matches_spectral_evolver(self, dm_run):
        params, cps = dm_run
        md = dm_momentum_marginal(cps[3], params)
        f0 = initial_coherent_field(params, GridSpec.for_h(H), "wigner")
        sp = momentum_marginal(evolve(f0, SCH, params).final)
        mask = (md.p > -14.0) & (md.p < 46.0)
        ref = resample_distribution(sp, md.p[mask])
        assert float(np.abs(md.q[mask] - ref.q).sum() * md.dp) < 1e-4

    @pytest.mark.parametrize("n", [2, 3, 64, 65, 512])
    def test_marginal_matches_trace_loop(self, n):
        # C(y) read off the diagonals equals the per-offset traces of the
        # full matrix, both halves of each row and the mirrored offsets
        rho = _random_field(n, seed=n)
        params = SemiclassicalParams(hbar=0.1)
        md = dm_momentum_marginal(rho, params)
        p, q = _trace_loop_marginal(rho, params)
        assert np.array_equal(md.p, p)
        assert np.abs(md.q - q).max() <= 1e-14 * np.abs(q).max()

    def test_checkpoint_marginals_match_trace_loop(self, dm_run, dm_run_odd):
        for params, cps in (dm_run, dm_run_odd):
            for rho in cps:
                q = _trace_loop_marginal(rho, params)[1]
                got = dm_momentum_marginal(rho, params).q
                assert np.abs(got - q).max() <= 1e-14 * np.abs(q).max()

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_window_matches_substep_loop(self, dm_run, window):
        # the stretch windows are one exact step; the kick window takes its
        # momentum diffusion in one step, where the reference splits it
        # over the substeps, and fuses neighbouring Strang half-phases
        params, cps = dm_run
        ref = _lindblad_substep_window(cps[window - 1], SCH, params, window,
                                       steps=60)
        assert cps[window].scale == pytest.approx(ref.scale, rel=1e-14)
        got = dm_momentum_marginal(cps[window], params).q
        want = dm_momentum_marginal(ref, params).q
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_odd_grid_window_matches_substep_loop(self, dm_run_odd, window):
        # at odd n only the main diagonal pairs with itself
        self.test_window_matches_substep_loop(dm_run_odd, window)

    def test_stretch_panels_do_not_follow_steps(self):
        # the window-1 decoherence integrals take their own panel count,
        # so the Strang steps of window 2 leave the t1 checkpoint alone
        params = SemiclassicalParams(hbar=2 * H, D=H ** (4.0 / 3.0))
        rho0 = coherent_density_matrix(H, n=128)
        few = lindblad_dm_evolve(rho0, SCH, params, steps=4)[1].diagonals
        many = lindblad_dm_evolve(rho0, SCH, params, steps=400)[1].diagonals
        assert np.abs(few - many).max() <= 1e-15 * np.abs(many).max()

    def test_kick_window_is_second_order_in_steps(self):
        # the kick window splits only the position diffusion against the
        # cubic phase, symmetrically: each halving of the step cuts the
        # t2 marginal's L1 error (against 1920 steps) by 4, not 2
        params = SemiclassicalParams(hbar=2 * H, D=H ** (4.0 / 3.0))
        rho0 = coherent_density_matrix(H, n=128)

        def t2_marginal(steps):
            cps = lindblad_dm_evolve(rho0, SCH, params, steps=steps)
            return dm_momentum_marginal(cps[2], params)

        ref = t2_marginal(1920)
        errs = [float(np.abs(md.q - ref.q).sum() * md.dp)
                for md in map(t2_marginal, (8, 16, 32, 64))]
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.8 <= coarse / fine <= 4.2
        assert errs[-1] < 1e-5

    @pytest.mark.parametrize("n", [64, 65])
    def test_diagonal_layout_round_trip(self, n):
        # the test-side reference pair against the layout's definition and
        # against coherent_density_matrix
        rng = np.random.default_rng(n)
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        vals = (b + b.conj().T) / 2.0
        S = _diagonals(vals)
        assert S.shape == (n // 2 + 1, n)
        for r in range(n // 2 + 1):
            for i in range(n):
                assert S[r, i] == vals[i, (i - r) % n]
        assert np.array_equal(_full_matrix(S), vals)
        # a self-paired diagonal (the main one and, at even n, the one at
        # offset n/2) is rebuilt as S holds it, so a defect there stays
        # visible to the Hermiticity guard; any other is mirrored
        for r, self_paired in ((0, True), (n // 2, n % 2 == 0), (1, False)):
            T = S.copy()
            T[r, 0] += 1e-3j
            full = _full_matrix(T)
            assert np.array_equal(_diagonals(full), T)
            assert np.count_nonzero(full - vals) == (1 if self_paired else 2)
            assert (np.abs(full - full.conj().T).max() > 0) == self_paired
        rho = coherent_density_matrix(H, n=n)
        psi = np.sqrt(np.diag(_full_matrix(rho.diagonals)).real)
        assert np.array_equal(rho.diagonals, _diagonals(np.outer(psi, psi)))

    def test_closed_run_is_pure_kicked_state(self):
        # at D = 0 the stretch windows only rescale and the kick window is
        # the one exact phase exp(i tau2 x^3 / 3 hbar) on each factor of
        # rho = psi psi^*
        rho0 = coherent_density_matrix(H, n=256)
        cps = lindblad_dm_evolve(rho0, SCH, PARAMS0, steps=10)
        assert cps[3].scale == pytest.approx(
            math.exp(SCH.tau1 - SCH.tau3), rel=1e-14)
        x = math.exp(SCH.tau1) * rho0.xi
        vals0 = _full_matrix(rho0.diagonals)
        psi = vals0[:, 128] / math.sqrt(vals0[128, 128].real) \
            * np.exp(1j * SCH.tau2 * x ** 3 / (3.0 * PARAMS0.hbar))
        want = np.outer(psi, psi.conj())
        assert np.abs(_full_matrix(cps[3].diagonals) - want).max() \
            <= 1e-12 * np.abs(want).max()

    def test_invalid_arguments(self):
        rho0 = coherent_density_matrix(H, n=64)
        for steps in (0, -3, 2.5, math.nan, True):
            with pytest.raises(InvalidParameterError):
                lindblad_dm_evolve(rho0, SCH, PARAMS0, steps=steps)

    @pytest.mark.parametrize("make", [coherent_wavefunction,
                                      coherent_density_matrix])
    @pytest.mark.parametrize("h, n", [
        (math.nan, 64), (0.0, 64), (-1.0, 64), (math.inf, 64),
        (H, True), (H, 64.5), (H, 1), (H, 1.0), (H, 0), (H, -1),
        (H, math.nan), (H, math.inf)])
    def test_constructor_rejects_bad_input(self, make, h, n):
        with pytest.raises(InvalidParameterError):
            make(h, n)

    @pytest.mark.parametrize("make, layout", [
        (coherent_wavefunction, "values"),
        (coherent_density_matrix, "diagonals")])
    def test_constructor_casts_integer_valued_float(self, make, layout):
        a, b = make(H, 64.0), make(H, 64)
        assert np.array_equal(a.xi, b.xi)
        assert np.array_equal(getattr(a, layout), getattr(b, layout))

    def test_single_point_field_rejected(self):
        # dxi needs two points; a one-point field would otherwise end
        # lindblad_dm_evolve in an IndexError
        with pytest.raises(InvalidParameterError, match="two grid points"):
            lindblad_dm_evolve(
                DensityMatrixField(xi=np.zeros(1), diagonals=np.ones((1, 1))),
                SCH, PARAMS0)

    @pytest.mark.parametrize("shape", [(8, 8), (4, 8), (5, 7), (5, 8, 1),
                                       (40,)])
    def test_wrong_diagonals_shape_rejected(self, shape):
        with pytest.raises(InvalidParameterError, match=r"shape \(5, 8\)"):
            DensityMatrixField(xi=np.arange(8.0), diagonals=np.ones(shape))

    def test_guard_leaves_a_real_field_unchanged(self):
        rho0 = coherent_density_matrix(H, n=64)
        S = rho0.diagonals.real.copy()
        field = replace(rho0, diagonals=S)
        assert oracles._dm_check(field, "t0")[1] == 0.0
        np.testing.assert_array_equal(S, rho0.diagonals.real)
        S[32, 5] += 1e-10
        assert oracles._dm_check(field, "t0")[1] > 0.0
        assert S[32, 5] != S[32, 37]

    def test_real_rho0_evolves_like_complex(self):
        rho0 = coherent_density_matrix(H, n=64)
        real = replace(rho0, diagonals=rho0.diagonals.real.copy())
        before = real.diagonals.copy()
        params = SemiclassicalParams(hbar=2 * H, D=H ** (4.0 / 3.0))
        out_real = lindblad_dm_evolve(real, SCH, params, steps=4)
        out = lindblad_dm_evolve(rho0, SCH, params, steps=4)
        np.testing.assert_array_equal(real.diagonals, before)
        for a, b in zip(out_real[1:], out[1:]):
            np.testing.assert_allclose(
                a.diagonals, b.diagonals, rtol=0,
                atol=1e-14 * np.abs(b.diagonals).max())

    def test_hermiticity_guard_fires(self):
        rho0 = coherent_density_matrix(H, n=64)
        S = rho0.diagonals.copy()
        S[0, 32] += 1e-6j * np.abs(S).max()
        with pytest.raises(SolverFailureError,
                           match="^Hermiticity lost at t0$"):
            lindblad_dm_evolve(replace(rho0, diagonals=S), SCH, PARAMS0)

    @pytest.mark.parametrize("n", [64, 65])
    def test_guard_reads_self_paired_rows(self, n):
        # the guard reads the self-paired rows (r = 0, and r = n/2 at even
        # n) for the trace and the Hermiticity defect: its readings equal
        # the full matrix's, and it fires on an imaginary main diagonal and
        # on a broken n/2 pair
        rho0 = coherent_density_matrix(H, n=n)
        S = rho0.diagonals
        big = np.abs(S).max()
        cases = [(0, 1e-10j), (0, 1e-6j), (1, 1e-6j)]
        if n % 2 == 0:
            cases += [(n // 2, 1e-10), (n // 2, 1e-6)]
        for r, eps in cases:
            T = S.copy()
            T[r, 3] += eps * big
            rho = replace(rho0, diagonals=T)
            trace, defect = _full_readings(rho)
            if r in (0, n // 2) and abs(eps) > 1e-8:
                assert defect > 1e-8
                with pytest.raises(SolverFailureError,
                                   match="^Hermiticity lost at t1$"):
                    oracles._dm_check(rho, "t1")
            else:
                assert oracles._dm_check(rho, "t1") == (trace, defect)

    def test_trace_guard_fires(self):
        rho0 = coherent_density_matrix(H, n=64)
        with pytest.raises(SolverFailureError,
                           match=r"^trace drifted to 1\.01\d* at t0$"):
            lindblad_dm_evolve(replace(rho0, diagonals=rho0.diagonals * 1.01),
                               SCH, PARAMS0)

    def test_initial_wigner_is_isotropic_gaussian(self):
        # the Wigner function of rho0 = psi0 psi0^*, with psi0 = (2 pi
        # h)^(-1/4) exp(-x^2 / 4h), is exp[-(x^2 + p^2)/2h] / (2 pi h); so
        # check rho0 itself, on 512 points spanning +-14 sqrt(h)
        rho = coherent_density_matrix(H, n=512)
        xi = np.linspace(-14 * math.sqrt(H), 14 * math.sqrt(H), 512,
                         endpoint=False)
        psi0 = (2 * math.pi * H) ** -0.25 * np.exp(-xi ** 2 / (4 * H))
        assert rho.scale == 1.0
        assert np.array_equal(rho.xi, xi)
        vals = _full_matrix(rho.diagonals)
        assert np.abs(vals - np.outer(psi0, psi0)).max() \
            <= 1e-14 * psi0.max() ** 2


def _kick_weights(sch):
    """c_j = step chi_2(midpoint j) of the kick window in steps of 1e-3."""
    start, tau = sch.window(2)
    n = math.ceil(tau / 1e-3)
    step = tau / n
    return step * sch.chi(2, start + (np.arange(n) + 0.5) * step)


def _kick_matrix(c):
    """T_i = sum_{j>i} c_j and the dense M_ik = T_max(i,k), built by loops
    independent of the sampler's cumulative sums."""
    T = np.array([c[i + 1:].sum() for i in range(len(c))])
    j = np.arange(len(c))
    return T, T[np.maximum.outer(j, j)]


def _kick_increments(sch, D, seed):
    """Window 2 of a 400 000-sample run as (x2 - x1, p2 - p1 - sum(c) x1^2)
    and the per-step scheme's closed-form (var, mean, var) of these given
    the sample's own x1: with x_j = x1 + rd S_j the drift sum is
    x1^2 sum(c) + 2 x1 rd T^T xi + rd^2 xi^T M xi, and the momentum noise
    adds D tau2."""
    c = _kick_weights(sch)
    T, M = _kick_matrix(c)
    rd2 = D * sch.tau2 / len(c)
    ens = langevin_sample(400_000, sch, SemiclassicalParams(hbar=2 * H, D=D),
                          seed=seed)
    x1 = ens[1].x
    dx = ens[2].x - x1
    r = ens[2].p - ens[1].p - c.sum() * x1 ** 2
    want = (D * sch.tau2, rd2 * np.trace(M),
            4.0 * rd2 * (T @ T) * float((x1 ** 2).mean())
            + 2.0 * rd2 ** 2 * (M * M).sum() + D * sch.tau2)
    return dx, r, want


class TestLangevin:
    def test_seed_reproducibility(self):
        a = langevin_sample(500, SCH, PARAMS0, seed=7)
        b = langevin_sample(500, SCH, PARAMS0, seed=7)
        c = langevin_sample(500, SCH, PARAMS0, seed=8)
        assert np.array_equal(a[3].p, b[3].p)
        assert not np.array_equal(a[3].p, c[3].p)
        noisy = SemiclassicalParams(hbar=2 * H, D=H ** (4.0 / 3.0))
        a = langevin_sample(500, SCH, noisy, seed=7)
        b = langevin_sample(500, SCH, noisy, seed=7)
        assert np.array_equal(a[3].x, b[3].x)
        assert np.array_equal(a[3].p, b[3].p)

    def test_cached_kick_law_is_bit_identical(self, monkeypatch):
        # the window law is computed once per (schedule, steps) and reused;
        # a seed gives the same ensembles from a miss, a hit and no cache
        noisy = SemiclassicalParams(hbar=2 * H, D=H ** (4.0 / 3.0))
        oracles._kick_law.cache_clear()
        miss = langevin_sample(500, SCH, noisy, seed=7)
        hit = langevin_sample(500, SCH, noisy, seed=7)
        assert oracles._kick_law.cache_info()[:2] == (1, 1)  # hits, misses
        law = oracles._kick_law(SCH, 1000)
        assert not any(a.flags.writeable for a in law[:-1])
        monkeypatch.setattr(oracles, "_kick_law", oracles._kick_law.__wrapped__)
        fresh = langevin_sample(500, SCH, noisy, seed=7)
        for ens in (hit, fresh):
            for got, want in zip(ens, miss):
                assert np.array_equal(got.x, want.x)
                assert np.array_equal(got.p, want.p)

    def test_initial_ensemble_moments(self):
        ens = langevin_sample(400_000, SCH, PARAMS0, seed=1)[0]
        assert float(ens.x.mean()) == pytest.approx(0.0, abs=3e-3)
        assert float(ens.x.var()) == pytest.approx(H, rel=1e-2)
        assert float(ens.p.var()) == pytest.approx(H, rel=1e-2)

    def test_closed_kick_map(self):
        # with D = 0, window 2 fixes x and adds tau2 * x^2 to p
        ens = langevin_sample(2000, SCH, PARAMS0, seed=3)
        x1, p1 = ens[1].x, ens[1].p
        x2, p2 = ens[2].x, ens[2].p
        assert np.abs(x2 - x1).max() < 1e-12
        assert np.abs(p2 - p1 - SCH.tau2 * x1 ** 2).max() < 1e-12

    def test_closed_stretch_map(self):
        ens = langevin_sample(2000, SCH, PARAMS0, seed=3)
        x0, p0 = ens[0].x, ens[0].p
        ratio = ens[1].x / x0
        assert np.abs(ratio - math.exp(SCH.tau1)).max() < 1e-12
        assert np.abs(ens[1].p * math.exp(SCH.tau1) - p0).max() < 1e-12

    def test_stretch_windows_match_ou_moments(self):
        # windows 1 and 3 are linear: dz = sign chi_i z dt + sqrt(D) dW
        # takes var z to e^{2A} var z + D int e^{2(A - a(t))} dt, with
        # a(t) = sign int chi_i and A = a(end). A short kick keeps the
        # Euler-Maruyama window 2 cheap; checkpoint 3 starts from the
        # sample's own checkpoint-2 variances.
        D = H ** (4.0 / 3.0)
        sch = Schedule(SCH.tau1, 0.05, SCH.tau3)

        def ou_var(var0, i, sign):
            start, tau = sch.window(i)
            A = sign * tau
            noise, _ = quad(lambda t: math.exp(
                2.0 * (A - sign * bump_integral(sch, i, start, t))),
                start, start + tau, epsabs=0.0, epsrel=1e-12, limit=200)
            return math.exp(2.0 * A) * var0 + D * noise

        ens = langevin_sample(400_000, sch,
                              SemiclassicalParams(hbar=2 * H, D=D), seed=11)
        assert float(ens[1].x.var()) == pytest.approx(ou_var(H, 1, 1.0),
                                                      rel=1e-2)
        assert float(ens[1].p.var()) == pytest.approx(ou_var(H, 1, -1.0),
                                                      rel=1e-2)
        assert float(ens[3].x.var()) == pytest.approx(
            ou_var(float(ens[2].x.var()), 3, -1.0), rel=1e-2)
        assert float(ens[3].p.var()) == pytest.approx(
            ou_var(float(ens[2].p.var()), 3, 1.0), rel=1e-2)

    def test_kick_window_matches_per_step_momentum_noise(self):
        # window 2 at D > 0 draws the momentum noise once per sample; the
        # reference steps x and p together, one Euler-Maruyama increment
        # each per step, from an independent checkpoint-1 ensemble. D = h
        # makes the momentum noise D tau2 over 10 % of var p at t2.
        D = H
        sch = Schedule(SCH.tau1, 0.2, SCH.tau3)
        params = SemiclassicalParams(hbar=2 * H, D=D)
        m = 200_000
        got = langevin_sample(m, sch, params, seed=21)[2]
        ens = langevin_sample(m, sch, params, seed=22)[1]
        x, p = ens.x, ens.p
        rng = np.random.default_rng(23)
        start, tau = sch.window(2)
        n = math.ceil(tau / 1e-3)
        step = tau / n
        for c in step * sch.chi(2, start + (np.arange(n) + 0.5) * step):
            p += c * x * x
            dx, dp = math.sqrt(D * step) * rng.standard_normal((2, m))
            x += dx
            p += dp
        assert D * tau >= 0.1 * float(p.var())
        assert float(got.x.var()) == pytest.approx(float(x.var()), rel=2e-2)
        assert float(got.p.var()) == pytest.approx(float(p.var()), rel=2e-2)
        assert ks_2samp(got.x, x).pvalue >= 1e-3
        assert ks_2samp(got.p, p).pvalue >= 1e-3

    @pytest.mark.parametrize("shape", ["bump", "step"])
    def test_kick_window_law_matches_dense_eigh(self, shape):
        # the eigsh factors of the O(n) operator against dense eigh of M at
        # n = 200: the bump's K = 32 and a step in c whose dropped share
        # at K = 32 is 1.2e-6, just over the 1e-6 rule, so K = 64 tests
        # |M|_F^2 = sum (2j+1) T_j^2; tail_mean tests
        # trace(M) = sum j c_j. G is compared entrywise, so each
        # eigenvector's sign must follow the largest-entry-positive rule.
        if shape == "bump":
            c = _kick_weights(Schedule(SCH.tau1, 0.2, SCH.tau3))
        else:
            c = ((np.arange(200) < 100) + 0.01) / 200.0
        n = len(c)
        lam, G, L, tail_mean = _kick_window_law(c)
        T, M = _kick_matrix(c)
        w, V = eigh(M)
        w, V = w[::-1], V[:, ::-1]
        V = V * np.sign(V[np.abs(V).argmax(axis=0), np.arange(n)])
        K = len(lam)

        def dropped(k):
            return (w[k:] ** 2).sum() / (M * M).sum()

        assert n == 200 and K == {"bump": 32, "step": 64}[shape]
        assert dropped(K) <= 1e-6 and (K == 32 or dropped(K // 2) > 1e-6)
        assert np.abs(lam - w[:K]).max() <= 1e-12 * w[0]
        Gd = V[:, :K].T @ np.column_stack((np.ones(n), T))
        assert np.abs(G - Gd).max() <= 1e-9 * np.abs(Gd).max()
        cov = np.array([[n, T.sum()], [T.sum(), T @ T]]) - Gd.T @ Gd
        assert np.abs(L @ L.T - cov).max() <= 1e-9 * n
        assert L[0, 1] == 0.0
        assert tail_mean == pytest.approx(np.trace(M) - w[:K].sum(),
                                          rel=1e-9)

    def test_kick_window_matches_per_step_moments(self):
        # tau2 = 1, n = 1000, K = 32. Taken against the sample's own
        # checkpoint 1, window 1's sampling noise drops out; D = 1 makes
        # the drift's diffusive mean rd^2 trace(M) measurable to 1e-2.
        dx, r, (var_dx, mean_r, var_r) = _kick_increments(SCH, 1.0, 31)
        assert float(dx.var()) == pytest.approx(var_dx, rel=1e-2)
        assert float(r.mean()) == pytest.approx(mean_r, rel=1e-2)
        assert float(r.var()) == pytest.approx(var_r, rel=1e-2)

    def test_kick_window_keeps_every_mode_of_a_short_window(self):
        # tau2 = 0.02 is n = 20 steps, so K = n - 1 and the draw is exact:
        # the tail is only the last step, which moves x and not p
        sch = Schedule(SCH.tau1, 0.02, SCH.tau3)
        c = _kick_weights(sch)
        lam, G, L, tail_mean = _kick_window_law(c)
        assert len(c) == 20 and len(lam) == 19
        assert abs(tail_mean) <= 1e-12 * np.trace(_kick_matrix(c)[1])
        assert np.abs(L - [[1.0, 0.0], [0.0, 0.0]]).max() <= 1e-8
        dx, r, (var_dx, _, var_r) = _kick_increments(sch, 1.0, 32)
        assert float(dx.var()) == pytest.approx(var_dx, rel=1e-2)
        assert float(r.var()) == pytest.approx(var_r, rel=1e-2)

    def test_diffusion_broadens(self):
        d_params = SemiclassicalParams(hbar=2 * H, D=H ** (4.0 / 3.0))
        closed = langevin_sample(50_000, SCH, PARAMS0, seed=5)[3]
        noisy = langevin_sample(50_000, SCH, d_params, seed=5)[3]
        assert noisy.p.var() > closed.p.var()

    def test_histogram_against_closed_form(self):
        ens = langevin_sample(150_000, SCH, PARAMS0, seed=0)[3]
        hist = histogram_distribution(ens.p, 96, -8.0, 16.0)
        ref = classical_momentum_pdf(hist.p, SCH.tau1, SCH.tau2, SCH.tau3, H)
        assert float(np.abs(hist.q - ref).sum() * hist.dp) < 0.04

    def test_invalid_arguments(self):
        with pytest.raises(InvalidParameterError):
            langevin_sample(0, SCH, PARAMS0)
        for dt in (0.01, 0.0, -1e-3, math.nan):
            with pytest.raises(InvalidParameterError):
                langevin_sample(10, SCH, PARAMS0, dt=dt)

    def test_runaway_guard_fires(self):
        # window 1 grows x by e^6, so |x| passes 50 on 100 samples
        with pytest.raises(SolverFailureError, match=r"past \|x\| = 50"):
            langevin_sample(100, Schedule(6.0, 1.0, 1.0),
                            SemiclassicalParams(hbar=0.1))

    @pytest.mark.parametrize("seed", [-1, 1.5, True, math.nan])
    def test_bad_seed_rejected(self, seed):
        # numpy would raise its own ValueError or TypeError
        with pytest.raises(InvalidParameterError, match="whole number >= 0"):
            langevin_sample(10, SCH, PARAMS0, seed=seed)

    def test_integral_float_seed_is_an_int(self):
        ens = langevin_sample(10, SCH, PARAMS0, seed=7.0)
        ref = langevin_sample(10, SCH, PARAMS0, seed=7)
        assert all(type(e.seed) is int and e.seed == 7 for e in ens)
        assert np.array_equal(ens[3].p, ref[3].p)

    def test_non_integer_sample_count_rejected(self):
        # numpy's normal draw would raise its own TypeError on a fractional
        # or bool size
        for m in (2.5, True, math.nan, -1.0):
            with pytest.raises(InvalidParameterError,
                               match="whole number of samples"):
                langevin_sample(m, SCH, PARAMS0)
        ens = langevin_sample(3.0, SCH, PARAMS0, seed=1)
        assert [len(e.x) for e in ens] == [3] * 4
        np.testing.assert_array_equal(
            ens[3].p, langevin_sample(3, SCH, PARAMS0, seed=1)[3].p)
