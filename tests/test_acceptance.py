"""Acceptance suite: the nine end-to-end guarantees of the package.

Each criterion lives in its own test class; expensive solver runs are
shared through module-scoped fixtures. Tolerances are part of the
contract and are stated inline.
"""

import math
import time

import numpy as np
import pytest

from qcthreshold.closedform import (
    classical_momentum_pdf,
    constants,
    duhamel_bound,
    predicted_moments,
    quantum_momentum_pdf,
)
from qcthreshold.core import (
    GridSpec,
    SemiclassicalParams,
    expect_observable,
    initial_coherent_field,
    l1_distance,
    measure_central_moments,
    momentum_marginal,
    position_marginal,
    resample_distribution,
    standard_schedule,
)
from qcthreshold.evolver import evolve
from qcthreshold.oracles import (
    coherent_density_matrix,
    coherent_wavefunction,
    dm_momentum_marginal,
    histogram_distribution,
    langevin_sample,
    lindblad_dm_evolve,
    momentum_distribution,
    schrodinger_closed,
)
from qcthreshold.sweep import emit_figures

H = 0.05
SCH = standard_schedule(H)
ARGS = (SCH.tau1, SCH.tau2, SCH.tau3, H)


def _run(kind, D=0.0, grid=None):
    params = SemiclassicalParams(hbar=2 * H, D=D)
    field = initial_coherent_field(params, grid or GridSpec.for_h(H), kind)
    return evolve(field, SCH, params)


@pytest.fixture(scope="module")
def closed_runs():
    return {kind: _run(kind) for kind in ("wigner", "classical")}


@pytest.fixture(scope="module")
def density_grid():
    p = np.linspace(-16.0, 60.0, 1 << 15)
    return p, float(p[1] - p[0])


class TestCriterion1Constants:
    """constants(tau2=1) reproduces the ten bound constants."""

    def test_values_and_runtime(self):
        constants.cache_clear()
        start = time.perf_counter()
        k = constants(1.0)
        elapsed = time.perf_counter() - start
        assert k.C1 == pytest.approx(1.0 + 3.0 * math.sqrt(3.0) / 2.0,
                                     abs=1e-10)
        assert k.C3 == pytest.approx(2.0 * math.sqrt(2.0 / (math.pi * math.e)),
                                     abs=1e-10)
        assert k.C4 == pytest.approx(1.36962103, abs=1e-3)
        assert k.C2 == pytest.approx(0.3726, abs=1e-3)
        assert k.C5 == pytest.approx(0.60002, abs=1e-3)
        assert k.C_qu == pytest.approx(3.846, abs=1e-3)
        assert k.C_cl == pytest.approx(2.704, abs=1e-3)
        assert k.c_bar == pytest.approx(0.2726, abs=1e-3)
        assert k.c0 == pytest.approx(0.06412, abs=1e-3)
        assert k.C_total == pytest.approx(6.550, abs=1e-3)
        assert elapsed < 10.0


class TestCriterion2ClosedForms:
    """Normalization, h-independence, and final-checkpoint moments of the
    closed-form densities."""

    def test_normalization(self, density_grid):
        p, dp = density_grid
        assert float(quantum_momentum_pdf(p, *ARGS).sum() * dp) == \
            pytest.approx(1.0, abs=1e-8)
        assert float(classical_momentum_pdf(p, *ARGS).sum() * dp) == \
            pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("pdf", [quantum_momentum_pdf,
                                     classical_momentum_pdf])
    def test_h_independence(self, density_grid, pdf):
        p, _ = density_grid
        curves = []
        for h in (1e-3, 1e-6):
            sch = standard_schedule(h)
            curves.append(pdf(p, sch.tau1, sch.tau2, sch.tau3, h))
        assert np.abs(curves[0] - curves[1]).max() < 1e-10

    @pytest.mark.parametrize("pdf", [quantum_momentum_pdf,
                                     classical_momentum_pdf])
    def test_final_moments(self, density_grid, pdf):
        p, dp = density_grid
        q = pdf(p, *ARGS)
        mean = float((q * p).sum() * dp)
        c = p - mean
        assert mean == pytest.approx(1.0, abs=1e-6)
        assert float((q * c ** 2).sum() * dp) == pytest.approx(3.0, abs=1e-6)
        assert float((q * c ** 4).sum() * dp) == pytest.approx(75.0, abs=1e-4)


class TestCriterion3SolverVsClosedForm:
    """The spectral solver at D = 0 reproduces the closed forms."""

    def test_quantum_l1(self, closed_runs):
        md = momentum_marginal(closed_runs["wigner"].final)
        ref = quantum_momentum_pdf(md.p, *ARGS)
        assert float(np.abs(md.q - ref).sum() * md.dp) < 5e-3

    def test_classical_l1(self, closed_runs):
        md = momentum_marginal(closed_runs["classical"].final)
        ref = classical_momentum_pdf(md.p, *ARGS)
        assert float(np.abs(md.q - ref).sum() * md.dp) < 5e-3

    @pytest.mark.parametrize("kind", ["wigner", "classical"])
    @pytest.mark.parametrize("cp", [0, 1, 2, 3])
    def test_checkpoint_moments(self, closed_runs, kind, cp):
        m = measure_central_moments(closed_runs[kind].checkpoints[cp])
        ref = predicted_moments(cp, *ARGS, kind=kind)
        for name in ("mean_x", "mean_p", "var_x", "m3_x", "m4_x",
                     "var_p", "m3_p", "m4_p"):
            got, want = getattr(m, name), getattr(ref, name)
            scale = max(abs(want), 1e-6)
            assert abs(got - want) / scale < 1e-9, (name, cp)

    def test_runtime(self):
        start = time.perf_counter()
        _run("wigner")
        assert time.perf_counter() - start < 120.0


class TestCriterion4PositionMarginals:
    """Quantum and classical x-distributions coincide at D = 0."""

    @pytest.mark.parametrize("cp", [0, 1, 2, 3])
    def test_agreement(self, closed_runs, cp):
        xq = position_marginal(closed_runs["wigner"].checkpoints[cp])
        xc = position_marginal(closed_runs["classical"].checkpoints[cp])
        assert l1_distance(xq, xc) < 1e-4


class TestCriterion5ThirdCumulant:
    """The quantum correction feeds exactly one cumulant."""

    def test_only_third_moment_differs(self, closed_runs):
        mq = measure_central_moments(closed_runs["wigner"].checkpoints[3])
        mc = measure_central_moments(closed_runs["classical"].checkpoints[3])
        for name in ("mean_p", "var_p", "m4_p"):
            got, want = getattr(mq, name), getattr(mc, name)
            assert abs(got - want) / max(abs(want), 1e-9) < 1e-4, name
        gap = mc.m3_p - mq.m3_p
        assert abs(gap) > 1e-3 * abs(mc.m3_p)
        assert gap == pytest.approx(2.0 * SCH.tau2 * H * H
                                    * math.exp(3.0 * SCH.tau3), rel=1e-3)


class TestCriterion6BoundVerification:
    """Measured solver-vs-closed-form L1 errors sit under the analytic
    bounds at every (h, D) cell."""

    @pytest.mark.parametrize("h", [0.2, 0.1, 0.05])
    @pytest.mark.parametrize("ratio", [0.01, 0.1])
    def test_cell(self, h, ratio):
        D = ratio * h ** (4.0 / 3.0)
        sch = standard_schedule(h)
        params = SemiclassicalParams(hbar=2 * h, D=D)
        for kind, side, pdf in (
                ("wigner", "quantum", quantum_momentum_pdf),
                ("classical", "classical", classical_momentum_pdf)):
            field = initial_coherent_field(params, GridSpec.for_h(h), kind)
            md = momentum_marginal(evolve(field, sch, params).final)
            ref = pdf(md.p, sch.tau1, sch.tau2, sch.tau3, h)
            measured = float(np.abs(md.q - ref).sum() * md.dp)
            bound = duhamel_bound(side, h, D, sch)
            assert measured <= bound + 5e-3, (h, ratio, side)


class TestCriterion7DiscrepancyOrdering:
    """The observable discrepancy at h = 0.05 survives weak diffusion and
    collapses under strong diffusion."""

    @staticmethod
    def _discrepancy(D):
        grid = GridSpec.for_h(H) if D <= 1.5 * H ** (4.0 / 3.0) else \
            GridSpec.for_h(H, n_v=2048, widths_v=128.0)
        vals = {}
        for kind in ("wigner", "classical"):
            params = SemiclassicalParams(hbar=2 * H, D=D)
            field = initial_coherent_field(params, grid, kind)
            md = momentum_marginal(evolve(field, SCH, params).final)
            vals[kind] = expect_observable(md)
        return abs(vals["wigner"] - vals["classical"])

    def test_ordering(self):
        base = self._discrepancy(0.0)
        weak = self._discrepancy(0.01 * H ** (4.0 / 3.0))
        strong = self._discrepancy(10.0 * H ** (4.0 / 3.0))
        assert base == pytest.approx(0.06412, abs=2e-3)
        assert weak > 0.05
        assert strong < 0.032


class TestCriterion8Oracles:
    """Independent discretizations agree with the spectral solver."""

    def test_schrodinger_matches_airy_form(self):
        cps = schrodinger_closed(coherent_wavefunction(H), SCH, H)
        md = momentum_distribution(cps[3], H)
        mask = (md.p > -14.0) & (md.p < 46.0)
        ref = quantum_momentum_pdf(md.p[mask], *ARGS)
        assert float(np.abs(md.q[mask] - ref).sum() * md.dp) < 1e-3

    def test_langevin_matches_spectral_classical(self, closed_runs):
        ens = langevin_sample(1_000_000, SCH, SemiclassicalParams(hbar=2 * H),
                              seed=0)[3]
        hist = histogram_distribution(ens.p, 120, -8.0, 16.0)
        sp = momentum_marginal(closed_runs["classical"].final)
        ref = resample_distribution(sp, hist.p)
        assert float(np.abs(hist.q - ref.q).sum() * hist.dp) < 3e-2

    def test_lindblad_dm_matches_spectral_quantum(self):
        D = H ** (4.0 / 3.0)
        params = SemiclassicalParams(hbar=2 * H, D=D)
        rho0 = coherent_density_matrix(H, n=512)
        cps = lindblad_dm_evolve(rho0, SCH, params, steps=60)
        md = dm_momentum_marginal(cps[3], params)
        sp = momentum_marginal(_run("wigner", D=D).final)
        mask = (md.p > -14.0) & (md.p < 46.0)
        ref = resample_distribution(sp, md.p[mask])
        assert float(np.abs(md.q[mask] - ref.q).sum() * md.dp) < 1e-3


@pytest.fixture(scope="module")
def figure_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("figs")
    return emit_figures(str(out)), out


class TestCriterion9Figures:
    """fig2/fig3 carry the qualitative quantum signature."""

    @staticmethod
    def _local_maxima(p, q, lo, hi):
        inner = (q[1:-1] > q[:-2]) & (q[1:-1] > q[2:])
        window = (p[1:-1] > lo) & (p[1:-1] < hi)
        return int((inner & window).sum())

    def test_classical_unimodal(self, figure_data):
        data, _ = figure_data
        p, _, c = data["fig2"]
        assert self._local_maxima(p, c, p.min(), p.max()) == 1

    def test_quantum_oscillation_count(self, figure_data):
        # The window is the positive side of the plotted range. In the units
        # fixed by sigma = sqrt(1 + 2 tau2^2) the minimum-uncertainty state
        # has effective hbar 2, and the two stationary branches
        # x = +-sqrt(p / tau2) interfere with relative phase
        # (2/3) p^(3/2) / sqrt(tau2); one fringe takes 2 pi. On (0, 3) at
        # tau2 = 1 that phase spans only 2 * 3^(3/2) / 3 ~ 3.46 rad, less
        # than one fringe, so no correct density has 3 maxima there. The
        # closed form puts them at p ~ 1.1, 5.2, 7.8 for every h, all
        # inside (0, 8); the unimodal classical curve has 1.
        data, _ = figure_data
        p, q, _ = data["fig2"]
        assert self._local_maxima(p, q, 0.0, p.max()) >= 3

    def test_inset_oscillations_denser(self, figure_data):
        # fringe density per unit of each distribution's own width: the
        # tau2 = 10 curve is ~8x wider, so the visually denser fringes show
        # up once momentum is measured in units of sigma
        data, _ = figure_data
        p, q, _ = data["fig2"]
        pi_, qi, _ = data["fig2_inset"]
        sigma = {1.0: math.sqrt(3.0), 10.0: math.sqrt(201.0)}
        main = self._local_maxima(p, q, p.min(), p.max()) \
            / ((p.max() - p.min()) / sigma[1.0])
        inset = self._local_maxima(pi_, qi, pi_.min(), pi_.max()) \
            / ((pi_.max() - pi_.min()) / sigma[10.0])
        assert inset > main

    def test_fig3_first_entry_matches_criterion7(self, figure_data):
        data, out = figure_data
        n, qv, cv = data["fig3"][0]
        assert n == 0
        assert abs(qv - cv) == pytest.approx(0.06412, abs=2e-3)
        assert (out / "fig3.svg").exists()
