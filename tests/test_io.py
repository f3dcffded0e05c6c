"""Marginal CSV round-trip tests."""

import numpy as np

from qcthreshold.core import MomentumDistribution
from qcthreshold.io import read_marginal_csv, write_marginal_csv


class TestMarginalCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        dist = MomentumDistribution(p=np.linspace(-3, 3, 50),
                                    q=rng.random(50))
        path = tmp_path / "marginal.csv"
        write_marginal_csv(path, dist)
        back = read_marginal_csv(path)
        # repr round-trips float64 exactly
        assert np.array_equal(back.p, dist.p)
        assert np.array_equal(back.q, dist.q)

    def test_header(self, tmp_path):
        dist = MomentumDistribution(p=np.array([0.0]), q=np.array([1.0]))
        path = tmp_path / "marginal.csv"
        write_marginal_csv(path, dist)
        assert path.read_text().splitlines()[0] == "p,density"
