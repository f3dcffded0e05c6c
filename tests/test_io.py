"""CSV writer and marginal CSV round-trip tests."""

import math

import numpy as np

from qcthreshold.core import MomentumDistribution
from qcthreshold.io import read_marginal_csv, write_csv, write_marginal_csv


class TestWriteCsv:
    def test_cells_and_line_endings(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c", "d"],
                  [(0.1, np.float64(1 / 3), np.float32(0.1), math.nan),
                   (7, "512x1024", np.int64(3), -0.0)])
        assert path.read_bytes() == (
            b"a,b,c,d\n"
            + f"0.1,{1 / 3!r},{float(np.float32(0.1))!r},nan\n".encode()
            + b"7,512x1024,3,-0.0\n")


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
        assert b"\r" not in path.read_bytes()

    def test_header(self, tmp_path):
        dist = MomentumDistribution(p=np.array([0.0]), q=np.array([1.0]))
        path = tmp_path / "marginal.csv"
        write_marginal_csv(path, dist)
        assert path.read_text().splitlines()[0] == "p,density"

    def test_reads_crlf(self, tmp_path):
        # marginals written by the csv module end their lines with "\r\n"
        path = tmp_path / "marginal.csv"
        path.write_bytes(b"p,density\r\n-63.99999999999986,9.17e-14\r\n"
                         b"0.5,0.25\r\n")
        back = read_marginal_csv(path)
        assert np.array_equal(back.p, [-63.99999999999986, 0.5])
        assert np.array_equal(back.q, [9.17e-14, 0.25])
