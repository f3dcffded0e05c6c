"""Serialization of one-dimensional marginals as two-column CSV (p, density),
with every float written by repr so that it reads back exactly."""

from __future__ import annotations

import csv

import numpy as np

from .core import MomentumDistribution

__all__ = [
    "write_marginal_csv",
    "read_marginal_csv",
]


def write_marginal_csv(path, dist: MomentumDistribution) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "density"])
        for p, q in zip(dist.p, dist.q):
            writer.writerow([repr(float(p)), repr(float(q))])


def read_marginal_csv(path) -> MomentumDistribution:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(a), float(b)] for a, b in rows[1:]])
    return MomentumDistribution(p=data[:, 0], q=data[:, 1])
