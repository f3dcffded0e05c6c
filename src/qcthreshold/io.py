"""Every CSV artifact, and the marginal reader.

write_csv writes each float by repr, so that it reads back exactly, and
anything else by str; the sweep's records, bound report and observable
table, and the two-column (p, density) marginals all go through it.
"""

from __future__ import annotations

import csv

import numpy as np

from .core import MomentumDistribution

__all__ = [
    "write_csv",
    "write_marginal_csv",
    "read_marginal_csv",
]


def write_csv(path, header, rows) -> None:
    """Write the header, then one comma-separated line per row, each line
    ending in "\\n"."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                repr(float(v)) if isinstance(v, (float, np.floating))
                else str(v) for v in row) + "\n")


def write_marginal_csv(path, dist: MomentumDistribution) -> None:
    write_csv(path, ["p", "density"], zip(dist.p, dist.q))


def read_marginal_csv(path) -> MomentumDistribution:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(a), float(b)] for a, b in rows[1:]])
    return MomentumDistribution(p=data[:, 0], q=data[:, 1])
