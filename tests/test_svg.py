"""Figure byte tests: a line plot with an inset and a grouped bar plot
from small fixed inputs must reproduce pinned bytes exactly."""

import hashlib

import numpy as np

from qcthreshold.svg import bar_plot, line_plot


def _digest(path):
    data = path.read_bytes()
    return len(data), hashlib.sha256(data).hexdigest()


def test_line_plot_bytes(tmp_path):
    xs = [-1.0, 0.0, 0.5, 2.0, 3.0]
    path = tmp_path / "line.svg"
    line_plot(path,
              [(xs, [0.0, 1.0, 0.25, -0.5, 0.125], "red", "quantum"),
               (np.array(xs), np.array([0.5, 0.75, 1.5, 0.0, 0.0]), "blue",
                "classical")],
              [([0.0, 1.0, 2.0], [0.0, 2.0, 1.0], "red"),
               ([0.0, 1.0, 2.0], [1.0, 0.5, 3.0], "blue")],
              "T", "x", "y")
    assert _digest(path) == (
        5367,
        "5839b686744e3f8d6e5c82565717bd4643ec046fe1262d2c874ec1fb7875d0a5")


def test_bar_plot_bytes(tmp_path):
    path = tmp_path / "bar.svg"
    bar_plot(path,
             [(0, 0.5, 0.25), (1, -0.125, 0.0), (2, 1.0, np.float64(0.75))],
             ("quantum", "classical"), "B", "n", "v")
    assert _digest(path) == (
        2777,
        "a7de1b8e4233656ba9ef9c9ca1be345593327294c74d2cccb571e2be192c41bb")
