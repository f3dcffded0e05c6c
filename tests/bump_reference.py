"""Reference integrals of the schedule's bump for the tests: scipy's
adaptive quad on a bump built from math.exp alone, none of the package's
quadrature, and a 5-point Gauss-Legendre rule for integrals over them."""

import math

import numpy as np
from scipy.integrate import quad

# 5-point Gauss-Legendre nodes and weights on [0, 1]
GL_X = (np.polynomial.legendre.leggauss(5)[0] + 1.0) / 2.0
GL_W = np.polynomial.legendre.leggauss(5)[1] / 2.0


def tight_quad(f, a, b):
    """int_a^b f by quad at relative tolerance 1e-13."""
    return quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]


#: the raw bump's integral over (0, 1)
BUMP_Z = tight_quad(lambda s: math.exp(1.0 / (4.0 * s * (s - 1.0))),
                    0.0, 1.0)


def bump_integral(schedule, i, ta, tb):
    """int_ta^tb chi_i dt by quad, with chi_i built from math.exp and
    BUMP_Z alone."""
    start, tau = schedule.window(i)

    def chi(t):
        s = (t - start) / tau
        return math.exp(1.0 / (4.0 * s * (s - 1.0))) / BUMP_Z \
            if 0.0 < s < 1.0 else 0.0

    return tight_quad(chi, ta, tb)
