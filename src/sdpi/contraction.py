"""Contraction coefficients and the threshold solvers they feed.

theta(delta) is the TV distance between the noise law and its translate;
eta_tv(A) is its sup over shifts |delta| <= 2A, which each noise family
computes in its own `eta_tv` and `eta_tv_complement`.  The KL contraction
coefficient is never computed exactly: every consumer substitutes the TV
upper bound, which is sound for all the bounds built on top.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .channels import DMCKernel, NoiseModel
from .core_prob import ThresholdReport, bisect, bisect_up
from .errors import DomainError, NoSolutionError

_BISECT_TOL = 1e-9
_ALPHA_REL_TOL = 1e-10


def eta_tv_amplitude(noise: NoiseModel, A: float) -> float:
    """sup of theta(delta) over |delta| <= 2A: the noise family's `eta_tv`."""
    if not A >= 0:
        raise DomainError("A must be nonnegative")
    return noise.eta_tv(A) if A > 0 else 0.0


def eta_tv_complement(noise: NoiseModel, A: float) -> float:
    """1 - eta_tv(A), computed without cancellation where the family can.

    For large amplitudes eta_tv is within a few ulps of 1 and the difference
    underflows in `1 - eta_tv_amplitude(...)`; the closed-form families give
    the complement directly.
    """
    if not A >= 0:
        raise DomainError("A must be nonnegative")
    return noise.eta_tv_complement(A) if A > 0 else 1.0


def dobrushin_dmc(K: DMCKernel) -> float:
    """Dobrushin coefficient: max TV distance between kernel rows."""
    m = K.matrix
    best = 0.0
    for i in range(m.shape[0]):
        diff = 0.5 * np.abs(m[i] - m[i + 1:]).sum(axis=1)
        if diff.size:
            best = max(best, float(diff.max()))
    return best


@functools.lru_cache(maxsize=8)
def alpha_star(noise: NoiseModel) -> ThresholdReport:
    """Smallest alpha in (0, 1e6] with eta_tv(1/(2 alpha)) <= 1/3, to within
    2e-10 relative; cached, as a2_star asks for it at every t."""
    target, search_max = 1.0 / 3.0, 1e6

    def ok(alpha):
        return eta_tv_amplitude(noise, 1.0 / (2.0 * alpha)) <= target

    if not ok(search_max):
        raise NoSolutionError(
            "eta_tv stays above 1/3 over the whole search range; "
            "the noise does not contract at any amplitude")
    # halve to a bracket [hi/2, hi] that fails at its lower end, down to the
    # smallest positive float at most, and bisect it to a relative width
    hi = search_max
    while hi > math.ulp(0.0) and ok(hi / 2.0):
        hi /= 2.0
    return bisect(ok, hi / 2.0, hi, _ALPHA_REL_TOL * hi)


def a2_star(noise: NoiseModel, t: float, gamma: float, p: float) -> ThresholdReport:
    """Smallest A with 18 gamma A^-p log(A^p) <= t above the amplitude floor.

    Floor: A^p >= max{e, 2 gamma, alpha* e^3 / gamma}.
    """
    if not t > 0:
        raise DomainError("t must be positive")
    if not 0 < gamma < math.inf:
        raise DomainError("gamma must be positive and finite")
    if not p >= 1:
        raise DomainError("p must be >= 1")
    astar = alpha_star(noise).value
    floor_a = max(math.e, 2.0 * gamma, astar * math.e ** 3 / gamma) ** (1.0 / p)

    def cond(A):
        ap = A ** p
        return 18.0 * gamma * math.log(ap) / ap <= t

    found = bisect_up(cond, floor_a, _BISECT_TOL, 1e12)
    if found is None:
        raise NoSolutionError("a2_star search exceeded range")
    return found
