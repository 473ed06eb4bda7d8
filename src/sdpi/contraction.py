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
from dataclasses import dataclass

import numpy as np

from .channels import DMCKernel, NoiseModel
from .core_prob import bisect, bisect_up
from .errors import DomainError, NoSolutionError

_BISECT_TOL = 1e-9


@dataclass(frozen=True)
class ThresholdReport:
    """Solved threshold plus the evidence: iterations and final bracket."""

    value: float
    iterations: int
    bracket: tuple[float, float]


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
    """Smallest alpha in (0, 1e6] with eta_tv(1/(2 alpha)) <= 1/3; cached, as
    a2_star asks for it at every t."""
    target, search_max = 1.0 / 3.0, 1e6

    def ok(alpha):
        return eta_tv_amplitude(noise, 1.0 / (2.0 * alpha)) <= target

    if not ok(search_max):
        raise NoSolutionError(
            "eta_tv stays above 1/3 over the whole search range; "
            "the noise does not contract at any amplitude")
    lo = 1.0 / search_max
    if ok(lo):
        # already below the target at tiny alpha; shrink further to find the inf
        while lo > 1e-12 and ok(lo / 2.0):
            lo /= 2.0
    value, it, bracket = bisect(ok, lo, search_max, _BISECT_TOL)
    return ThresholdReport(value, it, bracket)


def _threshold(scale: float, target: float, p: float, floor_ap: float,
               name: str) -> ThresholdReport:
    """Smallest A with A^p >= floor_ap and scale log(A^p) / A^p <= target."""
    floor_a = floor_ap ** (1.0 / p)

    def cond(A):
        ap = A ** p
        return scale * math.log(ap) / ap <= target

    found = bisect_up(cond, floor_a, _BISECT_TOL, 1e12)
    if found is None:
        raise NoSolutionError(f"{name} search exceeded range")
    return ThresholdReport(*found)


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
    floor_ap = max(math.e, 2.0 * gamma, astar * math.e ** 3 / gamma)
    return _threshold(18.0 * gamma, t, p, floor_ap, "a2_star")


def a1_star(gamma: float, p: float, grid_step: float, entropy: float) -> ThresholdReport:
    """Smallest A with A^-p log A^p <= H/(6 gamma) above the grid floor.

    Floor: A^p >= max{e, 2 gamma, e^3 / (gamma Delta)}.
    """
    if not entropy > 0:
        raise DomainError("entropy must be positive")
    if not grid_step > 0:
        raise DomainError("grid_step must be positive")
    if not 0 < gamma < math.inf:
        raise DomainError("gamma must be positive and finite")
    if not p >= 1:
        raise DomainError("p must be >= 1")
    floor_ap = max(math.e, 2.0 * gamma, math.e ** 3 / (gamma * grid_step))
    return _threshold(1.0, entropy / (6.0 * gamma), p, floor_ap, "a1_star")
