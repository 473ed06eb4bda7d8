"""Diagonal bound and strict-contraction check for general additive noise.

The diagonal bound composes the threshold solvers of `contraction` into
g_d(t) = (1/2)(1 - eta_tv(A2*)) t; the strict-contraction check scans the
noise support against its translates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import NoiseModel
from .contraction import a2_star, alpha_star, eta_tv_complement
from .core_prob import Ccurve, GridDensity
from .errors import NoSolutionError


def general_diag_bound(t: float, noise: NoiseModel, p: float, gamma: float) -> float:
    """g_d(t) = (1/2)(1 - eta_tv(A2*)) t for E|X|^p <= gamma inputs.

    The KL contraction coefficient is replaced by its TV upper bound, so the
    returned value is a certified (possibly weaker) gap.  Returns 0 when the
    noise admits no contracting amplitude at all.
    """
    return general_diag_report(t, noise, p, gamma).points[0][1]


def general_diag_report(t: float, noise: NoiseModel, p: float, gamma: float) -> Ccurve:
    notes = ["KL contraction replaced by its TV upper bound"]
    try:
        rep = a2_star(noise, t, gamma, p)
        comp = eta_tv_complement(noise, rep.value)
        value = 0.5 * comp * t
        constants = {"A2_star": rep.value, "eta_tv": 1.0 - comp,
                     "one_minus_eta_tv": comp,
                     "alpha_star": alpha_star(noise).value}
        if comp <= 0.0:
            notes.append("non-contracting: eta_tv(A2*) = 1, bound is vacuous")
    except NoSolutionError:
        value, constants = 0.0, {}
        notes.append("non-contracting: no amplitude with eta_tv <= 1/3")
    return Ccurve(((t, value),), constants, tuple(notes))


@dataclass(frozen=True)
class StrictVerdict:
    strict: bool
    witness: float | None
    grid_step: float

    @property
    def verdict(self) -> str:
        return "STRICT" if self.strict else "NOT-STRICT"


def strict_contraction_check(noise: GridDensity, shift_grid) -> StrictVerdict:
    """Support-overlap scan: the contraction is strict iff every translate of
    the support overlaps it in positive measure (up to grid resolution)."""
    support = noise.values > 1e-12
    step = noise.step
    shift_grid = np.asarray(shift_grid, dtype=float)
    witnesses = []
    for x in shift_grid:
        k = int(round(x / step))
        if k >= 0:
            overlap = support[k:] & support[:len(support) - k] if k < len(support) \
                else np.zeros(0, dtype=bool)
        else:
            overlap = support[:k] & support[-k:]
        if overlap.sum() * step < 1.5 * step:
            witnesses.append(float(x))
    if witnesses:
        # deterministic choice: smallest |x| witness, positive sign preferred
        w = min(witnesses, key=lambda v: (abs(v), -v))
        return StrictVerdict(False, w, step)
    return StrictVerdict(True, None, step)
