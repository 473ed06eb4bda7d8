"""Diagonal and horizontal bounds for general additive noise.

The diagonal route composes the threshold solvers of `contraction` into
g_d(t) = (1/2)(1 - eta_tv(A2*)) t; the horizontal route goes through the
deconvolution machinery and the Levy concentration function of the
capacity-achieving input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import NoiseModel
from .contraction import a1_star, a2_star, alpha_star, eta_tv_complement
from .core_prob import Ccurve, Distribution, GridDensity, bisect, levy_concentration
from .deconv import C_WINDOW, g1_profile
from .errors import DomainError, NoSolutionError


def diag_master_bound(I_WX: float, h_eps: float, eps: float,
                      I_cond_E1: float, eta_bar: float) -> float:
    """Transparent calculator for the master diagonal inequality:
    I(W;Y) <= I_WX - eta_bar (I_WX - h_eps - eps I_cond_E1)."""
    if not all(v >= 0 for v in (I_WX, h_eps, eps, I_cond_E1)):
        raise DomainError("all inputs must be nonnegative")
    if not 0.0 <= eta_bar <= 1.0:
        raise DomainError("eta_bar must lie in [0, 1]")
    return I_WX - eta_bar * (I_WX - h_eps - eps * I_cond_E1)


def discrete_grid_bound(noise: NoiseModel, p: float, gamma: float,
                        grid_step: float, entropy: float) -> float:
    """Coefficient rho < 1 with I(X;Y) <= rho H(X) for grid-valued inputs."""
    rep = a1_star(gamma, p, grid_step, entropy)
    return 1.0 - 0.5 * eta_tv_complement(noise, rep.value)


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


def _validity_value(eps: float, noise: NoiseModel, x_star: Distribution,
                    profile) -> tuple[float, float]:
    u = min(noise.m1 * math.sqrt(eps), 1.0)
    T = profile.g1_of_u(u)
    val = levy_concentration(x_star, T ** -0.75) + (4.0 + 2.0 * C_WINDOW) / math.sqrt(T)
    return val, T


def rho_eps0(noise: NoiseModel, x_star: Distribution) -> float:
    """Largest eps with L(X*; T^{-3/4}) + (4+2c)/sqrt(T) < 1, T = g1(m1 sqrt(eps))."""
    profile = g1_profile(noise)

    def invalid(log_eps):
        return _validity_value(math.exp(log_eps), noise, x_star, profile)[0] >= 1.0

    if invalid(-700.0):
        return 0.0
    _, _, (lo, _) = bisect(invalid, -700.0, 0.0)
    return math.exp(lo)


def rho_horizontal(epsilon: float, noise: NoiseModel, x_star: Distribution) -> float:
    """General horizontal bound rho(eps) = -0.5 log(L(X*;T^{-3/4}) + (4+2c)/sqrt(T)).

    Requires eps below the computed validity threshold eps0; x_star is the
    (caller-supplied) capacity-achieving input approximation.
    """
    if not epsilon > 0:
        raise DomainError("epsilon must be positive")
    profile = g1_profile(noise)
    val, _ = _validity_value(epsilon, noise, x_star, profile)
    if val >= 1.0:
        eps0 = rho_eps0(noise, x_star)
        raise DomainError(f"epsilon outside validity range: eps0 = {eps0:.6g}")
    return -0.5 * math.log(val)
