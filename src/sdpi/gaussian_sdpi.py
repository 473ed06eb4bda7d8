"""Gaussian-channel bounds: diagonal and horizontal gaps plus achievability.

The horizontal constants are not pinned numerically by the theory; they are
assembled here once, conservatively, from the explicit inequality chain and
reported alongside every bound (see `horizontal_constants`).  All bounds are
one-sided certificates: they may be loose but are never unsound on their
stated validity range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import NoiseModel, awgn_capacity, mi_additive
from .core_prob import DiscretePMF, binary_entropy, bisect_up, gauss_hermite, q_function, zoom_max
from .errors import AccuracyError, DomainError

A0 = 24.0 / math.pi ** 1.5
A1 = math.sqrt(2.0) / math.pi
A2 = 108.0
# constants entering the horizontal chain; a3/a4 absorb the factor 2 in
# front of the KS distance
A3 = 2.0 * math.sqrt(2.0) * A0
A4 = 2.0 * math.sqrt(2.0) * A1
A5 = 1.0 + 2.0 / math.e + math.log(2.0)


# ---------------------------------------------------------------------------
# diagonal bounds
# ---------------------------------------------------------------------------

def _gd_bracket(x: np.ndarray, t: float, gamma: float) -> np.ndarray:
    """2 Q(sqrt(gamma/x)) (t - h_b(x) - (x/2) log(1 + gamma/x)), clipped at 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    amp, hb, c = _gd_terms(x[pos], gamma)
    out[pos] = np.maximum(amp * (t - hb - c), 0.0)
    return out


def _gd_terms(xp: np.ndarray, gamma: float):
    """The t-free factors of `_gd_bracket` at x > 0: 2 Q(sqrt(gamma/x)), h_b(x)
    and (x/2) log(1 + gamma/x)."""
    return (2.0 * q_function(np.sqrt(gamma / xp)),
            -xp * np.log(xp) - (1 - xp) * np.log1p(-xp),
            0.5 * xp * np.log1p(gamma / xp))


# gd_lower's first scan of x over [0, 1/2]
_GD_X = np.linspace(0.0, 0.5, 2001)
_GD_X.setflags(write=False)


@functools.lru_cache(maxsize=8)
def _gd_scan_terms(gamma: float):
    """`_gd_terms` on `_GD_X`, zero at x = 0, where the bracket is 0."""
    terms = np.zeros((3, len(_GD_X)))
    terms[:, 1:] = _gd_terms(_GD_X[1:], gamma)
    terms.setflags(write=False)
    return terms


def gd_lower(t: float, gamma: float) -> float:
    """Lower bound on the diagonal gap g_d(t) for the AWGN channel."""
    if not 0 <= t < math.inf:
        raise DomainError("t must be nonnegative and finite")
    if not 0 < gamma < math.inf:
        raise DomainError("gamma must be positive and finite")
    if t == 0.0:
        return 0.0
    # the first scan from the cached terms: only t - h_b - c depends on t
    amp, hb, c = _gd_scan_terms(gamma)
    return zoom_max(lambda x: _gd_bracket(x, t, gamma), _GD_X,
                    np.maximum(amp * (t - hb - c), 0.0), 1e-10)


def gd_rate_small_t(u: float, gamma: float) -> float:
    """Small-t rate: the diagonal bracket evaluated at x = 1/(2 u log u).

    This is a restriction of the maximization in gd_lower to one point, so
    the return value never exceeds gd_lower(1/u, gamma).
    """
    if not 0 < gamma < math.inf:
        raise DomainError("gamma must be positive and finite")
    if not (u > 1.0 and u * math.log(u) >= 1.0):
        raise DomainError("u too small: need 1/(2 u log u) <= 1/2")
    x = 1.0 / (2.0 * u * math.log(u))
    t = 1.0 / u
    return float(_gd_bracket(np.array([x]), t, gamma)[0])


def gd_subgaussian(t: float, gamma: float, s: float) -> float:
    """Diagonal bound for s-subgaussian inputs, polynomial in t."""
    if not 0.0 < t <= 0.25:
        raise DomainError("t must lie in (0, 1/4]")
    if not (0 < gamma < math.inf and 0 < s < math.inf):
        raise DomainError("gamma and s must be positive and finite")
    y = t / math.log(1.0 / t)
    if y > 0.5:
        raise DomainError("t too large: y = t/log(1/t) must be <= 1/2")
    amp = math.sqrt(2.0 * gamma * s * math.log(1.0 / y))
    bracket = t - binary_entropy(y) - 0.5 * y * math.log1p(gamma / y)
    return float(2.0 * q_function(amp) * bracket)


def diag_achievability(a: float, gamma: float) -> tuple[float, float, float]:
    """Two-atom sparse input: entropy, Fano lower bound, exact MI.

    X takes value a with probability 1/a^2 (so E X^2 = 1) and 0 otherwise;
    the minimum-distance estimate errs with probability at most
    Q(sqrt(gamma) a / 2), giving I >= H(X) - h_b(Q(sqrt(gamma) a / 2)).
    """
    if not a > 1.0:
        raise DomainError("need a > 1 so that 1/a^2 < 1")
    if not gamma > 0:
        raise DomainError("gamma must be positive")
    q = 1.0 / (a * a)
    x = DiscretePMF(np.array([0.0, a]), np.array([1.0 - q, q]))
    h_x = binary_entropy(q)
    pe = q_function(0.5 * math.sqrt(gamma) * a)
    fano = h_x - binary_entropy(min(pe, 0.5))
    mi = mi_additive(x, NoiseModel.gaussian(), gamma)
    return h_x, fano, mi


# ---------------------------------------------------------------------------
# KS-distance bounds from near-optimality
# ---------------------------------------------------------------------------

def ks_from_mmse_gap(epsilon: float, gamma: float) -> float:
    """KS distance to the standard Gaussian from an MMSE gap epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    if not gamma > 0:
        raise DomainError("gamma must be positive")
    L = math.log(1.0 / epsilon)
    return A0 * math.sqrt(1.0 / (gamma * L)) + A1 * (1.0 + gamma) * epsilon ** 0.25 * math.sqrt(gamma * L)


def ks_from_capacity_gap(epsilon: float, gamma: float) -> float:
    """KS distance to the standard Gaussian from a capacity gap epsilon."""
    if not epsilon > 0:
        raise DomainError("epsilon must be positive")
    if not gamma > 4.0 * epsilon:
        raise DomainError("need gamma > 4 epsilon")
    L = math.log(gamma / (4.0 * epsilon))
    return (A0 * math.sqrt(2.0 / (gamma * L))
            + A1 * (1.0 + gamma) * (gamma * epsilon) ** 0.25 * math.sqrt(2.0 * L))


def ks_talagrand(epsilon: float, gamma: float) -> float:
    """Transportation-inequality variant of the capacity-gap KS bound."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    if not gamma > 0:
        raise DomainError("gamma must be positive")
    L = math.log(1.0 / epsilon)
    return (24.0 / (math.pi ** 1.5 * math.sqrt(gamma * L))
            + 2.0 * math.sqrt(2.0 * (1.0 + gamma)) * epsilon ** 0.25 * math.sqrt(L) / math.pi)


def concentration_radius(epsilon: float) -> tuple[float, float]:
    """(radius, mass bound): P[|X| > eps^{1/8}] <= 108 eps^{1/8} under a
    2-eps KL proximity of P_X * N(0,1) to N(0,1)."""
    if not 0.0 < epsilon <= 1.0:
        raise DomainError("epsilon must lie in (0, 1]")
    r = epsilon ** 0.125
    return r, A2 * r


# ---------------------------------------------------------------------------
# horizontal bound: constant assembly and the lower bounds built on it
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HorizontalConstants:
    gamma: float
    kappa: float
    a5: float
    c1: float
    log_c1: float
    log_eps0: float  # validity threshold: need log(1/eps) >= -log_eps0


def _kappa(gamma: float) -> float:
    """kappa(gamma): sup over L >= 8 of the three-term chain times sqrt(L).

    term 1: sqrt(2) e^{-L/8} / sqrt(pi gamma), sup of e^{-L/8} sqrt(L) at L=8;
    term 2: A3 / sqrt(gamma log(gamma/4 eps)) with log(gamma/4 eps) >= L/2;
    term 3: A4 (1+gamma) (gamma eps)^{1/4} sqrt(log(gamma/4 eps)) with
            log(gamma/4 eps) <= 2L and sup of e^{-L/4} L at L=8.
    """
    t1 = math.sqrt(2.0) * math.sqrt(8.0) * math.exp(-1.0) / math.sqrt(math.pi * gamma)
    t2 = math.sqrt(2.0) * A3 / math.sqrt(gamma)
    t3 = math.sqrt(2.0) * A4 * (1.0 + gamma) * gamma ** 0.25 * 8.0 * math.exp(-2.0)
    return t1 + t2 + t3


def horizontal_constants(gamma: float) -> HorizontalConstants:
    """Assemble kappa(gamma), c1(gamma) and the validity threshold eps0."""
    if not 0 < gamma < math.inf:
        raise DomainError("gamma must be positive and finite")
    kappa = _kappa(gamma)
    c1_sq = math.exp(A5) * kappa
    log_c1 = 0.5 * (A5 + math.log(kappa))
    # validity: all conditions on L = log(1/eps)
    lmin = max(
        8.0,                                   # sup bounds above
        2.0 * math.log(4.0 / gamma) if gamma < 4.0 else math.log(gamma / 4.0),
        math.log(4.0 / gamma) + 1e-12,         # gamma > 4 eps
        8.0 * math.log(2.0 * A2),              # a2 eps^{1/8} <= 1/2
        4.0 * kappa * kappa,                   # kappa L^{-1/2} <= 1/2
    )
    # a2 e^{-L/8} (log L / 2 + |log kappa|) <= 1, monotone for L >= 8
    def cond(L):
        return A2 * math.exp(-L / 8.0) * (0.5 * math.log(L) + abs(math.log(kappa))) <= 1.0

    hi, _, _ = bisect_up(cond, lmin, 0.0, 1e300)  # the cap only bounds the loop
    return HorizontalConstants(gamma, kappa, A5, math.sqrt(c1_sq), log_c1, -hi)


def t_lower_from_gap(epsilon: float, gamma: float, log_eps: float | None = None) -> float:
    """Certified lower bound on I(W;X) given a capacity gap at most epsilon.

    Returns (1/4) log log(1/epsilon) - log c1(gamma).  Pass log_eps for
    epsilon values below the floating-point range.  Outside the validity
    range (epsilon >= eps0) the bound asserts nothing and a DomainError
    reporting the threshold is raised.
    """
    hc = horizontal_constants(gamma)
    if log_eps is None:
        if not epsilon > 0.0:
            raise DomainError("epsilon must be positive (or pass log_eps)")
        log_eps = math.log(epsilon)
    if not log_eps <= hc.log_eps0:
        raise DomainError(
            f"epsilon outside validity range: need log(eps) <= {hc.log_eps0:.6g} "
            f"(eps0 = exp({hc.log_eps0:.6g}))")
    L = -log_eps
    return 0.25 * math.log(L) - hc.log_c1


# ---------------------------------------------------------------------------
# horizontal achievability
# ---------------------------------------------------------------------------

def gauss_hermite_input(m: int) -> DiscretePMF:
    """m-atom zero-mean unit-variance input on Gauss-Hermite nodes."""
    if m < 1:
        raise DomainError("m must be >= 1")
    atoms, w = gauss_hermite(m)
    return DiscretePMF(atoms, w / w.sum())


def gh_upper_achievability(t: float, gamma: float) -> tuple[int, float, float]:
    """Capacity-gap achievability at t: m = floor(e^t) Gauss-Hermite atoms.

    Returns (m, closed-form gap bound 4(1+gamma)(gamma/(1+gamma))^{2m},
    numerically measured gap C(gamma) - I(X_m; Y_gamma)).
    """
    if not gamma >= 0:
        raise DomainError("gamma must be nonnegative")
    if not t >= math.log(2.0) - 1e-12:
        raise DomainError("need t >= log 2 so that m >= 2")
    # m = floor(e^t) > 64, checked before e^t can overflow
    if t > math.log(65.0):
        raise AccuracyError("quadrature accuracy not certified beyond m = 64")
    m = int(math.floor(math.exp(t)))
    bound = 4.0 * (1.0 + gamma) * (gamma / (1.0 + gamma)) ** (2 * m)
    if gamma == 0.0:
        return m, 0.0, 0.0
    x = gauss_hermite_input(m)
    gap = awgn_capacity(gamma) - mi_additive(x, NoiseModel.gaussian(), gamma)
    return m, bound, gap
